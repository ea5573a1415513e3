//! The frozen inputs: the Table 3 cells, the FLWOR set, the bibliography
//! generator, and the seeded helpers (hash, RNG, Zipf) that turn `--seed`
//! into an operation list. Nothing here is read from the product at run
//! time, so a change to the product's own query lists cannot move the
//! benchmark.

use crate::sut;

/// One Table 3 cell: a dataset and one of its six Appendix A queries.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub dataset: &'static str,
    pub id: &'static str,
    pub query: &'static str,
}

impl Cell {
    pub fn name(&self) -> String {
        format!("{}.{}", self.dataset, self.id)
    }
}

const fn cell(dataset: &'static str, id: &'static str, query: &'static str) -> Cell {
    Cell { dataset, id, query }
}

/// Appendix A, Q1–Q6 on d1–d5 (tag names as the generators spell them).
pub const CELLS: [Cell; 30] = [
    cell("d1", "Q1", "//a//b4"),
    cell("d1", "Q2", "//a[//b2][//b1]//b3"),
    cell("d1", "Q3", "//a//c2/b1/c2/b1//c3"),
    cell("d1", "Q4", "//a//c2//b1/c2[//c2[b1]]/b1//c3"),
    cell("d1", "Q5", "//b1//c2//b1"),
    cell("d1", "Q6", "//b1//c2[//c3]//b1"),
    cell("d2", "Q1", "//addresses//street_address//name_of_state"),
    cell("d2", "Q2", "//addresses[//zip_code][//country_id]"),
    cell("d2", "Q3", "//addresses//street_address"),
    cell(
        "d2",
        "Q4",
        "//address[//name_of_state][//zip_code]//street_address",
    ),
    cell("d2", "Q5", "//address[//street_address]"),
    cell(
        "d2",
        "Q6",
        "//address[//street_address][//zip_code][//name_of_city]",
    ),
    cell("d3", "Q1", "//item/attributes//length"),
    cell(
        "d3",
        "Q2",
        "//item[//author/contact_information//street_address]/title",
    ),
    cell(
        "d3",
        "Q3",
        "//publisher//street_information//street_address",
    ),
    cell("d3", "Q4", "//publisher[//mailing_address]//street_address"),
    cell("d3", "Q5", "//author//mailing_address//street_address"),
    cell(
        "d3",
        "Q6",
        "//author[date_of_birth][//last_name]//street_address",
    ),
    cell("d4", "Q1", "//VP//VP/NP//PP/PP"),
    cell("d4", "Q2", "//VP[VP]//VP[PP]/NP[PP]/NN"),
    cell("d4", "Q3", "//VP/VP/NP//NN"),
    cell("d4", "Q4", "//VP[VP]//VP/NP//NN"),
    cell("d4", "Q5", "//VP//VP/NP//PP/IN"),
    cell("d4", "Q6", "//VP[//NP][//VB]//JJ"),
    cell("d5", "Q1", "//phdthesis//author"),
    cell("d5", "Q2", "//phdthesis[//author][//school]"),
    cell("d5", "Q3", "//www[//url]"),
    cell("d5", "Q4", "//www[//editor][//title][//year]"),
    cell("d5", "Q5", "//proceedings[//editor]"),
    cell("d5", "Q6", "//proceedings[//editor][//year][//url]"),
];

/// The FLWOR set. F1 is the paper's Example 1; F2–F6 each lean on one
/// more piece of the FLWOR machinery (see README).
pub const FLWORS: [(&str, &str); 6] = [
    (
        "F1",
        r#"<bib>{
    for $book1 in doc("bib.xml")//book,
        $book2 in doc("bib.xml")//book
    let $aut1 := $book1/author
    let $aut2 := $book2/author
    where $book1 << $book2
      and not($book1/title = $book2/title)
      and deep-equal($aut1, $aut2)
    return <book-pair>{ $book1/title }{ $book2/title }</book-pair>
}</bib>"#,
    ),
    (
        "F2",
        "for $b in //book let $t := $b/title return <entry>{ $t }{ $b/price }</entry>",
    ),
    (
        "F3",
        "for $s in //series, $b in //book where $s << $b and $b/price > 140 \
         return <later>{ $s/name }{ $b/title }</later>",
    ),
    (
        "F4",
        "for $b in //book, $a in //article where $b/author/last = $a/writer/last \
         return <same>{ $b/title }{ $a/heading }</same>",
    ),
    (
        "F5",
        "for $b in //book where $b/price < 40 order by $b/title return $b/title",
    ),
    (
        "F6",
        "for $b in //book where not($b/year = $b/reprint) return <first>{ $b/title }{ $b/year }</first>",
    ),
];

/// A seeded bibliography: `books` books (unique title, one to three
/// authors from a pool, year, for half of them a reprint year that may
/// equal it, price, a few nodes of publication detail), `books / 8`
/// articles whose writers come from the same pool, and a series marker
/// before every fortieth book.
///
/// The seed decides *which* book gets which value, not how many books
/// get it: author counts, author names, years, reprint kinds and prices
/// are seeded shuffles of fixed multisets. Every seed is a different
/// document with the same value histograms, so the selectivity of each
/// FLWOR's predicates — and with it the work the workload measures —
/// does not change with the seed.
pub fn bib(books: usize, seed: u64) -> sut::Parts {
    let mut rng = Rng::new(seed ^ 0xb1b);
    let pool = (books / 3).max(4);
    let articles = (books / 8).max(2);
    let series_every = 40;
    let author_counts = rng.shuffled((0..books).map(|k| 1 + k % 3).collect());
    let slots: usize = author_counts.iter().sum();
    let mut authors = rng
        .shuffled((0..slots).map(|k| k % pool).collect())
        .into_iter();
    let years = rng.shuffled((0..books).map(|k| 1985 + k % 21).collect());
    let reprints = rng.shuffled((0..books).map(|k| k % 4).collect());
    let prices = rng.shuffled((0..books).map(|k| 10 + k * 141 / books).collect());
    let writers = rng.shuffled((0..pool).collect());

    let mut g = sut::Gen::new(seed);
    g.open("bib");
    for i in 0..books {
        if i % series_every == 0 {
            g.open("series");
            g.leaf("name", &format!("series-{}", i / series_every));
            g.close();
        }
        g.open("book");
        let word = g.phrase(1);
        g.leaf("title", &format!("title-{i:05}-{word}"));
        for _ in 0..author_counts[i] {
            person(
                &mut g,
                "author",
                authors.next().expect("one author per slot"),
            );
        }
        g.leaf("year", &years[i].to_string());
        match reprints[i] {
            0 => g.leaf("reprint", &years[i].to_string()),
            1 => g.leaf("reprint", &(years[i] + 21).to_string()),
            _ => {}
        }
        g.leaf("price", &prices[i].to_string());
        g.open("publication_detail");
        let (publisher, note) = (g.int(0, 19), g.phrase(3));
        g.leaf("publisher", &format!("publisher-{publisher}"));
        g.leaf("note", &note);
        g.close();
        g.close();
    }
    for (i, &writer) in writers.iter().take(articles).enumerate() {
        g.open("article");
        g.leaf("heading", &format!("heading-{i:04}"));
        person(&mut g, "writer", writer);
        let journal = g.int(0, 9);
        g.leaf("journal", &format!("journal-{journal}"));
        g.close();
    }
    g.close();
    let doc = g.finish();
    let index = sut::build_index(&doc);
    let stats = sut::compute_stats(&doc);
    sut::parts(doc, index, stats)
}

fn person(g: &mut sut::Gen, tag: &str, who: usize) {
    g.open(tag);
    g.leaf("last", &format!("last-{who}"));
    g.leaf("first", &format!("first-{}", who % 17));
    g.close();
}

// ---- seeded helpers ----------------------------------------------------

/// FNV-1a 64 over bytes: how every timed operation's output is checked.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Is `output` the expected answer followed by one newline? That is what
/// `blossom query` prints and what `GET /query` returns.
pub fn is_answer(output: &[u8], want: u64) -> bool {
    output
        .split_last()
        .is_some_and(|(last, answer)| *last == b'\n' && fnv64(answer) == want)
}

/// SplitMix64: the harness's own generator, so operation lists do not
/// change when the product's RNG does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Fisher–Yates.
    pub fn shuffled(&mut self, mut items: Vec<usize>) -> Vec<usize> {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
        items
    }
}

/// Zipf(s) over ranks 0..n by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_cover_the_table3_matrix() {
        for (i, c) in CELLS.iter().enumerate() {
            assert_eq!(c.dataset, format!("d{}", i / 6 + 1));
            assert_eq!(c.id, format!("Q{}", i % 6 + 1));
        }
    }

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn an_answer_is_the_expected_bytes_and_one_newline() {
        let want = fnv64(b"<result/>");
        assert!(is_answer(b"<result/>\n", want));
        assert!(!is_answer(b"<result/>", want));
        assert!(!is_answer(b"<result/>\n\n", want));
        assert!(!is_answer(b"", want));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(30, 1.0);
        let mut rng = Rng::new(7);
        let mut counts = [0usize; 30];
        for _ in 0..30_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[4] && counts[4] > counts[29]);
        assert!(counts[29] > 0);
        // Rank 0 carries 1/H(30) = 25% of the mass.
        assert!((counts[0] as f64 / 30_000.0 - 0.2503).abs() < 0.01);
    }

    #[test]
    fn bib_is_seeded_and_keeps_its_value_histograms() {
        let a = sut::to_xml(&bib(80, 5).doc);
        let b = sut::to_xml(&bib(80, 6).doc);
        assert_eq!(a, sut::to_xml(&bib(80, 5).doc));
        assert_ne!(a, b);
        // Different documents, same multiset of prices and reprint kinds.
        let values = |xml: &str, tag: &str| -> Vec<String> {
            let open = format!("<{tag}>");
            let mut v: Vec<String> = xml
                .split(&open)
                .skip(1)
                .map(|rest| rest[..rest.find('<').unwrap()].to_string())
                .collect();
            v.sort();
            v
        };
        assert_eq!(values(&a, "price"), values(&b, "price"));
        assert_eq!(values(&a, "price").len(), 80);
        assert_eq!(values(&a, "reprint").len(), values(&b, "reprint").len());
        assert_eq!(a.matches("<author>").count(), b.matches("<author>").count());
    }

    #[test]
    fn shuffle_permutes() {
        let mut v = Rng::new(1).shuffled((0..50).collect());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
