//! The flat FLWOR plan (`blossom_core::flwor`) against the NestedList
//! strategies, the navigational evaluator and the oracle: a seeded sweep
//! over two- and three-`for` FLWORs whose join keys and literals come from
//! the document, covering every where-atom kind in both operand orders.

use blossomtree::core::{Engine, EngineOptions, Strategy};
use blossomtree::oracle::Oracle;
use blossomtree::xml::{writer, Document};
use std::collections::BTreeMap;

/// SplitMix64: a seeded stream for the generators below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const LASTS: [&str; 4] = ["Knuth", "Codd", "Gray", "Date"];

/// A small bibliography with shared author names, years and prices, so
/// value joins between books and articles have partners; some books have
/// no author, some no price.
fn bib(rng: &mut Rng) -> String {
    let mut xml = String::from("<bib>");
    for i in 0..10 {
        xml.push_str(&format!("<book><title>t{i}</title>"));
        for _ in 0..rng.below(3) {
            xml.push_str(&format!("<author><last>{}</last></author>", rng.pick(&LASTS)));
        }
        xml.push_str(&format!("<year>{}</year>", 1990 + rng.below(3)));
        if rng.below(4) > 0 {
            xml.push_str(&format!("<price>{}</price>", 10 * (1 + rng.below(4))));
        }
        xml.push_str("</book>");
        if i % 3 == 1 {
            let last = rng.pick(&LASTS);
            xml.push_str(&format!(
                "<article><heading>h{i}</heading><author><last>{last}</last></author>\
                 <year>{}</year></article>",
                1990 + rng.below(3)
            ));
        }
    }
    xml.push_str("</bib>");
    xml
}

/// The where-atom kinds the sweep covers.
const KINDS: [&str; 9] = ["=", "!=", "<", "deep-equal", "<<", ">>", "is", "isnot", "not"];

/// One where atom of `kind` between `$x` and `$y` (`$x` written first).
/// Identity atoms compare two book variables; `lx`/`ly` name a `let`
/// alias of the respective variable's authors when one is bound.
fn atom(kind: &str, x: &str, y: &str, lx: Option<&str>, ly: Option<&str>, rng: &mut Rng) -> String {
    let authors = |v: &str, l: Option<&str>| match l {
        Some(l) => format!("${l}"),
        None => format!("${v}/author"),
    };
    match kind {
        "=" => format!("{}/last = {}/last", authors(x, lx), authors(y, ly)),
        "!=" => format!("${x}/year != ${y}/year"),
        "<" => format!("${x}/year < ${y}/year"),
        "deep-equal" => format!("deep-equal({}, {})", authors(x, lx), authors(y, ly)),
        "<<" => format!("${x} << ${y}"),
        ">>" => format!("${x} >> ${y}"),
        "is" => format!("${x} is ${y}"),
        "isnot" => format!("${x} isnot ${y}"),
        _ => match rng.below(3) {
            0 => format!("not({}/last = {}/last)", authors(x, lx), authors(y, ly)),
            1 => format!("not(${x}/price is ${y}/price)"),
            _ => format!("not(deep-equal({}, {}))", authors(x, lx), authors(y, ly)),
        },
    }
}

/// A FLWOR for one round: two `for` components (a third, correlated or
/// independent, one round in three), optional `let` aliases on either
/// side, the atom under test in the requested orientation, sometimes a
/// literal atom drawn from the document, and an `order by` now and then.
fn query(kind: &str, reversed: bool, rng: &mut Rng) -> String {
    let identity = matches!(kind, "is" | "isnot");
    let second = if identity || rng.below(2) == 0 { "//book" } else { "//article" };
    let mut q = format!("for $a in //book, $b in {second}");
    match rng.below(3) {
        0 => q.push_str(", $c in $a/author"),
        1 if !identity => q.push_str(", $c in //article"),
        _ => {}
    }
    let la = (rng.below(3) == 0).then(|| {
        q.push_str(" let $la := $a/author");
        "la"
    });
    let lb = (rng.below(3) == 0).then(|| {
        q.push_str(" let $lb := $b/author");
        "lb"
    });
    let body = if reversed {
        atom(kind, "b", "a", lb, la, rng)
    } else {
        atom(kind, "a", "b", la, lb, rng)
    };
    q.push_str(&format!(" where {body}"));
    if rng.below(4) == 0 {
        q.push_str(&format!(" and $a/year >= {}", 1990 + rng.below(2)));
    }
    if rng.below(4) == 0 {
        q.push_str(" order by $b/year descending");
    }
    q.push_str(" return <p>{ $a/title }{ $b/title }{ $b/heading }</p>");
    q
}

/// Every strategy that accepts the query returns the oracle's bytes;
/// `Auto` accepts everything and runs the flat plan without a fallback.
/// Returns whether the answer holds at least one tuple.
fn check(xml: &str, query: &str) -> bool {
    let doc = Document::parse_str(xml).unwrap();
    let expected = Oracle::new(&doc).eval_query_str(query).unwrap();
    let engine = Engine::with_options(doc, EngineOptions { trace: true, ..EngineOptions::default() });
    let (auto, trace) = engine.eval_query_traced(query, Strategy::Auto).unwrap();
    assert_eq!(writer::to_string(&auto), expected, "auto: {query}\n{xml}");
    assert!(trace.fallbacks.is_empty(), "{query}: {:?}", trace.fallbacks);
    assert_eq!(trace.executed, Strategy::Pipelined, "{query}");
    for strategy in [
        Strategy::Navigational,
        Strategy::Pipelined,
        Strategy::BoundedNestedLoop,
        Strategy::NaiveNestedLoop,
    ] {
        match engine.eval_query_str(query, strategy) {
            Ok(out) => assert_eq!(writer::to_string(&out), expected, "{strategy}: {query}\n{xml}"),
            Err(e) => assert!(strategy != Strategy::Navigational, "{query}: {e}"),
        }
    }
    expected != "<result/>"
}

#[test]
fn every_atom_kind_in_both_orders_agrees_with_the_oracle() {
    let mut hits: BTreeMap<(&str, bool), (usize, usize)> = BTreeMap::new();
    let mut rng = Rng(0xF1A7_F10E);
    for round in 0..540 {
        let kind = KINDS[round % KINDS.len()];
        let reversed = (round / KINDS.len()) % 2 == 1;
        let xml = bib(&mut rng);
        let q = query(kind, reversed, &mut rng);
        let non_empty = check(&xml, &q);
        let cell = hits.entry((kind, reversed)).or_default();
        cell.0 += 1;
        cell.1 += non_empty as usize;
    }
    for kind in KINDS {
        for reversed in [false, true] {
            let (rounds, non_empty) = hits[&(kind, reversed)];
            assert!(
                non_empty > 0,
                "`{kind}` {}: no round of {rounds} had a non-empty answer",
                if reversed { "reversed" } else { "forward" }
            );
        }
    }
}

/// A three-component FLWOR whose `for` variables interleave — `$c`
/// belongs to `$a`'s component but is bound after `$b` — comes out in
/// `for`-nesting order, not component order.
#[test]
fn interleaved_components_keep_nesting_order() {
    let xml = "<bib><book><title>A</title><author>x</author><author>y</author></book>\
               <book><title>B</title><author>z</author></book><article><h>1</h></article>\
               <article><h>2</h></article></bib>";
    let q = "for $a in //book, $b in //article, $c in $a/author \
             return <p>{ $c }{ $b/h }</p>";
    assert!(check(xml, q));
    let engine = Engine::from_xml(xml).unwrap();
    let plan = engine.explain_query(q).unwrap();
    assert!(plan.contains("resort"), "{plan}");
}

/// The key corners of the `=` hash join, on document values: numeric
/// normalisation, `-0`, and `NaN` equal to every number.
#[test]
fn value_join_keys_follow_general_comparison() {
    let xml = "<r><a><v>10</v></a><a><v>-0</v></a><a><v>NaN</v></a><a><v>x</v></a>\
               <b><w>1e1</w></b><b><w>0</w></b><b><w> x </w></b><b><w>7</w></b></r>";
    let q = "for $a in //a, $b in //b where $b/w = $a/v return <p>{ $a/v }{ $b/w }</p>";
    assert!(check(xml, q));
}
