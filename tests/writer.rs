//! The iterative writer against recursive references: every subtree of
//! the five generated datasets serializes as the straightforward
//! recursive writer would, the word-at-a-time escapers agree with a
//! per-`char` loop wherever the special bytes fall, and a document far
//! deeper than any thread stack could recurse through still serializes.

use blossomtree::xml::{writer, ByteSink, Document, NodeId, NodeKind, ResultSink};
use blossomtree::xmlgen::{generate, Dataset};

fn escape_ref(s: &str, specials: &[char], out: &mut String) {
    for c in s.chars() {
        match c {
            '<' if specials.contains(&c) => out.push_str("&lt;"),
            '>' if specials.contains(&c) => out.push_str("&gt;"),
            '&' if specials.contains(&c) => out.push_str("&amp;"),
            '"' if specials.contains(&c) => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

const TEXT: &[char] = &['<', '>', '&'];
const ATTR: &[char] = &['<', '&', '"'];

fn open_tag_ref(doc: &Document, n: NodeId, out: &mut String) {
    out.push('<');
    out.push_str(doc.tag_name(n).unwrap());
    for (attr, value) in doc.attributes(n) {
        out.push_str(&format!(" {}=\"", doc.symbols().name(*attr)));
        escape_ref(value, ATTR, out);
        out.push('"');
    }
}

/// The recursive compact writer.
fn write_ref(doc: &Document, n: NodeId, out: &mut String) {
    match doc.kind(n) {
        NodeKind::Document => doc.children(n).for_each(|c| write_ref(doc, c, out)),
        NodeKind::Text => escape_ref(doc.text(n).unwrap(), TEXT, out),
        NodeKind::Element(_) => {
            open_tag_ref(doc, n, out);
            if doc.first_child(n).is_none() {
                out.push_str("/>");
                return;
            }
            out.push('>');
            doc.children(n).for_each(|c| write_ref(doc, c, out));
            out.push_str(&format!("</{}>", doc.tag_name(n).unwrap()));
        }
    }
}

/// The recursive pretty writer.
fn pretty_ref(doc: &Document, n: NodeId, indent: usize, out: &mut String) {
    out.push_str(&"  ".repeat(indent));
    if let Some(t) = doc.text(n) {
        escape_ref(t, TEXT, out);
        out.push('\n');
        return;
    }
    open_tag_ref(doc, n, out);
    let kids: Vec<NodeId> = doc.children(n).collect();
    match kids.as_slice() {
        [] => out.push_str("/>\n"),
        [only] if doc.text(*only).is_some() => {
            out.push('>');
            escape_ref(doc.text(*only).unwrap(), TEXT, out);
            out.push_str(&format!("</{}>\n", doc.tag_name(n).unwrap()));
        }
        _ => {
            out.push_str(">\n");
            kids.iter()
                .for_each(|&c| pretty_ref(doc, c, indent + 1, out));
            out.push_str(&"  ".repeat(indent));
            out.push_str(&format!("</{}>\n", doc.tag_name(n).unwrap()));
        }
    }
}

#[test]
fn every_node_of_every_dataset_matches_the_recursive_writer() {
    for dataset in [
        Dataset::D1Recursive,
        Dataset::D2Address,
        Dataset::D3Catalog,
        Dataset::D4Treebank,
        Dataset::D5Dblp,
    ] {
        let doc = generate(dataset, 3_000, 11);
        let (mut got, mut want) = (String::new(), String::new());
        for i in 0..doc.len() as u32 {
            got.clear();
            want.clear();
            writer::write_node(&doc, NodeId(i), &mut got);
            write_ref(&doc, NodeId(i), &mut want);
            assert_eq!(got, want, "{dataset:?} node {i}");
        }
        let mut want = String::new();
        pretty_ref(&doc, doc.root_element().unwrap(), 0, &mut want);
        assert_eq!(writer::to_string_pretty(&doc), want, "{dataset:?} pretty");
    }
}

/// A tiny seeded generator (xorshift64*), so the strings are the same on
/// every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn escapers_match_a_per_char_reference() {
    let alphabet = [
        'a', 'Z', ' ', 'é', '漢', '🎉', '<', '>', '&', '"', '\n', '\'',
    ];
    let mut inputs: Vec<String> = Vec::new();
    // Each special byte at every offset mod 8, after one-, two-, three-
    // and four-byte characters.
    for special in ['<', '>', '&', '"'] {
        for filler in ['a', 'é', '漢', '🎉'] {
            for offset in 0..24 {
                let mut s: String = std::iter::repeat_n(filler, offset).collect();
                s.push(special);
                s.push_str("tail text after it");
                inputs.push(s);
                inputs.push(format!("{}{special}", "x".repeat(offset)));
            }
        }
    }
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    for _ in 0..2_000 {
        let len = (rng.next() % 48) as usize;
        let pick = |r: u64| alphabet[(r % alphabet.len() as u64) as usize];
        inputs.push((0..len).map(|_| pick(rng.next())).collect());
    }
    for s in &inputs {
        let (mut got, mut want) = (String::new(), String::new());
        writer::escape_text(s, &mut got);
        escape_ref(s, TEXT, &mut want);
        assert_eq!(got, want, "text {s:?}");
        got.clear();
        want.clear();
        writer::escape_attr(s, &mut got);
        escape_ref(s, ATTR, &mut want);
        assert_eq!(got, want, "attr {s:?}");
    }
}

#[test]
fn a_very_deep_chain_serializes_without_recursion() {
    // Levels are a `u16` column, so this is about as deep as a document
    // gets; a recursive writer overflows a test thread's 2 MiB stack far
    // sooner.
    const DEPTH: usize = 65_000;
    let mut b = Document::builder();
    for _ in 0..DEPTH {
        b.start_element("a");
    }
    b.text("x");
    for _ in 0..DEPTH {
        b.end_element();
    }
    let doc = b.finish();
    let want = format!("{}x{}", "<a>".repeat(DEPTH), "</a>".repeat(DEPTH));
    assert_eq!(writer::to_string(&doc), want);
    // Both result sinks copy it iteratively too.
    let root = doc.root_element().unwrap();
    let mut bytes = ByteSink::new();
    bytes.copy(&doc, &[root]);
    assert_eq!(bytes.finish(), want);
    let mut copy = Document::builder();
    copy.copy(&doc, &[root]);
    assert_eq!(writer::to_string(&copy.finish()), want);
}
