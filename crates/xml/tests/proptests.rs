//! Property-based tests for the XML substrate: serialize/parse round-trips,
//! region-label invariants, and statistics consistency over random trees.


// Gated: requires the external `proptest` crate. Build with
// `--features proptest` after restoring the dev-dependency (network).
#![cfg(feature = "proptest")]

use blossom_xml::writer;
use blossom_xml::{Document, NodeId, ParseOptions};
use proptest::prelude::*;

/// A recursively generated element tree rendered directly to markup.
#[derive(Debug, Clone)]
enum Tree {
    Element { tag: String, attrs: Vec<(String, String)>, children: Vec<Tree> },
    Text(String),
}

fn tag_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["a", "b", "c", "book", "author", "title", "VP", "NP"])
        .prop_map(str::to_string)
}

fn text_content() -> impl Strategy<Value = String> {
    // Printable text including characters that require escaping; avoid
    // whitespace-only strings (dropped by default parse options).
    "[a-zA-Z<>&\"' ]{1,12}"
        .prop_filter("non-whitespace", |s: &String| !s.trim().is_empty())
}

fn attr() -> impl Strategy<Value = (String, String)> {
    (
        prop::sample::select(vec!["id", "year", "lang"]).prop_map(str::to_string),
        "[a-z<&\"0-9]{0,8}".prop_map(|s| s),
    )
}

fn tree() -> impl Strategy<Value = Tree> {
    let leaf = prop_oneof![
        (tag_name(), prop::collection::vec(attr(), 0..2))
            .prop_map(|(tag, mut attrs)| {
                attrs.dedup_by(|a, b| a.0 == b.0);
                Tree::Element { tag, attrs, children: vec![] }
            }),
        text_content().prop_map(Tree::Text),
    ];
    leaf.prop_recursive(5, 64, 5, |inner| {
        (
            tag_name(),
            prop::collection::vec(attr(), 0..2),
            prop::collection::vec(inner, 0..5),
        )
            .prop_map(|(tag, mut attrs, children)| {
                attrs.dedup_by(|a, b| a.0 == b.0);
                Tree::Element { tag, attrs, children }
            })
    })
}

/// Root must be an element.
fn root_tree() -> impl Strategy<Value = Tree> {
    tree().prop_map(|t| match t {
        e @ Tree::Element { .. } => e,
        text => Tree::Element { tag: "root".into(), attrs: vec![], children: vec![text] },
    })
}

fn render(tree: &Tree, out: &mut String) {
    match tree {
        Tree::Text(t) => writer::escape_text(t, out),
        Tree::Element { tag, attrs, children } => {
            out.push('<');
            out.push_str(tag);
            for (k, v) in attrs {
                out.push(' ');
                out.push_str(k);
                out.push_str("=\"");
                writer::escape_attr(v, out);
                out.push('"');
            }
            if children.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                for c in children {
                    render(c, out);
                }
                out.push_str("</");
                out.push_str(tag);
                out.push('>');
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// parse(serialize(parse(x))) is a fixpoint: the second round-trip is
    /// byte-identical.
    #[test]
    fn serialize_parse_fixpoint(t in root_tree()) {
        let mut src = String::new();
        render(&t, &mut src);
        let doc = Document::parse_str(&src).unwrap();
        let one = writer::to_string(&doc);
        let doc2 = Document::parse_str(&one).unwrap();
        let two = writer::to_string(&doc2);
        prop_assert_eq!(one, two);
    }

    /// Region labels never partially overlap and parent regions contain
    /// child regions.
    #[test]
    fn region_labels_are_properly_nested(t in root_tree()) {
        let mut src = String::new();
        render(&t, &mut src);
        let doc = Document::parse_str(&src).unwrap();
        let regions: Vec<_> = doc.elements().map(|n| doc.region(n)).collect();
        for (i, x) in regions.iter().enumerate() {
            prop_assert!(x.start <= x.end);
            for y in regions.iter().skip(i + 1) {
                prop_assert!(
                    x.contains(y) || y.contains(x) || x.disjoint(y),
                    "partial overlap: {:?} vs {:?}", x, y
                );
            }
        }
        for n in doc.elements() {
            if let Some(p) = doc.parent(n) {
                if p != NodeId::DOCUMENT {
                    let (rp, rn) = (doc.region(p), doc.region(n));
                    prop_assert!(rp.is_parent_of(&rn));
                }
            }
        }
    }

    /// `is_ancestor` agrees with an independent parent-chain walk.
    #[test]
    fn ancestor_agrees_with_parent_chain(t in root_tree()) {
        let mut src = String::new();
        render(&t, &mut src);
        let doc = Document::parse_str(&src).unwrap();
        let nodes: Vec<_> = doc.elements().collect();
        for &a in nodes.iter() {
            for &d in nodes.iter() {
                let by_chain = doc.ancestors(d).any(|x| x == a);
                prop_assert_eq!(doc.is_ancestor(a, d), by_chain);
            }
        }
    }

    /// Stats are internally consistent.
    #[test]
    fn stats_consistency(t in root_tree()) {
        let mut src = String::new();
        render(&t, &mut src);
        let doc = Document::parse_str(&src).unwrap();
        let s = doc.stats();
        prop_assert_eq!(s.node_count, s.element_count + s.text_count);
        prop_assert_eq!(s.element_count, doc.elements().count());
        prop_assert!(s.avg_depth <= s.max_depth as f64);
        prop_assert_eq!(s.recursive, s.max_recursion > 1);
        // Independent recursion check via ancestor walks.
        let brute = doc.elements().any(|n| {
            doc.ancestors(n).any(|a| doc.tag(a).is_some() && doc.tag(a) == doc.tag(n))
        });
        prop_assert_eq!(s.recursive, brute);
    }

    /// Whitespace-handling options only affect text nodes.
    #[test]
    fn parse_options_only_affect_text(t in root_tree()) {
        let mut src = String::new();
        render(&t, &mut src);
        let strict = Document::parse_str_with(
            &src, ParseOptions { keep_whitespace_text: true }).unwrap();
        let lax = Document::parse_str(&src).unwrap();
        prop_assert_eq!(strict.stats().element_count, lax.stats().element_count);
        prop_assert!(strict.stats().text_count >= lax.stats().text_count);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The query lexer and XML parser never panic on arbitrary input.
    #[test]
    fn parsers_never_panic(input in "\\PC*") {
        let _ = Document::parse_str(&input);
    }
}
