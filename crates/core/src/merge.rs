//! Merged NoK scans (Section 4.2).
//!
//! When several NoK operators read the same document with a sequential
//! scan (no tag index), the paper merges them into one combined operator
//! — "in the same way that multiple DFAs are merged to an NFA" — so the
//! input is read once instead of once per NoK. Every document node is
//! offered to every NoK's anchor test during a single pass.
//!
//! The benchmark suite's ablation compares this against independent
//! per-NoK scans.

use crate::decompose::NokTree;
use crate::nestedlist::NestedList;
use crate::nok::NokMatcher;
use crate::shape::Shape;
use blossom_xml::{Document, NodeId};
use std::sync::Arc;

/// Match all `noks` with a single document-order pass; returns one match
/// sequence per NoK (identical to running each NoK's own scan).
pub fn merged_scan(
    doc: &Document,
    noks: &[NokTree],
    shape: Arc<Shape>,
) -> Vec<Vec<NestedList>> {
    let matchers: Vec<NokMatcher<'_>> = noks
        .iter()
        .map(|nok| NokMatcher::new(doc, nok, shape.clone(), None))
        .collect();
    let mut results: Vec<Vec<NestedList>> = vec![Vec::new(); noks.len()];
    // One scan: each incoming node is offered to every NoK (the merged
    // frontier), instead of one scan per NoK.
    for node in doc.descendants(NodeId::DOCUMENT) {
        for (i, matcher) in matchers.iter().enumerate() {
            if let Some(nl) = matcher.match_at(node) {
                results[i].push(nl);
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::Decomposition;
    use blossom_flwor::BlossomTree;
    use blossom_xpath::parse_path;

    #[test]
    fn merged_equals_separate_scans() {
        let doc = Document::parse_str(
            "<r><a><b><c/></b></a><x><c/><a><b/></a></x><c/></r>",
        )
        .unwrap();
        let d = Decomposition::decompose(
            &BlossomTree::from_path(&parse_path("//a/b[//c]").unwrap()).unwrap(),
        );
        assert_eq!(d.noks.len(), 2);
        let merged = merged_scan(&doc, &d.noks, d.shape.clone());
        for (i, nok) in d.noks.iter().enumerate() {
            let separate = NokMatcher::new(&doc, nok, d.shape.clone(), None).scan();
            assert_eq!(merged[i], separate, "NoK {i}");
        }
    }

    #[test]
    fn empty_document_yields_empty() {
        let doc = Document::parse_str("<r/>").unwrap();
        let d = Decomposition::decompose(
            &BlossomTree::from_path(&parse_path("//a//b").unwrap()).unwrap(),
        );
        let merged = merged_scan(&doc, &d.noks, d.shape.clone());
        assert!(merged.iter().all(Vec::is_empty));
    }
}
