//! Binary stack-tree structural join (Al-Khalifa et al., ICDE 2002).
//!
//! Joins two document-ordered node lists on an ancestor-descendant (or
//! parent-child) relationship in one merge pass, using a stack of nested
//! ancestors. Output pairs are sorted by the descendant's document order.

use blossom_xml::index::PostingList;
use blossom_xml::{Document, NodeId};

/// The structural relationship to join on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructRel {
    /// Ancestor/descendant.
    AncestorDescendant,
    /// Parent/child.
    ParentChild,
}

/// Stack-tree-desc: all `(ancestor, descendant)` pairs with
/// `a ∈ ancestors`, `d ∈ descendants` satisfying `rel`. Both inputs must
/// be in document order.
pub fn stack_tree_join(
    doc: &Document,
    ancestors: &[NodeId],
    descendants: &[NodeId],
    rel: StructRel,
) -> Vec<(NodeId, NodeId)> {
    debug_assert!(ancestors.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(descendants.windows(2).all(|w| w[0] < w[1]));
    let mut out = Vec::new();
    let mut stack: Vec<NodeId> = Vec::new();
    let mut ai = 0usize;
    let mut di = 0usize;
    while di < descendants.len() {
        let d = descendants[di];
        // Push ancestors that start before d.
        while ai < ancestors.len() && ancestors[ai].0 < d.0 {
            let a = ancestors[ai];
            // Pop ancestors whose region ended before a starts.
            while let Some(&top) = stack.last() {
                if doc.last_descendant(top).0 < a.0 {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(a);
            ai += 1;
        }
        // Pop ancestors whose region ended before d.
        while let Some(&top) = stack.last() {
            if doc.last_descendant(top).0 < d.0 {
                stack.pop();
            } else {
                break;
            }
        }
        for &a in stack.iter() {
            debug_assert!(doc.is_ancestor(a, d));
            match rel {
                StructRel::AncestorDescendant => out.push((a, d)),
                StructRel::ParentChild => {
                    if doc.is_parent(a, d) {
                        out.push((a, d));
                    }
                }
            }
        }
        di += 1;
    }
    out
}

/// Stack-tree-desc over skip-enabled posting lists. Region `end`s come
/// from the inline label columns (no arena access in the merge), and both
/// inputs gallop past their provably joinless prefixes — but only when
/// the merge actually stalls, so the dense case pays nothing: an ancestor
/// that closes before the current descendant while the stack is empty
/// starts a dead prefix (skipped via the block max-end summary), and a
/// descendant left without a stack entry precedes every remaining
/// ancestor region (skipped via a start gallop). Output is identical to
/// [`stack_tree_join`] pair for pair, in the same order.
pub fn stack_tree_join_postings(
    doc: &Document,
    ancestors: &PostingList,
    descendants: &PostingList,
    rel: StructRel,
) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    // (node, region end) — ends ride along so pops never touch the arena.
    let mut stack: Vec<(NodeId, u32)> = Vec::new();
    let mut ai = 0usize;
    let mut di = 0usize;
    while di < descendants.len() {
        let d = descendants.start(di);
        // Push ancestors that start before d.
        while ai < ancestors.len() && ancestors.start(ai).0 < d.0 {
            let a = ancestors.start(ai);
            let a_end = ancestors.end(ai);
            if a_end < d.0 && stack.is_empty() {
                // Dead prefix: with nothing on the stack, ancestors whose
                // subtree closes before d contain neither d nor anything
                // after it. Leap to the first that is still open at d.
                ai = ancestors.skip_to_end(ai + 1, d.0);
                continue;
            }
            // Pop ancestors whose region ended before a starts.
            while let Some(&(_, top_end)) = stack.last() {
                if top_end < a.0 {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push((a, a_end));
            ai += 1;
        }
        // Pop ancestors whose region ended before d.
        while let Some(&(_, top_end)) = stack.last() {
            if top_end < d.0 {
                stack.pop();
            } else {
                break;
            }
        }
        if stack.is_empty() {
            // d has no containing ancestor, and every ancestor that
            // starts before it has been consumed — descendants up to the
            // next ancestor's start are equally joinless. Only gallop when
            // the next descendant hasn't already cleared that bound (the
            // common self-join case advances by one).
            if ai >= ancestors.len() {
                break;
            }
            let bound = ancestors.start(ai).0;
            di += 1;
            // Strict `<`: a descendant starting exactly at `bound` is the
            // next ancestor element itself (self-join streams) and the
            // regular loop discards it in one compare — galloping there
            // would pay probe cost to move a single step.
            if di < descendants.len() && descendants.start(di).0 < bound {
                di = descendants.skip_to(di, bound);
            }
            continue;
        }
        for &(a, _) in stack.iter() {
            debug_assert!(doc.is_ancestor(a, d));
            match rel {
                StructRel::AncestorDescendant => out.push((a, d)),
                StructRel::ParentChild => {
                    if doc.is_parent(a, d) {
                        out.push((a, d));
                    }
                }
            }
        }
        di += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blossom_xml::{Document, TagIndex};

    fn setup(xml: &str) -> (Document, TagIndex) {
        let doc = Document::parse_str(xml).unwrap();
        let idx = TagIndex::build(&doc);
        (doc, idx)
    }

    fn brute(
        doc: &Document,
        ancs: &[NodeId],
        descs: &[NodeId],
        rel: StructRel,
    ) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for &d in descs {
            for &a in ancs {
                let ok = match rel {
                    StructRel::AncestorDescendant => doc.is_ancestor(a, d),
                    StructRel::ParentChild => doc.is_parent(a, d),
                };
                if ok {
                    out.push((a, d));
                }
            }
        }
        out
    }

    #[test]
    fn simple_ancestor_descendant() {
        let (doc, idx) = setup("<r><a><b/><a><b/></a></a><b/></r>");
        let ancs = idx.stream_by_name(&doc, "a");
        let descs = idx.stream_by_name(&doc, "b");
        let got = stack_tree_join(&doc, ancs, descs, StructRel::AncestorDescendant);
        // b1 under a1; b2 under a1 and a2; b3 under none.
        assert_eq!(got.len(), 3);
        let expected = brute(&doc, ancs, descs, StructRel::AncestorDescendant);
        let mut got_sorted = got.clone();
        got_sorted.sort();
        let mut exp_sorted = expected;
        exp_sorted.sort();
        assert_eq!(got_sorted, exp_sorted);
    }

    #[test]
    fn parent_child_variant() {
        let (doc, idx) = setup("<r><a><x><b/></x><b/></a></r>");
        let ancs = idx.stream_by_name(&doc, "a");
        let descs = idx.stream_by_name(&doc, "b");
        let ad = stack_tree_join(&doc, ancs, descs, StructRel::AncestorDescendant);
        let pc = stack_tree_join(&doc, ancs, descs, StructRel::ParentChild);
        assert_eq!(ad.len(), 2);
        assert_eq!(pc.len(), 1);
    }

    #[test]
    fn output_sorted_by_descendant() {
        let (doc, idx) = setup(
            "<r><a><a><b/><b/></a><b/></a><a><b/></a></r>",
        );
        let ancs = idx.stream_by_name(&doc, "a");
        let descs = idx.stream_by_name(&doc, "b");
        let got = stack_tree_join(&doc, ancs, descs, StructRel::AncestorDescendant);
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
        let expected = brute(&doc, ancs, descs, StructRel::AncestorDescendant);
        assert_eq!(got.len(), expected.len());
    }

    #[test]
    fn postings_variant_matches_baseline() {
        let (doc, idx) = setup(
            "<r><x/><x/><a><a><b/><x/><b/></a><b/></a><x/><a><b/></a><b/><x/></r>",
        );
        let a = doc.sym("a").unwrap();
        let b = doc.sym("b").unwrap();
        for rel in [StructRel::AncestorDescendant, StructRel::ParentChild] {
            let base = stack_tree_join(&doc, idx.stream(a), idx.stream(b), rel);
            let got = stack_tree_join_postings(&doc, idx.postings(a), idx.postings(b), rel);
            assert_eq!(got, base, "rel {rel:?}");
        }
    }

    #[test]
    fn empty_inputs() {
        let (doc, idx) = setup("<r><a/></r>");
        let ancs = idx.stream_by_name(&doc, "a");
        assert!(stack_tree_join(&doc, ancs, &[], StructRel::AncestorDescendant).is_empty());
        assert!(stack_tree_join(&doc, &[], ancs, StructRel::AncestorDescendant).is_empty());
    }
}
