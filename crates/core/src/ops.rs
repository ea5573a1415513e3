//! Logical operators on sequences of NestedLists (Section 3.3).
//!
//! * **Projection** π and **Selection** σ extend the per-NestedList
//!   operations of [`crate::nestedlist`] to sequences.
//! * **Structural join** reassembles a cut tree edge: the child NoK's
//!   per-anchor matches are attached *under the specific parent item*
//!   they structurally relate to, and parent items left without a
//!   mandatory child are removed (so the combined NestedList represents
//!   exactly the embeddings of the reassembled pattern).
//! * **Theta join** (Example 4) pairs NestedLists from two sequences,
//!   evaluates a crossing predicate on the Dewey projections and emits
//!   the `fill`-combination for every satisfying pair.

use crate::nestedlist::{NestedList, NlNode};
use crate::shape::ShapeId;
use crate::value::{sequences_compare, sequences_deep_equal};
use blossom_flwor::CrossRel;
use blossom_xml::{Dewey, Document, NodeId};
use blossom_xpath::pattern::EdgeMode;

/// π over a sequence: concatenated projections (document order within
/// each NestedList; concatenation order across them).
pub fn project_seq(seq: &[NestedList], dewey: &Dewey) -> Vec<NodeId> {
    seq.iter().flat_map(|nl| nl.project(dewey)).collect()
}

/// π over a sequence by shape position.
pub fn project_seq_shape(seq: &[NestedList], shape: ShapeId) -> Vec<NodeId> {
    seq.iter().flat_map(|nl| nl.project_shape(shape)).collect()
}

/// σ over a sequence: apply the per-NestedList selection, dropping
/// invalidated matches. The position counter is global across the
/// sequence (matching "project, then evaluate the predicate on the
/// projected list").
pub fn select_seq<F>(seq: &[NestedList], dewey: &Dewey, mut keep: F) -> Vec<NestedList>
where
    F: FnMut(usize, NodeId) -> bool,
{
    let mut offset = 0usize;
    let mut out = Vec::new();
    for nl in seq {
        let local_count = nl.project(dewey).len();
        if let Some(kept) = nl.select(dewey, |pos, node| keep(offset + pos, node)) {
            out.push(kept);
        }
        offset += local_count;
    }
    out
}

/// Evaluate a crossing relationship between two projected sequences.
pub fn eval_cross_rel(
    doc: &Document,
    left: &[NodeId],
    rel: CrossRel,
    right: &[NodeId],
) -> bool {
    match rel {
        CrossRel::Before => match (left.first(), right.first()) {
            (Some(&l), Some(&r)) => doc.before(l, r),
            _ => false,
        },
        CrossRel::Value(op) => sequences_compare(doc, left, op, right),
        CrossRel::NotValue(op) => !sequences_compare(doc, left, op, right),
        CrossRel::DeepEqual => sequences_deep_equal(doc, left, right),
        CrossRel::NotDeepEqual => !sequences_deep_equal(doc, left, right),
        // Node identity requires singleton, non-empty operands (XQuery
        // `is` on the empty sequence is the empty sequence → false here).
        CrossRel::Is => match (left.first(), right.first()) {
            (Some(&l), Some(&r)) => l == r,
            _ => false,
        },
        CrossRel::IsNot => match (left.first(), right.first()) {
            (Some(&l), Some(&r)) => l != r,
            _ => false,
        },
    }
}

/// One crossing predicate, addressed by shape positions.
#[derive(Debug, Clone, Copy)]
pub struct CrossPred {
    /// Left shape position.
    pub left: ShapeId,
    /// The relationship.
    pub rel: CrossRel,
    /// Right shape position.
    pub right: ShapeId,
}

/// Theta join (Example 4): for every pair from `left × right` whose
/// projections satisfy all `preds`, emit `fill(l, r)`.
///
/// Projections (and, for value predicates, the trimmed string values)
/// are computed once per input NestedList, not per pair — the pair loop
/// only compares cached data. This is where the BlossomTree plan beats
/// the naive evaluator, which re-navigates the operand paths on every
/// iteration of the nested for-loops.
pub fn theta_join(
    doc: &Document,
    left: &[NestedList],
    right: &[NestedList],
    preds: &[CrossPred],
) -> Vec<NestedList> {
    let oriented: Vec<(CrossPred, bool)> = preds.iter().map(|&p| (p, false)).collect();
    try_theta_join(doc, left, right, &oriented, &|| true).expect("uncancellable join")
}

/// [`theta_join`] with a cooperative cancellation hook. Disconnected
/// FLWOR components join with *no* predicates — a pure Cartesian
/// product that can materialize |left|×|right| NestedLists — so a
/// deadline must be able to fire inside the pair loop, not after it.
/// `keep_going` is polled once per outer row; `false` abandons the join
/// and yields `None`.
///
/// Each predicate comes with its orientation: `true` when its `left`
/// operand belongs to a component of the `right` input (a predicate
/// written right-to-left), so each operand is projected from the
/// NestedList that owns it.
pub fn try_theta_join(
    doc: &Document,
    left: &[NestedList],
    right: &[NestedList],
    preds: &[(CrossPred, bool)],
    keep_going: &dyn Fn() -> bool,
) -> Option<Vec<NestedList>> {
    struct Side {
        /// Per pred: projected nodes of the operand this side owns.
        nodes: Vec<Vec<NodeId>>,
        /// Per pred: trimmed string values (value predicates only).
        values: Vec<Vec<String>>,
    }
    // One serialization buffer reused across every projected value; only
    // the trimmed copy that the cache actually keeps is allocated.
    let mut scratch = String::new();
    let mut project_side = |nl: &NestedList, owns_left: fn(bool) -> bool| -> Side {
        let nodes: Vec<Vec<NodeId>> = preds
            .iter()
            .map(|&(p, flipped)| nl.project_shape(if owns_left(flipped) { p.left } else { p.right }))
            .collect();
        let mut values: Vec<Vec<String>> = Vec::with_capacity(preds.len());
        for ((p, _), ns) in preds.iter().zip(&nodes) {
            match p.rel {
                CrossRel::Value(_) | CrossRel::NotValue(_) => {
                    let mut vs = Vec::with_capacity(ns.len());
                    for &n in ns {
                        scratch.clear();
                        doc.string_value_into(n, &mut scratch);
                        vs.push(scratch.trim().to_string());
                    }
                    values.push(vs);
                }
                _ => values.push(Vec::new()),
            }
        }
        Side { nodes, values }
    };
    let lsides: Vec<Side> = left.iter().map(|l| project_side(l, |flipped| !flipped)).collect();
    let rsides: Vec<Side> = right.iter().map(|r| project_side(r, |flipped| flipped)).collect();

    let mut out = Vec::new();
    for (l, ls) in left.iter().zip(&lsides) {
        // Poll on the outer loop: each pass emits at most |right| rows,
        // so cancellation latency is one row-block.
        if !keep_going() {
            return None;
        }
        for (r, rs) in right.iter().zip(&rsides) {
            let ok = preds.iter().enumerate().all(|(i, &(p, flipped))| {
                // (the predicate's left operand, its right operand)
                let (a, b) = if flipped { (rs, ls) } else { (ls, rs) };
                match p.rel {
                    CrossRel::Value(op) => cached_compare(&a.values[i], op, &b.values[i]),
                    CrossRel::NotValue(op) => !cached_compare(&a.values[i], op, &b.values[i]),
                    rel => eval_cross_rel(doc, &a.nodes[i], rel, &b.nodes[i]),
                }
            });
            if ok {
                if let Some(combined) = l.fill(r) {
                    out.push(combined);
                }
            }
        }
    }
    Some(out)
}

/// Existential comparison over pre-trimmed string values.
fn cached_compare(left: &[String], op: blossom_xpath::CmpOp, right: &[String]) -> bool {
    left.iter()
        .any(|l| right.iter().any(|r| op.eval(crate::value::compare_atomic(l, r))))
}

/// σ with a crossing predicate whose endpoints live in the *same*
/// sequence element: keep NestedLists whose projections satisfy `pred`.
pub fn filter_cross(doc: &Document, seq: Vec<NestedList>, pred: &CrossPred) -> Vec<NestedList> {
    seq.into_iter()
        .filter(|nl| {
            eval_cross_rel(
                doc,
                &nl.project_shape(pred.left),
                pred.rel,
                &nl.project_shape(pred.right),
            )
        })
        .collect()
}

/// A right-side match for the structural join: the child NoK's anchor and
/// the content subtree at the child-root shape position.
#[derive(Debug, Clone)]
pub struct ChildMatch {
    /// The child NoK's anchor node.
    pub anchor: NodeId,
    /// The NlNode at the child root's shape position.
    pub content: NlNode,
}

/// Extract the [`ChildMatch`] of a per-anchor NestedList of the child
/// NoK (walks the placeholder chain down to `child_shape`).
pub fn child_match_of(nl: &NestedList, child_shape: ShapeId) -> Option<ChildMatch> {
    let path = nl.shape.path_to(child_shape);
    let mut items: Vec<&NlNode> = vec![&nl.root];
    for pos in path {
        let mut next = Vec::new();
        for n in items {
            next.extend(n.groups.get(pos).into_iter().flatten());
        }
        items = next;
    }
    let content = items.into_iter().find(|n| n.node.is_some())?;
    Some(ChildMatch { anchor: content.node.unwrap(), content: content.clone() })
}

/// Select, from a document-ordered candidate list, the matches that fall
/// under parent item `p` along `axis`. Both global axes select a
/// contiguous anchor range — descendants are `(p, last_descendant(p)]`
/// (subtree contiguity), `following` is everything past the subtree — so
/// this is two binary searches plus the output copy.
pub fn attach_window(
    doc: &Document,
    matches: &[ChildMatch],
    axis: blossom_xml::Axis,
    p: NodeId,
) -> Vec<NlNode> {
    debug_assert!(matches.windows(2).all(|w| w[0].anchor <= w[1].anchor));
    let end = doc.last_descendant(p).0;
    match axis {
        blossom_xml::Axis::Descendant => {
            let lo = matches.partition_point(|m| m.anchor.0 <= p.0);
            let hi = matches.partition_point(|m| m.anchor.0 <= end);
            matches[lo..hi].iter().map(|m| m.content.clone()).collect()
        }
        blossom_xml::Axis::Following => {
            let lo = matches.partition_point(|m| m.anchor.0 <= end);
            matches[lo..].iter().map(|m| m.content.clone()).collect()
        }
        blossom_xml::Axis::Preceding => {
            let hi = matches.partition_point(|m| m.anchor.0 < p.0);
            matches[..hi]
                .iter()
                .filter(|m| doc.last_descendant(m.anchor).0 < p.0)
                .map(|m| m.content.clone())
                .collect()
        }
        _ => unreachable!("cut edges carry global axes"),
    }
}

/// Structural (grouping) join for one cut edge: attach child matches
/// under the parent items they relate to; remove parent items without a
/// mandatory child match; drop NestedLists whose removal cascades to the
/// root.
///
/// `attach_for` receives a parent item's node and returns the content
/// nodes to attach under it (see [`attach_window`] for the
/// materialized-candidate flavour; the bounded nested loop rescans the
/// inner NoK in the `(p1, p2)` range instead).
pub fn structural_join<F>(
    left: Vec<NestedList>,
    parent_shape: ShapeId,
    child_shape: ShapeId,
    mode: EdgeMode,
    mut attach_for: F,
) -> Vec<NestedList>
where
    F: FnMut(NodeId) -> Vec<NlNode>,
{
    let mut out = Vec::new();
    'next_left: for nl in left {
        let shape = nl.shape.clone();
        // Position of the child shape among the parent's shape children.
        let child_pos = shape
            .node(parent_shape)
            .children
            .iter()
            .position(|&c| c == child_shape)
            .expect("cut child's shape parent is the cut parent");
        let path = shape.path_to(parent_shape);
        let mandatory = mode == EdgeMode::Mandatory;
        // Rebuild the tree, filtering parent items.
        fn rebuild<F2>(
            node: &NlNode,
            depth: usize,
            path: &[usize],
            child_pos: usize,
            mandatory: bool,
            candidates_for: &mut F2,
        ) -> Option<NlNode>
        where
            F2: FnMut(NodeId) -> Vec<NlNode>,
        {
            if depth == path.len() {
                // This IS a parent item: attach children.
                let mut rebuilt = node.clone();
                if let Some(p) = node.node {
                    let attached = candidates_for(p);
                    if attached.is_empty() && mandatory {
                        return None;
                    }
                    rebuilt.groups[child_pos] = attached;
                }
                return Some(rebuilt);
            }
            let pos = path[depth];
            let mut rebuilt = node.clone();
            let group = &node.groups[pos];
            let was_covered = !group.is_empty();
            let new_group: Vec<NlNode> = group
                .iter()
                .filter_map(|item| {
                    rebuild(item, depth + 1, path, child_pos, mandatory, candidates_for)
                })
                .collect();
            // A fully-emptied group on the path to the parent items kills
            // this item; placeholder chains propagate the failure upward.
            if was_covered && new_group.is_empty() {
                return None;
            }
            rebuilt.groups[pos] = new_group;
            Some(rebuilt)
        }
        let rebuilt = rebuild(
            &nl.root,
            0,
            &path,
            child_pos,
            mandatory,
            &mut attach_for,
        );
        match rebuilt {
            Some(root) => out.push(NestedList { shape, root }),
            None => continue 'next_left,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::Decomposition;
    use crate::nok::NokMatcher;
    use blossom_flwor::BlossomTree;
    use blossom_xml::Document;
    use blossom_xpath::parse_path;

    fn dec(path: &str) -> Decomposition {
        Decomposition::decompose(&BlossomTree::from_path(&parse_path(path).unwrap()).unwrap())
    }

    #[test]
    fn project_and_select_over_sequences() {
        let doc = Document::parse_str("<r><a><b>1</b></a><a><b>2</b><b>3</b></a></r>").unwrap();
        let d = dec("//a/b");
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let seq = m.scan();
        assert_eq!(seq.len(), 2);
        let dewey: Dewey = "1.1".parse().unwrap();
        let all_b = project_seq(&seq, &dewey);
        assert_eq!(all_b.len(), 3);
        // Global positional selection: keep only the 2nd b overall.
        let kept = select_seq(&seq, &dewey, |pos, _| pos == 2);
        let remaining = project_seq(&kept, &dewey);
        assert_eq!(remaining, vec![all_b[1]]);
        // The first NestedList died entirely (its only b removed).
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn structural_join_attaches_under_right_parent() {
        // //a/b[//c] — NoK1 = a/b, NoK2 = c under cut edge b//c.
        let doc = Document::parse_str(
            "<r><a><b><x><c/></x><c/></b><b/><b><c/></b></a></r>",
        )
        .unwrap();
        let d = dec("//a/b[//c]");
        assert_eq!(d.noks.len(), 2);
        let cut = &d.cut_edges[0];
        let parent_shape = d.noks[cut.parent_nok].shape_of[cut.parent_node.index()].unwrap();
        let child_root = d.noks[cut.child_nok].root();
        let child_shape = d.noks[cut.child_nok].shape_of[child_root.index()].unwrap();

        let m1 = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let m2 = NokMatcher::new(&doc, &d.noks[1], d.shape.clone(), None);
        let left = m1.scan();
        let right = m2.scan();
        assert_eq!(left.len(), 1, "one a anchor");
        assert_eq!(right.len(), 3, "three c matches");
        let right_matches: Vec<ChildMatch> =
            right.iter().filter_map(|nl| child_match_of(nl, child_shape)).collect();
        assert_eq!(right_matches.len(), 3);

        let joined = structural_join(left, parent_shape, child_shape, cut.mode, |p| {
            attach_window(&doc, &right_matches, cut.axis, p)
        });
        assert_eq!(joined.len(), 1);
        // b2 (no c) was removed; b1 kept 2 c's, b3 kept 1.
        let bs = joined[0].project_shape(parent_shape);
        assert_eq!(bs.len(), 2);
        let cs = joined[0].project_shape(child_shape);
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn structural_join_drops_invalid_lefts() {
        let doc = Document::parse_str("<r><a><b/></a><a><b><c/></b></a></r>").unwrap();
        let d = dec("//a/b[//c]");
        let cut = &d.cut_edges[0];
        let parent_shape = d.noks[cut.parent_nok].shape_of[cut.parent_node.index()].unwrap();
        let child_root = d.noks[cut.child_nok].root();
        let child_shape = d.noks[cut.child_nok].shape_of[child_root.index()].unwrap();
        let m1 = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let m2 = NokMatcher::new(&doc, &d.noks[1], d.shape.clone(), None);
        let left = m1.scan();
        assert_eq!(left.len(), 2);
        let right: Vec<ChildMatch> =
            m2.scan().iter().filter_map(|nl| child_match_of(nl, child_shape)).collect();
        let joined = structural_join(left, parent_shape, child_shape, cut.mode, |p| {
            attach_window(&doc, &right, cut.axis, p)
        });
        // First a has no c anywhere -> dropped.
        assert_eq!(joined.len(), 1);
    }

    #[test]
    fn optional_cut_edge_keeps_parents() {
        let doc = Document::parse_str("<r><a><b/></a></r>").unwrap();
        let d = dec("//a/b[//c]");
        let cut = &d.cut_edges[0];
        let parent_shape = d.noks[cut.parent_nok].shape_of[cut.parent_node.index()].unwrap();
        let child_root = d.noks[cut.child_nok].root();
        let child_shape = d.noks[cut.child_nok].shape_of[child_root.index()].unwrap();
        let m1 = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let left = m1.scan();
        let joined = structural_join(
            left.clone(),
            parent_shape,
            child_shape,
            EdgeMode::Optional,
            |_| Vec::new(),
        );
        assert_eq!(joined.len(), 1, "optional edge: parent survives without child");
        let strict = structural_join(
            left,
            parent_shape,
            child_shape,
            EdgeMode::Mandatory,
            |_| Vec::new(),
        );
        assert!(strict.is_empty());
    }

    #[test]
    fn theta_join_example4_shape() {
        // Two independent NoKs over books; join on value inequality of
        // titles (a simplified Example 4).
        let doc = Document::parse_str(
            "<bib><book><title>X</title></book><book><title>X</title></book><book><title>Y</title></book></bib>",
        )
        .unwrap();
        use blossom_flwor::{parse_query, Expr};
        let q = parse_query(
            r#"for $b1 in //book, $b2 in //book
               where $b1 << $b2 and not($b1/title = $b2/title)
               return <p>{$b1/title}{$b2/title}</p>"#,
        )
        .unwrap();
        let f = match q {
            Expr::Flwor(f) => *f,
            other => panic!("unexpected {other:?}"),
        };
        let d = Decomposition::decompose(&BlossomTree::from_flwor(&f).unwrap());
        assert_eq!(d.noks.len(), 2);
        let m1 = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let m2 = NokMatcher::new(&doc, &d.noks[1], d.shape.clone(), None);
        let left = m1.scan();
        let right = m2.scan();
        assert_eq!(left.len(), 3);
        let preds: Vec<CrossPred> = d
            .crossing
            .iter()
            .map(|c| CrossPred { left: c.left.1, rel: c.rel, right: c.right.1 })
            .collect();
        let joined = theta_join(&doc, &left, &right, &preds);
        // Pairs (i<j, different titles): (1,3) and (2,3).
        assert_eq!(joined.len(), 2);
        for nl in &joined {
            let b1 = nl.project_shape(d.crossing[0].left.1);
            let b2 = nl.project_shape(d.crossing[0].right.1);
            assert_eq!(b1.len(), 1);
            assert_eq!(b2.len(), 1);
            assert!(doc.before(b1[0], b2[0]));
        }
    }

    #[test]
    fn eval_cross_rels() {
        let doc = Document::parse_str(
            "<r><a>1</a><a>2</a><b>2</b><c><d/></c><c><d/></c></r>",
        )
        .unwrap();
        let r = doc.root_element().unwrap();
        let kids: Vec<NodeId> = doc.children(r).collect();
        let (a1, a2, b, c1, c2) = (kids[0], kids[1], kids[2], kids[3], kids[4]);
        assert!(eval_cross_rel(&doc, &[a1], CrossRel::Before, &[a2]));
        assert!(!eval_cross_rel(&doc, &[a2], CrossRel::Before, &[a1]));
        assert!(!eval_cross_rel(&doc, &[], CrossRel::Before, &[a1]));
        assert!(eval_cross_rel(
            &doc,
            &[a1, a2],
            CrossRel::Value(blossom_xpath::CmpOp::Eq),
            &[b]
        ));
        assert!(eval_cross_rel(
            &doc,
            &[a1],
            CrossRel::NotValue(blossom_xpath::CmpOp::Eq),
            &[b]
        ));
        assert!(eval_cross_rel(&doc, &[c1], CrossRel::DeepEqual, &[c2]));
        assert!(eval_cross_rel(&doc, &[], CrossRel::DeepEqual, &[]));
        assert!(eval_cross_rel(&doc, &[a1], CrossRel::NotDeepEqual, &[b]));
    }

    #[test]
    fn filter_cross_within_component() {
        let doc =
            Document::parse_str("<r><a><x>1</x><y>1</y></a><a><x>1</x><y>2</y></a></r>")
                .unwrap();
        let d = dec("//a[x][y]");
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let seq = m.scan();
        assert_eq!(seq.len(), 2);
        // Shape only contains `a` (x and y are non-returning constraints),
        // so build a same-sequence predicate over a's own value instead:
        // a == a trivially true; use DeepEqual(a, a).
        let a_shape = d.noks[0].shape_of[d.noks[0].root().index()].unwrap();
        let pred = CrossPred { left: a_shape, rel: CrossRel::DeepEqual, right: a_shape };
        let kept = filter_cross(&doc, seq.clone(), &pred);
        assert_eq!(kept.len(), 2);
        let none = CrossPred { left: a_shape, rel: CrossRel::NotDeepEqual, right: a_shape };
        assert!(filter_cross(&doc, seq, &none).is_empty());
    }
}
