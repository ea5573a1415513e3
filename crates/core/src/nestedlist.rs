//! The NestedList abstract data type (Definition 2, Section 3.2).
//!
//! A NestedList is a nested-list representation of an ordered tree,
//! leveraged by the grouping notation `[...]`: `()` nests, `[]` groups
//! the multiple matches of one pattern node under the same parent match,
//! and empty positions are placeholders — either an optional node that
//! matched nothing, or a part of the global returning tree produced by a
//! *different* NoK operator and to be filled in by a join (Example 4).
//!
//! One `NestedList` value is one match of (part of) the returning tree.
//! Operators over sequences of NestedLists live in [`crate::ops`].

use crate::shape::{Shape, ShapeId};
use blossom_xml::{Dewey, NodeId};
use std::fmt;
use std::sync::Arc;

/// One node of a NestedList. The `groups` vector is parallel to the
/// corresponding shape node's `children`.
#[derive(Debug, Clone, PartialEq)]
pub struct NlNode {
    /// The matched document node, or `None` for a placeholder.
    pub node: Option<NodeId>,
    /// Per shape child: the group (`[...]`) of matches under this node.
    pub groups: Vec<Vec<NlNode>>,
}

impl NlNode {
    /// A placeholder with the group arity of `shape_id`.
    pub fn placeholder(shape: &Shape, shape_id: ShapeId) -> NlNode {
        NlNode {
            node: None,
            groups: vec![Vec::new(); shape.node(shape_id).children.len()],
        }
    }

    /// A leaf-style match of `node` with empty groups per the shape.
    pub fn leaf(shape: &Shape, shape_id: ShapeId, node: NodeId) -> NlNode {
        NlNode {
            node: Some(node),
            groups: vec![Vec::new(); shape.node(shape_id).children.len()],
        }
    }

    /// Is this node (and everything below) placeholder-only?
    pub fn is_placeholder(&self) -> bool {
        self.node.is_none() && self.groups.iter().all(|g| g.iter().all(NlNode::is_placeholder))
    }
}

/// One match of the returning tree: the root is the artificial super-root
/// (Dewey `1`), which never binds a document node itself.
#[derive(Debug, Clone, PartialEq)]
pub struct NestedList {
    /// The shared returning-tree shape.
    pub shape: Arc<Shape>,
    /// The artificial root's match (its `node` is always `None`).
    pub root: NlNode,
}

impl NestedList {
    /// An all-placeholder NestedList.
    pub fn empty(shape: Arc<Shape>) -> NestedList {
        let root = NlNode::placeholder(&shape, 0);
        NestedList { shape, root }
    }

    /// Project (π) on a Dewey ID: unnest to that level and return the
    /// concatenation of matched nodes, skipping placeholders.
    pub fn project(&self, dewey: &Dewey) -> Vec<NodeId> {
        match self.shape.by_dewey(dewey) {
            Some(id) => self.project_shape(id),
            None => Vec::new(),
        }
    }

    /// Project on a shape node id.
    pub fn project_shape(&self, id: ShapeId) -> Vec<NodeId> {
        let path = self.shape.path_to(id);
        let mut current: Vec<&NlNode> = vec![&self.root];
        for pos in path {
            let mut next = Vec::new();
            for n in current {
                if let Some(group) = n.groups.get(pos) {
                    next.extend(group.iter());
                }
            }
            current = next;
        }
        current.iter().filter_map(|n| n.node).collect()
    }

    /// All `NlNode`s at a shape position (placeholders included), with
    /// mutable access — used by selection to remove items in place.
    fn nodes_at_mut(&mut self, id: ShapeId) -> Vec<*mut Vec<NlNode>> {
        // Collect raw pointers to the parent groups holding position `id`;
        // done with an explicit stack to satisfy the borrow checker.
        let path = self.shape.path_to(id);
        if path.is_empty() {
            return Vec::new();
        }
        let (&last, prefix) = path.split_last().unwrap();
        let mut current: Vec<*mut NlNode> = vec![&mut self.root as *mut NlNode];
        for &pos in prefix {
            let mut next = Vec::new();
            for n in current {
                // SAFETY: pointers derived from distinct subtrees of a tree
                // we exclusively borrow; no aliasing.
                let n = unsafe { &mut *n };
                if let Some(group) = n.groups.get_mut(pos) {
                    for child in group.iter_mut() {
                        next.push(child as *mut NlNode);
                    }
                }
            }
            current = next;
        }
        current
            .into_iter()
            .filter_map(|n| {
                // SAFETY: every pointer in `current` was taken from a
                // distinct node of the tree `self` exclusively borrows, and
                // no `Vec` on the way down was resized since, so each is
                // valid and this is the only live reference to its node.
                let n = unsafe { &mut *n };
                n.groups.get_mut(last).map(|g| g as *mut Vec<NlNode>)
            })
            .collect()
    }

    /// Selection (σ): keep only items at `dewey` for which `keep` returns
    /// true (`keep` receives the 1-based position within the projected
    /// list and the node). Returns `None` when the removal invalidates the
    /// match (a mandatory position under a still-present parent becomes
    /// empty).
    pub fn select<F>(&self, dewey: &Dewey, mut keep: F) -> Option<NestedList>
    where
        F: FnMut(usize, NodeId) -> bool,
    {
        let id = self.shape.by_dewey(dewey)?;
        let mut out = self.clone();
        let mut position = 0usize;
        for group_ptr in out.nodes_at_mut(id) {
            // SAFETY: disjoint groups collected under exclusive borrow.
            let group = unsafe { &mut *group_ptr };
            let was_covered = !group.is_empty();
            group.retain(|item| match item.node {
                Some(node) => {
                    position += 1;
                    keep(position, node)
                }
                None => true,
            });
            if was_covered && group.is_empty() {
                // Distinguish "emptied by selection" from "never covered by
                // this NoK": leave a placeholder so validation sees the hole.
                group.push(NlNode::placeholder(&out.shape, id));
            }
        }
        if out.validate(0) {
            Some(out)
        } else {
            None
        }
    }

    /// Paper validity check: under every present (non-placeholder) match,
    /// every *mandatory* child position that this NestedList covers must
    /// be non-empty. Positions belonging to other NoKs (all-placeholder
    /// subtrees) are exempt — they are filled by joins later.
    fn validate(&self, _root: ShapeId) -> bool {
        fn rec(shape: &Shape, shape_id: ShapeId, node: &NlNode) -> bool {
            let sn = shape.node(shape_id);
            for (pos, &child_id) in sn.children.iter().enumerate() {
                let child_shape = shape.node(child_id);
                let group = &node.groups[pos];
                let present = group.iter().any(|n| n.node.is_some());
                if !present {
                    // Empty group: fine when optional, a placeholder
                    // region, or the parent itself is a placeholder.
                    continue;
                }
                if !group.iter().all(|n| match n.node {
                    Some(_) => rec(shape, child_id, n),
                    None => true,
                }) {
                    return false;
                }
                let _ = child_shape;
            }
            // Check mandatory children of *present* nodes only (the
            // artificial root counts as present).
            if node.node.is_some() || shape_id == 0 {
                for (pos, &child_id) in sn.children.iter().enumerate() {
                    let child_shape = shape.node(child_id);
                    if child_shape.optional {
                        continue;
                    }
                    let group = &node.groups[pos];
                    let covered = !group.is_empty();
                    let present = group.iter().any(|n| n.node.is_some());
                    if covered && !present {
                        return false;
                    }
                }
            }
            true
        }
        rec(&self.shape, 0, &self.root)
    }

    /// Join-fill (Example 4): combine two NestedLists over the same shape.
    ///
    /// Each NoK covers a connected region of the shape, so along the path
    /// the two inputs share (their anchor chains) both sides carry exactly
    /// one item per group and the items merge pairwise; where the regions
    /// diverge, one side is uncovered (empty group) and the other side's
    /// content is taken. Returns `None` when both sides bind the same
    /// position to different nodes (ill-formed combination).
    pub fn fill(&self, other: &NestedList) -> Option<NestedList> {
        fn merge(a: &NlNode, b: &NlNode) -> Option<NlNode> {
            let node = match (a.node, b.node) {
                (Some(x), Some(y)) if x == y => Some(x),
                (Some(_), Some(_)) => return None,
                (x, y) => x.or(y),
            };
            debug_assert_eq!(a.groups.len(), b.groups.len());
            let mut groups = Vec::with_capacity(a.groups.len());
            for (ga, gb) in a.groups.iter().zip(&b.groups) {
                let merged: Vec<NlNode> = if ga.is_empty() {
                    gb.clone()
                } else if gb.is_empty() {
                    ga.clone()
                } else if ga.len() == gb.len() {
                    ga.iter()
                        .zip(gb)
                        .map(|(x, y)| merge(x, y))
                        .collect::<Option<Vec<_>>>()?
                } else if ga.iter().all(NlNode::is_placeholder) {
                    gb.clone()
                } else if gb.iter().all(NlNode::is_placeholder) {
                    ga.clone()
                } else {
                    return None;
                };
                groups.push(merged);
            }
            Some(NlNode { node, groups })
        }
        debug_assert!(Arc::ptr_eq(&self.shape, &other.shape) || self.shape == other.shape);
        let root = merge(&self.root, &other.root)?;
        Some(NestedList { shape: self.shape.clone(), root })
    }
}

impl fmt::Display for NestedList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_node(f, &self.root, true)
    }
}

fn write_node(f: &mut fmt::Formatter<'_>, n: &NlNode, is_root: bool) -> fmt::Result {
    f.write_str("(")?;
    let mut wrote = false;
    if !is_root {
        if let Some(id) = n.node {
            write!(f, "{id}")?;
            wrote = true;
        }
    }
    for group in &n.groups {
        if wrote {
            f.write_str(",")?;
        }
        wrote = true;
        if group.is_empty() {
            // An uncovered/optional position renders as the empty sequence.
            f.write_str("()")?;
        } else if group.len() == 1 {
            write_node(f, &group[0], false)?;
        } else {
            f.write_str("[")?;
            for (i, item) in group.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write_node(f, item, false)?;
            }
            f.write_str("]")?;
        }
    }
    f.write_str(")")
}

#[cfg(test)]
mod tests {
    use super::*;
    use blossom_flwor::BlossomTree;
    use blossom_xpath::parse_path;

    /// Shape of Figure 3(a): a with children b and c, b with child d, all
    /// returning. Build it from an equivalent FLWOR-ish blossom: easiest
    /// is from_path with explicit marking.
    fn fig3_shape() -> Arc<Shape> {
        // //a[b[d]][c] with every node returning.
        let path = parse_path("//a[b[d]][c]").unwrap();
        let mut bt = BlossomTree::from_path(&path).unwrap();
        for id in bt.pattern.ids().skip(1) {
            bt.pattern.set_returning(id, true);
        }
        // Recompute deweys after marking (from_path assigned them before).
        let bt = reassigned(bt);
        Shape::from_blossom(&bt)
    }

    fn reassigned(bt: BlossomTree) -> BlossomTree {
        // Round-trip through the public constructor logic: rebuild dewey
        // assignment by re-running from scratch on the same pattern.
        // (Test-only helper: emulate what BlossomTree::from_flwor does.)
        let mut returning = Vec::new();
        let mut deweys = Vec::new();
        fn rec(
            pattern: &blossom_xpath::PatternTree,
            node: blossom_xpath::PatternNodeId,
            parent: &Dewey,
            next: &mut u32,
            returning: &mut Vec<blossom_xpath::PatternNodeId>,
            deweys: &mut Vec<Dewey>,
        ) {
            let n = pattern.node(node);
            if n.returning {
                let d = parent.child(*next);
                *next += 1;
                returning.push(node);
                deweys.push(d.clone());
                let mut inner = 1u32;
                for &c in &n.children {
                    rec(pattern, c, &d, &mut inner, returning, deweys);
                }
            } else {
                for &c in &n.children {
                    rec(pattern, c, parent, next, returning, deweys);
                }
            }
        }
        let root = Dewey::root();
        let mut next = 1;
        for &c in &bt.pattern.node(blossom_xpath::PatternNodeId::ROOT).children {
            rec(&bt.pattern, c, &root, &mut next, &mut returning, &mut deweys);
        }
        BlossomTree { returning, deweys, ..bt }
    }

    fn n(id: u32) -> NodeId {
        NodeId(id)
    }

    /// Construct the NestedList of Figure 4:
    /// (a1,[(b1,()),(b2,[(d1),(d2)]),(b3,(d3))],[(c1),(c2)])
    /// Node ids: a1=1, b1=2, b2=3, d1=4, d2=5, b3=6, d3=7, c1=8, c2=9.
    fn fig4(shape: &Arc<Shape>) -> NestedList {
        let a_id = shape.by_dewey(&"1.1".parse().unwrap()).unwrap();
        let b_id = shape.by_dewey(&"1.1.1".parse().unwrap()).unwrap();
        let d_id = shape.by_dewey(&"1.1.1.1".parse().unwrap()).unwrap();
        let c_id = shape.by_dewey(&"1.1.2".parse().unwrap()).unwrap();
        let mk_d = |id| NlNode::leaf(shape, d_id, n(id));
        let mk_b = |id, ds: Vec<NlNode>| {
            let mut b = NlNode::leaf(shape, b_id, n(id));
            b.groups[0] = ds;
            b
        };
        let mut a = NlNode::leaf(shape, a_id, n(1));
        a.groups[0] = vec![
            mk_b(2, vec![]),
            mk_b(3, vec![mk_d(4), mk_d(5)]),
            mk_b(6, vec![mk_d(7)]),
        ];
        a.groups[1] = vec![NlNode::leaf(shape, c_id, n(8)), NlNode::leaf(shape, c_id, n(9))];
        let mut root = NlNode::placeholder(shape, 0);
        root.groups[0] = vec![a];
        NestedList { shape: shape.clone(), root }
    }

    #[test]
    fn projection_unnests_in_order() {
        let shape = fig3_shape();
        let t = fig4(&shape);
        assert_eq!(t.project(&"1.1".parse().unwrap()), vec![n(1)]);
        // π1.1.1(t) = [b1, b2, b3] (paper's example uses 1.1 for b).
        assert_eq!(t.project(&"1.1.1".parse().unwrap()), vec![n(2), n(3), n(6)]);
        assert_eq!(
            t.project(&"1.1.1.1".parse().unwrap()),
            vec![n(4), n(5), n(7)]
        );
        assert_eq!(t.project(&"1.1.2".parse().unwrap()), vec![n(8), n(9)]);
        assert!(t.project(&"7.7".parse().unwrap()).is_empty());
    }

    #[test]
    fn display_matches_paper_notation() {
        let shape = fig3_shape();
        let t = fig4(&shape);
        assert_eq!(
            t.to_string(),
            "((n1,[(n2,()),(n3,[(n4),(n5)]),(n6,(n7))],[(n8),(n9)]))"
        );
    }

    #[test]
    fn selection_by_position() {
        let shape = fig3_shape();
        let t = fig4(&shape);
        // σ position(b)=2 keeps only b2 (paper: σposition(1.1)=2 = [b2]).
        let selected = t.select(&"1.1.1".parse().unwrap(), |pos, _| pos == 2).unwrap();
        assert_eq!(selected.project(&"1.1.1".parse().unwrap()), vec![n(3)]);
        // b2's d-children survive with it.
        assert_eq!(
            selected.project(&"1.1.1.1".parse().unwrap()),
            vec![n(4), n(5)]
        );
    }

    #[test]
    fn selection_invalidation() {
        let shape = fig3_shape();
        let t = fig4(&shape);
        // Removing every c empties a mandatory position under a present
        // parent -> the whole match is invalid.
        assert!(t.select(&"1.1.2".parse().unwrap(), |_, _| false).is_none());
        // Removing every b likewise.
        assert!(t.select(&"1.1.1".parse().unwrap(), |_, _| false).is_none());
        // Keeping at least one c is fine.
        let kept = t.select(&"1.1.2".parse().unwrap(), |pos, _| pos == 1).unwrap();
        assert_eq!(kept.project(&"1.1.2".parse().unwrap()), vec![n(8)]);
    }

    #[test]
    fn fill_combines_disjoint_halves() {
        let shape = fig3_shape();
        let full = fig4(&shape);
        // Left NoK covers the a+b subtree; its c-group is uncovered.
        let mut left = full.clone();
        left.root.groups[0][0].groups[1].clear();
        // Right NoK covers only the c-group, reached through a placeholder
        // anchor chain (its `a` item carries no node).
        let mut right = NestedList::empty(shape.clone());
        let a_id = shape.by_dewey(&"1.1".parse().unwrap()).unwrap();
        let c_id = shape.by_dewey(&"1.1.2".parse().unwrap()).unwrap();
        let mut a = NlNode::placeholder(&shape, a_id);
        a.groups[1] =
            vec![NlNode::leaf(&shape, c_id, n(8)), NlNode::leaf(&shape, c_id, n(9))];
        right.root.groups[0] = vec![a];
        let joined = left.fill(&right).unwrap();
        assert_eq!(joined, full);
        // fill is symmetric here.
        assert_eq!(right.fill(&left).unwrap(), full);
    }

    #[test]
    fn fill_conflict_is_none() {
        let shape = fig3_shape();
        let t = fig4(&shape);
        let mut other = t.clone();
        other.root.groups[0][0].node = Some(n(99));
        assert!(t.fill(&other).is_none());
    }

    #[test]
    fn placeholder_detection() {
        let shape = fig3_shape();
        let empty = NestedList::empty(shape.clone());
        assert!(empty.root.is_placeholder());
        let t = fig4(&shape);
        assert!(!t.root.is_placeholder());
    }
}
