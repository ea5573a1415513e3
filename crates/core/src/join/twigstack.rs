//! Holistic twig join — TwigStack (Bruno, Koudas & Srivastava, SIGMOD
//! 2002), the paper's TS baseline.
//!
//! The matcher consumes, for every pattern node, the document-ordered
//! stream of elements with that tag (from the [`TagIndex`]) and maintains
//! a stack of nested candidate ancestors per pattern node. `get_next`
//! returns the next stream whose head is guaranteed to participate in a
//! root-to-leaf path solution (optimal when all edges are `//`); child
//! (`/`) edges and cross-path consistency are verified in a merge phase.
//!
//! The merge phase here computes, over the path-solution *participants*,
//! which nodes extend downward to full subtree embeddings (`valid`) and
//! upward to the root (`anchored`); the query answer is the set of
//! participants of the output node that satisfy both.

use crate::obs::{Meter, OpCounters};
use crate::value::node_satisfies;
use blossom_xml::fxhash::FxHashSet;
use blossom_xml::index::PostingList;
use blossom_xml::{Axis, Document, NodeId, TagIndex};
use blossom_xpath::ast::NodeTest;
use blossom_xpath::pattern::{PatternNodeId, PatternTree};
use std::fmt;

/// Why a pattern cannot be evaluated by TwigStack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwigError {
    /// `*` has no tag stream.
    Wildcard,
    /// `text()` nodes are not indexed.
    TextTest,
    /// following-sibling edges are outside the twig model.
    SiblingAxis,
    /// Optional (`l`) edges are outside the twig model.
    OptionalEdge,
}

impl fmt::Display for TwigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TwigError::Wildcard => "wildcard node tests are not supported by TwigStack",
            TwigError::TextTest => "text() node tests are not supported by TwigStack",
            TwigError::SiblingAxis => "sibling axes are not supported by TwigStack",
            TwigError::OptionalEdge => "optional (let) edges are not supported by TwigStack",
        };
        f.write_str(s)
    }
}

impl std::error::Error for TwigError {}

const INF: u32 = u32::MAX;

struct Slot {
    /// Original pattern node.
    orig: PatternNodeId,
    parent: Option<usize>,
    children: Vec<usize>,
    /// Axis from the parent slot (Child or Descendant).
    axis: Axis,
    /// Document-ordered candidate stream with inline region labels.
    stream: PostingList,
    cursor: usize,
}

struct StackEntry {
    node: NodeId,
    end: u32,
    /// Top index of the parent slot's stack at push time (usize::MAX = none).
    parent_top: usize,
    marked: bool,
}

/// The TwigStack matcher for one pattern-tree component.
pub struct TwigMatcher<'d> {
    doc: &'d Document,
    slots: Vec<Slot>,
    stacks: Vec<Vec<StackEntry>>,
    /// Per slot: nodes that appeared in some path solution.
    participants: Vec<FxHashSet<NodeId>>,
    /// Work counters ([`crate::obs`]); off by default.
    meter: Meter,
}

impl<'d> TwigMatcher<'d> {
    /// Build the matcher for the component of `pattern` rooted at
    /// `component_root` (a child of the virtual root). `root_axis` is the
    /// axis from the document root (`/` restricts the root stream to
    /// depth-1 elements).
    pub fn new(
        doc: &'d Document,
        index: &TagIndex,
        pattern: &PatternTree,
        component_root: PatternNodeId,
        root_axis: Axis,
    ) -> Result<Self, TwigError> {
        let mut slots: Vec<Slot> = Vec::new();
        // DFS flatten, skipping attribute children (they prefilter their
        // parent's stream instead).
        fn flatten(
            doc: &Document,
            index: &TagIndex,
            pattern: &PatternTree,
            node: PatternNodeId,
            parent: Option<usize>,
            axis: Axis,
            slots: &mut Vec<Slot>,
        ) -> Result<usize, TwigError> {
            let pn = pattern.node(node);
            if pn.mode == blossom_xpath::pattern::EdgeMode::Optional {
                return Err(TwigError::OptionalEdge);
            }
            let name = match &pn.test {
                NodeTest::Name(n) => n.clone(),
                NodeTest::Wildcard => return Err(TwigError::Wildcard),
                NodeTest::Text => return Err(TwigError::TextTest),
                NodeTest::Attribute(_) => unreachable!("filtered by the caller"),
            };
            // The stack encoding covers exactly the two vertical
            // relationships; every other axis (both sibling directions,
            // self, following, preceding) must be rejected, not silently
            // evaluated as parent-child.
            if !matches!(axis, Axis::Child | Axis::Descendant) {
                return Err(TwigError::SiblingAxis);
            }
            // Stream: tag postings filtered by value tests and attribute
            // constraints.
            let base: Vec<NodeId> = index.stream_by_name(doc, &name).to_vec();
            let mut stream: Vec<NodeId> = base
                .into_iter()
                .filter(|&n| match &pn.value {
                    Some(test) => node_satisfies(doc, n, test),
                    None => true,
                })
                .collect();
            for &c in &pn.children {
                let cn = pattern.node(c);
                if let NodeTest::Attribute(attr) = &cn.test {
                    stream.retain(|&n| match doc.attribute(n, attr) {
                        Some(v) => match &cn.value {
                            Some(t) => {
                                crate::value::node_vs_literal_str(v, t.op, &t.literal)
                            }
                            None => true,
                        },
                        None => false,
                    });
                }
            }
            let idx = slots.len();
            slots.push(Slot {
                orig: node,
                parent,
                children: Vec::new(),
                axis,
                stream: PostingList::from_nodes(doc, stream),
                cursor: 0,
            });
            for &c in &pn.children {
                let cn = pattern.node(c);
                if matches!(cn.test, NodeTest::Attribute(_)) {
                    continue;
                }
                let ci = flatten(doc, index, pattern, c, Some(idx), cn.axis, slots)?;
                slots[idx].children.push(ci);
            }
            Ok(idx)
        }
        flatten(doc, index, pattern, component_root, None, Axis::Descendant, &mut slots)?;
        // Entry-axis restriction for absolute '/' roots: filter on the
        // inline level labels, no arena access needed.
        if root_axis == Axis::Child {
            let root_stream = &slots[0].stream;
            let depth1: Vec<NodeId> = (0..root_stream.len())
                .filter(|&i| root_stream.level(i) == 1)
                .map(|i| root_stream.start(i))
                .collect();
            slots[0].stream = PostingList::from_nodes(doc, depth1);
        }
        let n = slots.len();
        Ok(TwigMatcher {
            doc,
            slots,
            stacks: (0..n).map(|_| Vec::new()).collect(),
            participants: (0..n).map(|_| FxHashSet::default()).collect(),
            meter: Meter::off(),
        })
    }

    /// Turn work counting on or off (see [`crate::obs`]). Counting is off
    /// by default; enable before [`TwigMatcher::run`].
    pub fn enable_meter(&mut self, on: bool) {
        self.meter = Meter::new(on);
    }

    /// Counters accumulated so far: elements advanced one at a time
    /// (`scanned`), stream segments galloped past by the skip-to-end leap
    /// (`skipped`), stack pushes, and path-solution participants
    /// (`matches`).
    pub fn counters(&self) -> OpCounters {
        self.meter.counters()
    }

    fn next_l(&self, q: usize) -> u32 {
        let s = &self.slots[q];
        if s.cursor < s.stream.len() { s.stream.start(s.cursor).0 } else { INF }
    }

    fn advance(&mut self, q: usize) {
        self.slots[q].cursor += 1;
        self.meter.scanned(1);
    }

    fn is_leaf(&self, q: usize) -> bool {
        self.slots[q].children.is_empty()
    }

    /// The getNext function of the TwigStack paper: returns a slot whose
    /// head element is guaranteed extendable to a root-to-leaf path.
    fn get_next(&mut self, q: usize) -> usize {
        if self.is_leaf(q) {
            return q;
        }
        let children = self.slots[q].children.clone();
        let mut n_min = children[0];
        let mut n_max_l = 0u32;
        for &qi in &children {
            let ni = self.get_next(qi);
            // A blocking descendant only matters while its stream is
            // alive; an exhausted subtree must not mask its siblings
            // (their remaining elements still feed path solutions that
            // the merge phase needs).
            if ni != qi && self.next_l(ni) != INF {
                return ni;
            }
            if self.next_l(qi) < self.next_l(n_min) {
                n_min = qi;
            }
            n_max_l = n_max_l.max(self.next_l(qi));
        }
        // Skip q-elements that end before the farthest child head begins
        // (they cannot contain all the children's heads): one leap over
        // whole stream segments via the block max-end summary (the
        // XB-tree skip) instead of testing every element.
        let s = &mut self.slots[q];
        let before = s.cursor;
        s.cursor = s.stream.skip_to_end(s.cursor, n_max_l);
        let leapt = (s.cursor - before) as u64;
        self.meter.skipped(leapt);
        if self.next_l(q) < self.next_l(n_min) {
            q
        } else {
            n_min
        }
    }

    fn clean_stack(&mut self, q: usize, next_l: u32) {
        while let Some(top) = self.stacks[q].last() {
            if top.end < next_l {
                self.stacks[q].pop();
            } else {
                break;
            }
        }
    }

    /// Mark the path solutions ending at the top entry of leaf `q`.
    fn mark_solutions(&mut self, q: usize) {
        let top = self.stacks[q].len() - 1;
        self.mark_entry(q, top);
    }

    fn mark_entry(&mut self, q: usize, idx: usize) {
        if self.stacks[q][idx].marked {
            return;
        }
        self.stacks[q][idx].marked = true;
        let node = self.stacks[q][idx].node;
        self.participants[q].insert(node);
        self.meter.matches(1);
        if let (Some(p), parent_top) = (self.slots[q].parent, self.stacks[q][idx].parent_top) {
            if parent_top != usize::MAX {
                for i in 0..=parent_top {
                    self.mark_entry(p, i);
                }
            }
        }
    }

    /// Run the stack phase to completion, collecting path-solution
    /// participants.
    pub fn run(&mut self) {
        let root = 0usize;
        loop {
            let q = self.get_next(root);
            if self.next_l(q) == INF {
                break; // some required stream is exhausted
            }
            let l = self.next_l(q);
            if let Some(p) = self.slots[q].parent {
                self.clean_stack(p, l);
            }
            let parent_ok = match self.slots[q].parent {
                None => true,
                Some(p) => !self.stacks[p].is_empty(),
            };
            if parent_ok {
                self.clean_stack(q, l);
                let cursor = self.slots[q].cursor;
                let node = self.slots[q].stream.start(cursor);
                let end = self.slots[q].stream.end(cursor);
                let parent_top = match self.slots[q].parent {
                    None => usize::MAX,
                    Some(p) => self.stacks[p].len() - 1,
                };
                self.stacks[q].push(StackEntry {
                    node,
                    end,
                    parent_top,
                    marked: false,
                });
                self.meter.pushes(1);
                if self.is_leaf(q) {
                    self.mark_solutions(q);
                    self.stacks[q].pop();
                }
            }
            self.advance(q);
        }
    }

    /// Merge phase: filter participants to those on at least one full twig
    /// embedding and return the matches of `target` (a pattern node id of
    /// the original pattern), in document order.
    pub fn solution_nodes(&self, target: PatternNodeId) -> Vec<NodeId> {
        let slot = self
            .slots
            .iter()
            .position(|s| s.orig == target)
            .expect("target belongs to this component");
        // Sorted participant lists.
        let parts: Vec<Vec<NodeId>> = self
            .participants
            .iter()
            .map(|set| {
                let mut v: Vec<NodeId> = set.iter().copied().collect();
                v.sort_unstable();
                v
            })
            .collect();
        // valid(q, n): the subtree below q embeds under n.
        let mut valid: Vec<FxHashSet<NodeId>> = vec![FxHashSet::default(); self.slots.len()];
        // Process slots bottom-up (children have larger indices in DFS
        // order... not guaranteed; iterate in reverse DFS which is safe
        // because flatten assigns parents before children).
        for q in (0..self.slots.len()).rev() {
            for &n in &parts[q] {
                let ok = self.slots[q].children.iter().all(|&c| {
                    if self.slots[c].axis == Axis::Child {
                        // Direct children only: walk them instead of the
                        // candidate range.
                        self.doc.children(n).any(|m| valid[c].contains(&m))
                    } else {
                        let lo = n.0;
                        let hi = self.doc.last_descendant(n).0;
                        let list = &parts[c];
                        let from = list.partition_point(|&m| m.0 <= lo);
                        list[from..]
                            .iter()
                            .take_while(|&&m| m.0 <= hi)
                            .any(|&m| valid[c].contains(&m))
                    }
                });
                if ok {
                    valid[q].insert(n);
                }
            }
        }
        // anchored(q, n): an embedding chain reaches the root. Ancestors
        // are found by walking n's parent chain (O(depth)) against the
        // parent slot's anchored set, never by scanning the whole set.
        let mut anchored: Vec<FxHashSet<NodeId>> =
            vec![FxHashSet::default(); self.slots.len()];
        for q in 0..self.slots.len() {
            match self.slots[q].parent {
                None => {
                    for &n in &parts[q] {
                        if valid[q].contains(&n) {
                            anchored[q].insert(n);
                        }
                    }
                }
                Some(p) => {
                    for &n in &parts[q] {
                        if !valid[q].contains(&n) {
                            continue;
                        }
                        let has_parent = if self.slots[q].axis == Axis::Child {
                            self.doc
                                .parent(n)
                                .map(|pa| anchored[p].contains(&pa))
                                .unwrap_or(false)
                        } else {
                            self.doc.ancestors(n).any(|a| anchored[p].contains(&a))
                        };
                        if has_parent {
                            anchored[q].insert(n);
                        }
                    }
                }
            }
        }
        let mut out: Vec<NodeId> = anchored[slot].iter().copied().collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::navigational;
    use blossom_flwor::BlossomTree;
    use blossom_xpath::parse_path;

    /// Evaluate a path query with TwigStack end-to-end.
    fn ts_eval(doc: &Document, query: &str) -> Vec<NodeId> {
        let path = parse_path(query).unwrap();
        let bt = BlossomTree::from_path(&path).unwrap();
        let index = TagIndex::build(doc);
        let root = bt.pattern.node(blossom_xpath::PatternNodeId::ROOT).children[0];
        let root_axis = bt.pattern.node(root).axis;
        let mut tm =
            TwigMatcher::new(doc, &index, &bt.pattern, root, root_axis).unwrap();
        tm.run();
        tm.solution_nodes(bt.returning[0])
    }

    fn check(xml: &str, query: &str) {
        let doc = Document::parse_str(xml).unwrap();
        let got = ts_eval(&doc, query);
        let want = navigational::eval_str(&doc, query).unwrap();
        assert_eq!(got, want, "query {query} on {xml}");
    }

    #[test]
    fn simple_descendant_chain() {
        check("<r><a><b><c/></b></a><a><c/></a></r>", "//a//c");
        check("<r><a><b><c/></b></a><a><c/></a></r>", "//a//b//c");
    }

    #[test]
    fn branching_twigs() {
        check(
            "<r><a><b/><c/></a><a><b/></a><a><c/></a></r>",
            "//a[//b][//c]",
        );
        check(
            "<r><a><x><b/></x><y><c/><d/></y></a><a><b/><c/></a></r>",
            "//a[//b][//c]//d",
        );
    }

    #[test]
    fn child_edges_post_filtered() {
        check("<r><a><b/></a><a><x><b/></x></a></r>", "//a/b");
        check(
            "<r><a><b><c/></b></a><a><b/><c/></a></r>",
            "//a/b/c",
        );
        check(
            "<r><a><b><x><c/></x></b></a></r>",
            "//a/b//c",
        );
    }

    #[test]
    fn recursive_documents() {
        let xml = "<a><b/><a><b/><a><b/></a></a></a>";
        check(xml, "//a//b");
        check(xml, "//a/b");
        check(xml, "//a//a//b");
        check(xml, "//a[//a]//b");
    }

    #[test]
    fn value_filtered_streams() {
        check(
            r#"<bib><book><author>Smith</author><title>X</title></book><book><author>Jones</author><title>Y</title></book></bib>"#,
            r#"//book[//author = "Smith"]//title"#,
        );
    }

    #[test]
    fn attribute_filtered_streams() {
        check(
            r#"<r><a k="1"><b/></a><a k="2"><b/></a><a><b/></a></r>"#,
            r#"//a[@k = "2"]//b"#,
        );
    }

    #[test]
    fn absolute_root_restriction() {
        check("<a><x/><a><x/></a></a>", "/a/x");
        check("<a><x/><a><x/></a></a>", "/a//x");
    }

    #[test]
    fn no_matches() {
        check("<r><a/></r>", "//a//zzz");
        check("<r><a/></r>", "//zzz//a");
    }

    #[test]
    fn unsupported_constructs_error() {
        let doc = Document::parse_str("<r><a/></r>").unwrap();
        let index = TagIndex::build(&doc);
        for (q, err) in [
            ("//a/*", TwigError::Wildcard),
            ("//a/text()", TwigError::TextTest),
        ] {
            let bt = BlossomTree::from_path(&parse_path(q).unwrap()).unwrap();
            let root = bt.pattern.node(blossom_xpath::PatternNodeId::ROOT).children[0];
            let got =
                TwigMatcher::new(&doc, &index, &bt.pattern, root, Axis::Descendant)
                    .err()
                    .unwrap();
            assert_eq!(got, err, "query {q}");
        }
    }

    #[test]
    fn deep_query_on_deep_doc() {
        // Treebank-style nesting.
        let xml = "<S><VP><NP><VP><PP><NP><NN/></NP></PP></VP></NP></VP></S>";
        check(xml, "//VP//NP//NN");
        check(xml, "//VP[//PP]//NN");
        check(xml, "//VP/NP");
    }
}

#[cfg(test)]
mod exhaustion_regression {
    use super::*;
    use crate::navigational;
    use blossom_flwor::BlossomTree;
    use blossom_xpath::parse_path;

    /// Regression (found by proptest): when one predicate branch's stream
    /// exhausts first, the sibling branch's remaining elements must still
    /// be consumed or the merge phase loses their path solutions.
    #[test]
    fn exhausted_branch_does_not_mask_siblings() {
        let doc = Document::parse_str("<r><a><b><c/><d/></b></a></r>").unwrap();
        let index = TagIndex::build(&doc);
        for query in ["//a[//d]/b[//c]", "//a[//d][//c]", "//a[//c]/b[//d]"] {
            let path = parse_path(query).unwrap();
            let bt = BlossomTree::from_path(&path).unwrap();
            let root = bt.pattern.node(blossom_xpath::PatternNodeId::ROOT).children[0];
            let mut tm = TwigMatcher::new(
                &doc,
                &index,
                &bt.pattern,
                root,
                bt.pattern.node(root).axis,
            )
            .unwrap();
            tm.run();
            let got = tm.solution_nodes(bt.returning[0]);
            let want = navigational::eval_str(&doc, query).unwrap();
            assert_eq!(got, want, "query {query}");
        }
    }
}
