//! PathStack (Bruno, Koudas & Srivastava, SIGMOD 2002) — the holistic
//! stack join for *chain* (path) patterns that TwigStack generalizes to
//! twigs.
//!
//! For a linear pattern `q1 // q2 // ... // qk`, PathStack merges the k
//! tag streams in one pass, keeping per-node stacks of open candidates;
//! every stream element is pushed at most once, and each path solution is
//! enumerated from the stack chains. For chains, path solutions *are*
//! complete embeddings, so no merge phase is needed (the reason PathStack
//! is suboptimal on branching twigs, which is TwigStack's contribution).

use crate::obs::{Meter, OpCounters};
use crate::value::node_satisfies;
use blossom_xml::fxhash::FxHashSet;
use blossom_xml::index::PostingList;
use blossom_xml::{Axis, Document, NodeId, TagIndex};
use blossom_xpath::ast::NodeTest;
use blossom_xpath::pattern::{PatternNodeId, PatternTree};

use super::twigstack::TwigError;

const INF: u32 = u32::MAX;

struct Slot {
    orig: PatternNodeId,
    /// Axis from the previous chain node.
    axis: Axis,
    /// Document-ordered candidate stream with inline region labels.
    stream: PostingList,
    cursor: usize,
}

struct Entry {
    node: NodeId,
    end: u32,
    /// Stack size of the previous slot at push time.
    parent_top: usize,
    marked: bool,
}

/// PathStack matcher over one chain pattern.
pub struct PathStackMatcher<'d> {
    doc: &'d Document,
    slots: Vec<Slot>,
    stacks: Vec<Vec<Entry>>,
    participants: Vec<FxHashSet<NodeId>>,
    /// Work counters ([`crate::obs`]); off by default.
    meter: Meter,
}

impl<'d> PathStackMatcher<'d> {
    /// Build for the chain rooted at `component_root`. Fails with
    /// [`TwigError`] on non-chain patterns or constructs without tag
    /// streams.
    pub fn new(
        doc: &'d Document,
        index: &TagIndex,
        pattern: &PatternTree,
        component_root: PatternNodeId,
        root_axis: Axis,
    ) -> Result<Self, TwigError> {
        let mut slots = Vec::new();
        let mut current = Some((component_root, root_axis));
        while let Some((node, axis)) = current {
            let pn = pattern.node(node);
            if pn.mode == blossom_xpath::pattern::EdgeMode::Optional {
                return Err(TwigError::OptionalEdge);
            }
            let name = match &pn.test {
                NodeTest::Name(n) => n.clone(),
                NodeTest::Wildcard => return Err(TwigError::Wildcard),
                NodeTest::Text => return Err(TwigError::TextTest),
                NodeTest::Attribute(_) => return Err(TwigError::SiblingAxis),
            };
            if !matches!(axis, Axis::Child | Axis::Descendant) {
                return Err(TwigError::SiblingAxis);
            }
            let stream: Vec<NodeId> = index
                .stream_by_name(doc, &name)
                .iter()
                .copied()
                .filter(|&n| match &pn.value {
                    Some(t) => node_satisfies(doc, n, t),
                    None => true,
                })
                .collect();
            slots.push(Slot {
                orig: node,
                axis,
                stream: PostingList::from_nodes(doc, stream),
                cursor: 0,
            });
            // Chains only: exactly zero or one child.
            current = match pn.children.as_slice() {
                [] => None,
                [c] => Some((*c, pattern.node(*c).axis)),
                _ => return Err(TwigError::SiblingAxis),
            };
        }
        if root_axis == Axis::Child {
            let root_stream = &slots[0].stream;
            let depth1: Vec<NodeId> = (0..root_stream.len())
                .filter(|&i| root_stream.level(i) == 1)
                .map(|i| root_stream.start(i))
                .collect();
            slots[0].stream = PostingList::from_nodes(doc, depth1);
        }
        let n = slots.len();
        Ok(PathStackMatcher {
            doc,
            slots,
            stacks: (0..n).map(|_| Vec::new()).collect(),
            participants: (0..n).map(|_| FxHashSet::default()).collect(),
            meter: Meter::off(),
        })
    }

    /// Turn work counting on or off (see [`crate::obs`]). Counting is off
    /// by default; enable before [`PathStackMatcher::run`].
    pub fn enable_meter(&mut self, on: bool) {
        self.meter = Meter::new(on);
    }

    /// Counters accumulated so far: elements advanced one at a time
    /// (`scanned`), unpushable prefix elements galloped past (`skipped`),
    /// stack pushes, and path-solution participants (`matches`).
    pub fn counters(&self) -> OpCounters {
        self.meter.counters()
    }

    fn next_l(&self, q: usize) -> u32 {
        let s = &self.slots[q];
        if s.cursor < s.stream.len() { s.stream.start(s.cursor).0 } else { INF }
    }

    fn clean_stack(&mut self, q: usize, l: u32) {
        while let Some(top) = self.stacks[q].last() {
            if top.end < l {
                self.stacks[q].pop();
            } else {
                break;
            }
        }
    }

    /// Run the merge to completion, marking path-solution participants.
    pub fn run(&mut self) {
        loop {
            // q_min: slot with the smallest head.
            let mut q_min = 0usize;
            for q in 1..self.slots.len() {
                if self.next_l(q) < self.next_l(q_min) {
                    q_min = q;
                }
            }
            let l = self.next_l(q_min);
            if l == INF {
                break;
            }
            for q in 0..self.slots.len() {
                self.clean_stack(q, l);
            }
            // Push if the previous slot's stack can host this element.
            let can_push = q_min == 0 || !self.stacks[q_min - 1].is_empty();
            if can_push {
                let cursor = self.slots[q_min].cursor;
                let node = self.slots[q_min].stream.start(cursor);
                let end = self.slots[q_min].stream.end(cursor);
                let parent_top =
                    if q_min == 0 { usize::MAX } else { self.stacks[q_min - 1].len() - 1 };
                self.stacks[q_min].push(Entry {
                    node,
                    end,
                    parent_top,
                    marked: false,
                });
                self.meter.pushes(1);
                if q_min == self.slots.len() - 1 {
                    let top = self.stacks[q_min].len() - 1;
                    self.mark(q_min, top);
                    self.stacks[q_min].pop();
                }
                self.slots[q_min].cursor += 1;
                self.meter.scanned(1);
            } else {
                // Slot q_min's elements can only be pushed once slot
                // q_min-1's stack is non-empty, which requires processing
                // its next head first. Everything in this stream strictly
                // before that head is unpushable — gallop past the whole
                // prefix instead of discarding one element per iteration.
                let target = self.next_l(q_min - 1);
                let s = &mut self.slots[q_min];
                let before = s.cursor;
                s.cursor = if target == INF {
                    s.stream.len()
                } else {
                    s.stream.skip_to(s.cursor + 1, target)
                };
                let leapt = (s.cursor - before) as u64;
                self.meter.skipped(leapt);
            }
        }
    }

    fn mark(&mut self, q: usize, idx: usize) {
        if self.stacks[q][idx].marked {
            return;
        }
        self.stacks[q][idx].marked = true;
        self.participants[q].insert(self.stacks[q][idx].node);
        self.meter.matches(1);
        if q > 0 {
            let parent_top = self.stacks[q][idx].parent_top;
            if parent_top != usize::MAX {
                for i in 0..=parent_top {
                    self.mark(q - 1, i);
                }
            }
        }
    }

    /// Distinct matches of `target` over all path solutions, in document
    /// order. Child (`/`) steps are verified here (the stack phase treats
    /// every step as `//`, as in the original algorithm).
    pub fn solution_nodes(&self, target: PatternNodeId) -> Vec<NodeId> {
        let slot = self
            .slots
            .iter()
            .position(|s| s.orig == target)
            .expect("target on the chain");
        let parts: Vec<Vec<NodeId>> = self
            .participants
            .iter()
            .map(|set| {
                let mut v: Vec<NodeId> = set.iter().copied().collect();
                v.sort_unstable();
                v
            })
            .collect();
        // valid: extends downward; anchored: chain reaches slot 0.
        let mut valid: Vec<FxHashSet<NodeId>> = vec![FxHashSet::default(); self.slots.len()];
        for q in (0..self.slots.len()).rev() {
            for &n in &parts[q] {
                let ok = if q + 1 == self.slots.len() {
                    true
                } else if self.slots[q + 1].axis == Axis::Child {
                    self.doc.children(n).any(|m| valid[q + 1].contains(&m))
                } else {
                    let hi = self.doc.last_descendant(n).0;
                    let list = &parts[q + 1];
                    let from = list.partition_point(|&m| m.0 <= n.0);
                    list[from..]
                        .iter()
                        .take_while(|&&m| m.0 <= hi)
                        .any(|&m| valid[q + 1].contains(&m))
                };
                if ok {
                    valid[q].insert(n);
                }
            }
        }
        let mut anchored: Vec<FxHashSet<NodeId>> =
            vec![FxHashSet::default(); self.slots.len()];
        for q in 0..self.slots.len() {
            for &n in &parts[q] {
                if !valid[q].contains(&n) {
                    continue;
                }
                let ok = if q == 0 {
                    true
                } else if self.slots[q].axis == Axis::Child {
                    self.doc
                        .parent(n)
                        .map(|p| anchored[q - 1].contains(&p))
                        .unwrap_or(false)
                } else {
                    self.doc.ancestors(n).any(|a| anchored[q - 1].contains(&a))
                };
                if ok {
                    anchored[q].insert(n);
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

    fn ps_eval(doc: &Document, query: &str) -> Result<Vec<NodeId>, TwigError> {
        let path = parse_path(query).unwrap();
        let bt = BlossomTree::from_path(&path).unwrap();
        let index = TagIndex::build(doc);
        let root = bt.pattern.node(blossom_xpath::PatternNodeId::ROOT).children[0];
        let root_axis = bt.pattern.node(root).axis;
        let mut m = PathStackMatcher::new(doc, &index, &bt.pattern, root, root_axis)?;
        m.run();
        Ok(m.solution_nodes(bt.returning[0]))
    }

    fn check(xml: &str, query: &str) {
        let doc = Document::parse_str(xml).unwrap();
        let got = ps_eval(&doc, query).unwrap();
        let want = navigational::eval_str(&doc, query).unwrap();
        assert_eq!(got, want, "query {query} on {xml}");
    }

    #[test]
    fn simple_chains() {
        check("<r><a><b><c/></b></a><a><c/></a></r>", "//a//c");
        check("<r><a><b><c/></b></a><a><c/></a></r>", "//a//b//c");
        check("<r><a><b/></a><a><x><b/></x></a></r>", "//a/b");
    }

    #[test]
    fn recursive_chains() {
        let xml = "<a><b/><a><b/><a><b/></a></a></a>";
        check(xml, "//a//b");
        check(xml, "//a//a//b");
        check(xml, "//a/a/b");
    }

    #[test]
    fn absolute_roots() {
        check("<a><b/><a><b/></a></a>", "/a/b");
        check("<a><b/><a><b/></a></a>", "/a//b");
    }

    #[test]
    fn value_filters() {
        check(
            "<r><a><b>x</b></a><a><b>y</b></a></r>",
            r#"//a/b[. = "x"]"#,
        );
    }

    #[test]
    fn rejects_branching_patterns() {
        let doc = Document::parse_str("<r><a><b/><c/></a></r>").unwrap();
        assert_eq!(ps_eval(&doc, "//a[//b]//c"), Err(TwigError::SiblingAxis));
        assert_eq!(ps_eval(&doc, "//a//*"), Err(TwigError::Wildcard));
    }

    #[test]
    fn agrees_with_twigstack_on_chains() {
        use crate::join::twigstack::TwigMatcher;
        let xml = "<S><VP><NP><VP><PP><NP><NN/></NP></PP></VP></NP></VP><VP><NP><NN/></NP></VP></S>";
        let doc = Document::parse_str(xml).unwrap();
        let index = TagIndex::build(&doc);
        for query in ["//VP//NP//NN", "//VP//PP//NN", "//S//VP//NP"] {
            let path = parse_path(query).unwrap();
            let bt = BlossomTree::from_path(&path).unwrap();
            let root = bt.pattern.node(blossom_xpath::PatternNodeId::ROOT).children[0];
            let mut ps =
                PathStackMatcher::new(&doc, &index, &bt.pattern, root, Axis::Descendant)
                    .unwrap();
            ps.run();
            let mut ts =
                TwigMatcher::new(&doc, &index, &bt.pattern, root, Axis::Descendant).unwrap();
            ts.run();
            assert_eq!(
                ps.solution_nodes(bt.returning[0]),
                ts.solution_nodes(bt.returning[0]),
                "query {query}"
            );
        }
    }
}
