//! NoK pattern-tree matching (Algorithm 2, generalized).
//!
//! A NoK pattern tree contains only local axes, so a match of the whole
//! tree lives inside one document subtree and is found by navigating with
//! `first-child` / `following-sibling` only — no recursion over `//`.
//!
//! [`NokMatcher::match_at`] matches one anchor node and produces a
//! [`NestedList`] over the *global* returning shape (positions owned by
//! other NoKs stay placeholders, to be filled by joins — Example 4).
//! [`NokMatcher::scan`] drives `match_at` over every node of the document
//! in document order — the paper's *sequential scan* — and
//! [`NokMatcher::scan_range`] restricts it to an id interval, which is
//! what the bounded nested-loop join exploits.

use crate::decompose::NokTree;
use crate::exec::{self, Executor};
use crate::merge;
use crate::nestedlist::{NestedList, NlNode};
use crate::obs::{Meter, OpCounters, TraceSink};
use crate::shape::{Shape, ShapeId};
use crate::value::node_satisfies;
use blossom_xml::{Document, NodeId, NodeKind, Sym, TagIndex};
use blossom_xpath::ast::NodeTest;
use blossom_xpath::pattern::{EdgeMode, PatternNode, PatternNodeId};
use std::sync::Arc;

/// A node-kind test with its tag name resolved against the document's
/// symbol table once — at matcher construction here, at plan compilation
/// in [`crate::flat`] — so the per-node check compares interned `u32`
/// symbols instead of strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolvedTest {
    /// Element name test; `None` means the name never occurs in this
    /// document, so the test can never match.
    Name(Option<Sym>),
    Wildcard,
    Text,
    /// Attribute tests constrain the parent and are matched by name
    /// there, never against a node's own kind.
    Attribute,
}

impl ResolvedTest {
    pub(crate) fn resolve(doc: &Document, test: &NodeTest) -> ResolvedTest {
        match test {
            NodeTest::Name(name) => ResolvedTest::Name(doc.sym(name)),
            NodeTest::Wildcard => ResolvedTest::Wildcard,
            NodeTest::Text => ResolvedTest::Text,
            NodeTest::Attribute(_) => ResolvedTest::Attribute,
        }
    }

    /// Does node `x` have the kind (and tag) this test asks for?
    #[inline]
    pub(crate) fn matches(self, doc: &Document, x: NodeId) -> bool {
        match self {
            ResolvedTest::Name(Some(sym)) => {
                matches!(doc.kind(x), NodeKind::Element(s) if s == sym)
            }
            ResolvedTest::Name(None) => false,
            ResolvedTest::Wildcard => doc.is_element(x),
            ResolvedTest::Text => matches!(doc.kind(x), NodeKind::Text),
            ResolvedTest::Attribute => false, // handled by the parent
        }
    }

    /// Keep the `nodes` that [`ResolvedTest::matches`]: the test is
    /// dispatched once and each kind filters in its own tight loop
    /// (measured 3–4 ns a candidate cheaper than dispatching inside one).
    pub(crate) fn retain(self, doc: &Document, nodes: &mut Vec<NodeId>) {
        match self {
            ResolvedTest::Name(Some(sym)) => nodes.retain(|&n| doc.tag(n) == Some(sym)),
            ResolvedTest::Wildcard => nodes.retain(|&n| doc.is_element(n)),
            ResolvedTest::Text => nodes.retain(|&n| matches!(doc.kind(n), NodeKind::Text)),
            ResolvedTest::Name(None) | ResolvedTest::Attribute => nodes.clear(),
        }
    }
}

/// Matches one NoK pattern tree against a document.
pub struct NokMatcher<'a> {
    doc: &'a Document,
    nok: &'a NokTree,
    shape: Arc<Shape>,
    /// Optional tag index to enumerate anchors without a full scan.
    index: Option<&'a TagIndex>,
    /// Per pattern-node resolved kind tests, indexed by local node id.
    resolved: Vec<ResolvedTest>,
    /// Gallop range probes over the tag index instead of scanning the
    /// anchor stream one element at a time.
    skip: bool,
    /// Trace collection point; when set, scans and streams record their
    /// work counters ([`crate::obs`]).
    sink: Option<&'a TraceSink>,
}

/// A raw match of the NoK pattern (all pattern nodes, returning or not).
struct LocalMatch {
    node: NodeId,
    /// Parallel to the pattern node's children.
    groups: Vec<Vec<LocalMatch>>,
}

impl<'a> NokMatcher<'a> {
    /// Create a matcher. Pass a [`TagIndex`] to let scans jump straight to
    /// candidate anchors.
    pub fn new(
        doc: &'a Document,
        nok: &'a NokTree,
        shape: Arc<Shape>,
        index: Option<&'a TagIndex>,
    ) -> Self {
        Self::with_skip(doc, nok, shape, index, true)
    }

    /// [`NokMatcher::new`] with explicit control over galloped vs linear
    /// anchor-range probes. Results are identical either way.
    pub fn with_skip(
        doc: &'a Document,
        nok: &'a NokTree,
        shape: Arc<Shape>,
        index: Option<&'a TagIndex>,
        skip: bool,
    ) -> Self {
        let resolved = nok
            .pattern
            .ids()
            .map(|id| ResolvedTest::resolve(doc, &nok.pattern.node(id).test))
            .collect();
        NokMatcher { doc, nok, shape, index, resolved, skip, sink: None }
    }

    /// Attach a trace sink: scans and streams record anchor counters
    /// (`"nok-scan"` / `"nok-stream"`) into it. `None` (the default)
    /// keeps every counter a no-op.
    pub fn with_trace_sink(mut self, sink: Option<&'a TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Does `x` satisfy the tag-name and value constraints of pattern node
    /// `p` (ignoring children)?
    fn node_test(&self, p: PatternNodeId, pn: &PatternNode, x: NodeId) -> bool {
        if !self.resolved[p.index()].matches(self.doc, x) {
            return false;
        }
        match &pn.value {
            Some(test) => node_satisfies(self.doc, x, test),
            None => true,
        }
    }

    /// Check an attribute-test pattern child against element `x`.
    fn attribute_test(&self, p: &PatternNode, x: NodeId) -> bool {
        let NodeTest::Attribute(name) = &p.test else { return false };
        match self.doc.attribute(x, name) {
            Some(value) => match &p.value {
                Some(test) => {
                    crate::value::node_vs_literal_str(value, test.op, &test.literal)
                }
                None => true,
            },
            None => false,
        }
    }

    fn try_match(&self, p: PatternNodeId, x: NodeId) -> Option<LocalMatch> {
        let pn = self.nok.pattern.node(p);
        if !self.node_test(p, pn, x) {
            return None;
        }
        let mut groups = Vec::with_capacity(pn.children.len());
        for &c in &pn.children {
            let cn = self.nok.pattern.node(c);
            if matches!(cn.test, NodeTest::Attribute(_)) {
                // Attribute constraints filter the parent; they produce no
                // matches of their own.
                if !self.attribute_test(cn, x) && cn.mode == EdgeMode::Mandatory {
                    return None;
                }
                groups.push(Vec::new());
                continue;
            }
            let matches: Vec<LocalMatch> = match cn.axis {
                blossom_xml::Axis::Child => self
                    .doc
                    .children(x)
                    .filter_map(|u| self.try_match(c, u))
                    .collect(),
                blossom_xml::Axis::FollowingSibling => {
                    let mut out = Vec::new();
                    let mut sib = self.doc.next_sibling(x);
                    while let Some(u) = sib {
                        if let Some(m) = self.try_match(c, u) {
                            out.push(m);
                        }
                        sib = self.doc.next_sibling(u);
                    }
                    out
                }
                blossom_xml::Axis::PrecedingSibling => match self.doc.parent(x) {
                    Some(p) => self
                        .doc
                        .children(p)
                        .take_while(|&u| u != x)
                        .filter_map(|u| self.try_match(c, u))
                        .collect(),
                    None => Vec::new(),
                },
                blossom_xml::Axis::SelfAxis => {
                    self.try_match(c, x).into_iter().collect()
                }
                // Global axes never appear inside a NoK (decomposition cut
                // them); treat defensively as no matches.
                _ => Vec::new(),
            };
            if matches.is_empty() && cn.mode == EdgeMode::Mandatory {
                return None;
            }
            groups.push(matches);
        }
        Some(LocalMatch { node: x, groups })
    }

    /// Match the NoK with its root anchored at `anchor`. Returns the
    /// per-anchor NestedList over the global shape, or `None`.
    pub fn match_at(&self, anchor: NodeId) -> Option<NestedList> {
        let m = self.try_match(self.nok.root(), anchor)?;
        Some(self.to_nested(&m))
    }

    /// Convert a LocalMatch into a NestedList over the global shape.
    fn to_nested(&self, m: &LocalMatch) -> NestedList {
        let entries = self.collect(self.nok.root(), m);
        let mut nl = NestedList::empty(self.shape.clone());
        for (sid, content) in entries {
            insert_at(&mut nl, sid, content);
        }
        nl
    }

    /// Recursively build `(shape position, content)` pairs for the
    /// *top-level covered* shape nodes under pattern node `p`.
    fn collect(&self, p: PatternNodeId, m: &LocalMatch) -> Vec<(ShapeId, NlNode)> {
        match self.nok.shape_of[p.index()] {
            Some(sid) => {
                let mut node = NlNode::leaf(&self.shape, sid, m.node);
                let pn = self.nok.pattern.node(p);
                for (ci, &c) in pn.children.iter().enumerate() {
                    for cm in &m.groups[ci] {
                        for (child_sid, child_nl) in self.collect(c, cm) {
                            let pos = self
                                .shape
                                .node(sid)
                                .children
                                .iter()
                                .position(|&s| s == child_sid)
                                .expect("child shape under parent shape");
                            node.groups[pos].push(child_nl);
                        }
                    }
                }
                vec![(sid, node)]
            }
            None => {
                let mut out = Vec::new();
                let pn = self.nok.pattern.node(p);
                for (ci, &c) in pn.children.iter().enumerate() {
                    for cm in &m.groups[ci] {
                        out.extend(self.collect(c, cm));
                    }
                }
                out
            }
        }
    }

    /// Candidate anchors in document order (via the tag index when the
    /// root has a name test and an index is available; otherwise every
    /// node).
    fn anchor_candidates(&self, lo: NodeId, hi: NodeId) -> Vec<NodeId> {
        self.anchor_candidates_counted(lo, hi).0
    }

    /// [`NokMatcher::anchor_candidates`] plus the number of posting-list
    /// entries galloped past by the range probe (`0` with skipping off —
    /// the linear probe examines entries one at a time — and `0` when no
    /// sink is attached, to keep the untraced path free of the extra
    /// posting-count lookup).
    fn anchor_candidates_counted(&self, lo: NodeId, hi: NodeId) -> (Vec<NodeId>, u64) {
        let root = self.nok.pattern.node(self.nok.root());
        if let (Some(index), NodeTest::Name(name)) = (self.index, &root.test) {
            if let Some(sym) = self.doc.sym(name) {
                // The `(p1, p2)` range probe of the bounded NLJ: two
                // gallops over the posting list, or the one-at-a-time
                // reference scan with skipping off.
                let after = NodeId(lo.0.wrapping_sub(1));
                let range = if self.skip {
                    index.stream_in_range(sym, after, hi)
                } else {
                    index.stream_in_range_linear(sym, after, hi)
                };
                let skipped = if self.skip && self.sink.is_some() {
                    (index.count(sym) - range.len()) as u64
                } else {
                    0
                };
                return (range.to_vec(), skipped);
            }
            return (Vec::new(), 0);
        }
        ((lo.0..=hi.0).map(NodeId).collect(), 0)
    }

    /// Sequential scan (Section 3.3): try every document node in document
    /// order as an anchor, concatenating the per-anchor NestedLists.
    pub fn scan(&self) -> Vec<NestedList> {
        self.scan_range(NodeId(1), NodeId(self.doc.len() as u32 - 1))
    }

    /// Scan restricted to anchors with `lo <= id <= hi` (the `(p1, p2)`
    /// range piggybacked by the bounded nested-loop join, Section 4.3).
    pub fn scan_range(&self, lo: NodeId, hi: NodeId) -> Vec<NestedList> {
        self.scan_range_entries(lo, hi).into_iter().map(|(_, nl)| nl).collect()
    }

    /// [`NokMatcher::scan_range`], keeping each match's anchor id (the
    /// engine filters root anchors by level; partitioned scans keep the
    /// anchor to certify document order across partition seams).
    pub fn scan_range_entries(&self, lo: NodeId, hi: NodeId) -> Vec<(NodeId, NestedList)> {
        let (entries, counters) = self.scan_range_entries_counted(lo, hi);
        if let Some(sink) = self.sink {
            sink.record_op("nok-scan", counters);
        }
        entries
    }

    /// [`NokMatcher::scan_range_entries`] returning the work counters
    /// instead of recording them: partitioned scans merge the per-worker
    /// counters before a single record.
    fn scan_range_entries_counted(
        &self,
        lo: NodeId,
        hi: NodeId,
    ) -> (Vec<(NodeId, NestedList)>, OpCounters) {
        let mut counters = OpCounters::default();
        if self.doc.len() <= 1 || lo > hi {
            return (Vec::new(), counters);
        }
        let (candidates, skipped) = self.anchor_candidates_counted(lo, hi);
        counters.scanned = candidates.len() as u64;
        counters.skipped = skipped;
        let mut entries: Vec<(NodeId, NestedList)> = Vec::new();
        for x in candidates {
            if let Some(nl) = self.match_at(x) {
                entries.push((x, nl));
            }
        }
        counters.matches = entries.len() as u64;
        counters.output = entries.len() as u64;
        (entries, counters)
    }

    /// Partitioned scan: split the anchor stream into contiguous
    /// `NodeId` ranges, run [`NokMatcher::scan_range`] per range on the
    /// executor's workers, and concatenate the per-partition results in
    /// document order. Disjoint anchor ranges produce disjoint match
    /// sets (a NoK match lives inside its anchor's subtree and anchors
    /// are preorder ids), so the result is byte-identical to
    /// [`NokMatcher::scan`].
    pub fn par_scan(&self, exec: &Executor) -> Vec<NestedList> {
        self.par_scan_entries(exec).into_iter().map(|(_, nl)| nl).collect()
    }

    /// [`NokMatcher::par_scan`], keeping anchors.
    pub fn par_scan_entries(&self, exec: &Executor) -> Vec<(NodeId, NestedList)> {
        if self.doc.len() <= 1 {
            return Vec::new();
        }
        let last = NodeId(self.doc.len() as u32 - 1);
        if exec.threads() == 1 {
            return self.scan_range_entries(NodeId(1), last);
        }
        let ranges = self.partition_ranges(exec);
        let per_partition =
            exec.run(ranges.len(), |i| self.scan_range_entries_counted(ranges[i].0, ranges[i].1));
        let (entries, counters) = merge::concat_partitions_counted(per_partition);
        if let Some(sink) = self.sink {
            sink.record_op("nok-scan", counters);
        }
        entries
    }

    /// Contiguous, disjoint, ascending anchor-id ranges for a partitioned
    /// scan: cut from the tag index's anchor stream when the root has a
    /// name test and an index is available, otherwise an even split of
    /// the id space `[1, len)`.
    fn partition_ranges(&self, exec: &Executor) -> Vec<(NodeId, NodeId)> {
        let last = self.doc.len() as u32 - 1;
        let root = self.nok.pattern.node(self.nok.root());
        if let (Some(index), NodeTest::Name(name)) = (self.index, &root.test) {
            let Some(sym) = self.doc.sym(name) else { return Vec::new() };
            return index
                .partition(sym, exec.partitions(index.count(sym)))
                .into_iter()
                .map(|slice| (slice[0], slice[slice.len() - 1]))
                .collect();
        }
        exec::chunk_bounds(last as usize, exec.partitions(last as usize))
            .into_iter()
            .map(|(lo, hi)| (NodeId(lo as u32 + 1), NodeId(hi as u32)))
            .collect()
    }

    /// Iterator flavour of [`NokMatcher::scan`] for pipelined plans:
    /// yields `(anchor, NestedList)` lazily in document order.
    pub fn stream(&'a self) -> NokStream<'a> {
        let candidates =
            self.anchor_candidates(NodeId(1), NodeId(self.doc.len() as u32 - 1));
        NokStream { matcher: self, candidates, pos: 0, meter: Meter::new(self.sink.is_some()) }
    }
}

/// Lazy anchor-by-anchor NoK matching (the `getNext` interface of
/// Section 4.2).
pub struct NokStream<'a> {
    matcher: &'a NokMatcher<'a>,
    candidates: Vec<NodeId>,
    pos: usize,
    meter: Meter,
}

impl NokStream<'_> {
    /// Produce the next match, or `None` when exhausted.
    #[allow(clippy::should_implement_trait)] // mirrors the paper's GetNext
    pub fn get_next(&mut self) -> Option<(NodeId, NestedList)> {
        while self.pos < self.candidates.len() {
            let anchor = self.candidates[self.pos];
            self.pos += 1;
            self.meter.scanned(1);
            if let Some(nl) = self.matcher.match_at(anchor) {
                self.meter.matches(1);
                self.meter.output(1);
                return Some((anchor, nl));
            }
        }
        None
    }

    /// Gallop the cursor past every candidate anchor `<= bound` without
    /// attempting to match them, returning how many candidates were
    /// skipped. Used by the pipelined //-join to discard whole stream
    /// segments that precede the current outer region.
    pub fn skip_past(&mut self, bound: NodeId) -> u64 {
        let pos = self.pos;
        self.pos = match bound.0.checked_add(1) {
            Some(target) => blossom_xml::gallop(&self.candidates, pos, target),
            None => self.candidates.len(),
        };
        let skipped = (self.pos - pos) as u64;
        self.meter.skipped(skipped);
        skipped
    }
}

impl Drop for NokStream<'_> {
    /// Streams are consumed inside boxed iterator chains, so the counters
    /// are flushed when the stream is dropped rather than at an explicit
    /// finish call.
    fn drop(&mut self) {
        if let Some(sink) = self.matcher.sink {
            sink.record_meter("nok-stream", &self.meter);
        }
    }
}

impl Iterator for NokStream<'_> {
    type Item = (NodeId, NestedList);

    fn next(&mut self) -> Option<Self::Item> {
        self.get_next()
    }
}

/// Insert `content` into `nl` at shape position `sid`, materializing a
/// placeholder chain for the levels above it.
pub(crate) fn insert_at(nl: &mut NestedList, sid: ShapeId, content: NlNode) {
    let shape = nl.shape.clone();
    let path = shape.path_to(sid);
    debug_assert!(!path.is_empty(), "cannot insert at the artificial root");
    let (&last, prefix) = path.split_last().unwrap();
    let mut cur = &mut nl.root;
    let mut shape_cursor: ShapeId = 0;
    for &pos in prefix {
        shape_cursor = shape.node(shape_cursor).children[pos];
        if cur.groups[pos].is_empty() {
            let ph = NlNode::placeholder(&shape, shape_cursor);
            cur.groups[pos].push(ph);
        }
        // Per-anchor NestedLists thread a single placeholder chain.
        cur = cur.groups[pos].last_mut().unwrap();
    }
    cur.groups[last].push(content);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::Decomposition;
    use blossom_flwor::BlossomTree;
    use blossom_xpath::parse_path;

    fn setup(xml: &str, path: &str) -> (Document, Decomposition) {
        let doc = Document::parse_str(xml).unwrap();
        let p = parse_path(path).unwrap();
        let d = Decomposition::decompose(&BlossomTree::from_path(&p).unwrap());
        (doc, d)
    }

    fn tags(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
        nodes
            .iter()
            .map(|&n| doc.tag_name(n).unwrap_or("?").to_string())
            .collect()
    }

    #[test]
    fn single_nok_simple_match() {
        let (doc, d) = setup("<r><a><b/><c/></a><a><b/></a><a><c/></a></r>", "//a[b]/c");
        assert_eq!(d.noks.len(), 1);
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let results = m.scan();
        // Anchors: first a (has b and c) matches; second (no c) and third
        // (no b) fail.
        assert_eq!(results.len(), 1);
        let c_nodes = results[0].project(&"1.1".parse().unwrap());
        assert_eq!(tags(&doc, &c_nodes), vec!["c"]);
    }

    #[test]
    fn multiple_matches_grouped() {
        let (doc, d) = setup(
            "<r><a><b>1</b><b>2</b></a></r>",
            "//a/b",
        );
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let results = m.scan();
        assert_eq!(results.len(), 1, "one anchor (the a)");
        let bs = results[0].project(&"1.1".parse().unwrap());
        assert_eq!(bs.len(), 2);
        assert!(bs[0] < bs[1], "document order");
    }

    #[test]
    fn optional_edges_allow_empty() {
        // Compile //book[author][title]; make author optional manually.
        let doc = Document::parse_str(
            "<bib><book><title>t1</title></book><book><title>t2</title><author>x</author></book></bib>",
        )
        .unwrap();
        let p = parse_path("//book[author][title]").unwrap();
        let mut bt = BlossomTree::from_path(&p).unwrap();
        let author = bt
            .pattern
            .ids()
            .find(|&id| {
                bt.pattern.node(id).test == blossom_xpath::ast::NodeTest::Name("author".into())
            })
            .unwrap();
        bt.pattern.node_mut(author).mode = EdgeMode::Optional;
        let d = Decomposition::decompose(&bt);
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let results = m.scan();
        assert_eq!(results.len(), 2, "author-less book still matches");
    }

    #[test]
    fn value_constraints_filter() {
        let (doc, d) = setup(
            "<bib><book><author>Smith</author></book><book><author>Jones</author></book></bib>",
            r#"//book[author = "Smith"]"#,
        );
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        assert_eq!(m.scan().len(), 1);
    }

    #[test]
    fn recursive_document_anchors() {
        // Every a with a b child anchors independently.
        let (doc, d) = setup("<a><b/><a><b/><a/></a></a>", "//a/b");
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let results = m.scan();
        assert_eq!(results.len(), 2);
        // Anchors in document order.
        let all_bs: Vec<NodeId> = results
            .iter()
            .flat_map(|nl| nl.project(&"1.1".parse().unwrap()))
            .collect();
        assert_eq!(all_bs.len(), 2);
    }

    #[test]
    fn scan_range_bounds() {
        let (doc, d) = setup("<r><a><b/></a><a><b/></a></r>", "//a/b");
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let all = m.scan();
        assert_eq!(all.len(), 2);
        // Restrict to the second a's subtree.
        let r = doc.root_element().unwrap();
        let second_a = doc.children(r).nth(1).unwrap();
        let ranged = m.scan_range(second_a, doc.last_descendant(second_a));
        assert_eq!(ranged.len(), 1);
        // Empty range.
        assert!(m.scan_range(NodeId(5), NodeId(2)).is_empty());
    }

    #[test]
    fn stream_is_lazy_and_ordered() {
        let (doc, d) = setup("<r><a><b/></a><x/><a><b/></a></r>", "//a/b");
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let anchors: Vec<NodeId> = m.stream().map(|(a, _)| a).collect();
        assert_eq!(anchors.len(), 2);
        assert!(anchors[0] < anchors[1]);
    }

    #[test]
    fn index_assisted_anchors_match_full_scan() {
        let doc = Document::parse_str(
            "<r><a><b/></a><c><a><b/><b/></a></c><a/></r>",
        )
        .unwrap();
        let p = parse_path("//a/b").unwrap();
        let d = Decomposition::decompose(&BlossomTree::from_path(&p).unwrap());
        let index = TagIndex::build(&doc);
        let with_idx = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), Some(&index));
        let without = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        assert_eq!(with_idx.scan(), without.scan());
    }

    #[test]
    fn attribute_constraint() {
        let doc =
            Document::parse_str(r#"<r><a k="1"><b/></a><a k="2"><b/></a><a><b/></a></r>"#)
                .unwrap();
        let p = parse_path(r#"//a[@k = "2"]/b"#).unwrap();
        let d = Decomposition::decompose(&BlossomTree::from_path(&p).unwrap());
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        assert_eq!(m.scan().len(), 1);
        let p2 = parse_path("//a[@k]/b").unwrap();
        let d2 = Decomposition::decompose(&BlossomTree::from_path(&p2).unwrap());
        let m2 = NokMatcher::new(&doc, &d2.noks[0], d2.shape.clone(), None);
        assert_eq!(m2.scan().len(), 2);
    }

    #[test]
    fn text_node_test() {
        let doc = Document::parse_str("<r><a>hello</a><a><b/></a></r>").unwrap();
        let p = parse_path("//a/text()").unwrap();
        let d = Decomposition::decompose(&BlossomTree::from_path(&p).unwrap());
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let results = m.scan();
        assert_eq!(results.len(), 1);
        let texts = results[0].project(&"1.1".parse().unwrap());
        assert_eq!(doc.text(texts[0]), Some("hello"));
    }

    #[test]
    fn par_scan_matches_sequential_scan() {
        use crate::exec::Executor;
        // Recursive document with many anchors so partitioning has seams
        // to get wrong; run with and without the tag index.
        let mut xml = String::from("<r>");
        for i in 0..40 {
            if i % 3 == 0 {
                xml.push_str("<a><b/><a><b/></a></a>");
            } else {
                xml.push_str("<a><c/></a><x/>");
            }
        }
        xml.push_str("</r>");
        let doc = Document::parse_str(&xml).unwrap();
        let p = parse_path("//a/b").unwrap();
        let d = Decomposition::decompose(&BlossomTree::from_path(&p).unwrap());
        let index = TagIndex::build(&doc);
        for idx in [None, Some(&index)] {
            let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), idx);
            let sequential = m.scan();
            for threads in [1, 2, 4, 8, 64] {
                let parallel = m.par_scan(&Executor::new(threads));
                assert_eq!(parallel, sequential, "threads={threads} index={}", idx.is_some());
            }
        }
    }

    #[test]
    fn par_scan_on_tiny_and_missing_tag_documents() {
        use crate::exec::Executor;
        let exec = Executor::new(4);
        let (doc, d) = setup("<r/>", "//a/b");
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        assert!(m.par_scan(&exec).is_empty());
        // Indexed root tag absent from the document.
        let doc2 = Document::parse_str("<r><x/></r>").unwrap();
        let p = parse_path("//a/b").unwrap();
        let d2 = Decomposition::decompose(&BlossomTree::from_path(&p).unwrap());
        let index = TagIndex::build(&doc2);
        let m2 = NokMatcher::new(&doc2, &d2.noks[0], d2.shape.clone(), Some(&index));
        assert!(m2.par_scan(&exec).is_empty());
    }

    #[test]
    fn wildcard_test() {
        let (doc, d) = setup("<r><a><b/></a><c><d/></c></r>", "/r/*");
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        // Anchor is r; * matches a and c grouped under it.
        let results = m.scan();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].project(&"1.1".parse().unwrap()).len(), 2);
        let _ = doc;
    }
}
