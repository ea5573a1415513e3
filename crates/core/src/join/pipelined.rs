//! The pipelined //-join of Section 4.2.
//!
//! Both inputs are `GetNext`-style streams of per-anchor matches in
//! document order (NoK streams, or the output of another pipelined join).
//! The join advances the two cursors merge-style and buffers only the
//! inner matches that can still join: a candidate whose anchor precedes
//! the current outer's *start* can never fall inside a later outer's
//! subtree (later outers start later), so it is discarded.
//!
//! That discard rule is conservative, which makes the join correct on
//! recursive documents too (property-tested); what recursion costs is
//! *memory* — nested outer regions keep their shared candidates buffered,
//! up to the recursion-depth-proportional growth the paper's Section 4.2
//! warns about. The planner therefore still prefers TwigStack or the
//! bounded nested loop on recursive documents, exactly the trade-off the
//! paper describes. On non-recursive documents outer regions are disjoint,
//! the buffer never exceeds one region's matches, and the output stream is
//! ordered by outer anchor (Theorem 2).

use crate::decompose::{CutEdge, NokTree};
use crate::nestedlist::NestedList;
use crate::obs::{Meter, TraceSink};
use crate::ops::{attach_window, child_match_of, structural_join, ChildMatch};
use crate::shape::ShapeId;
use blossom_xml::{Document, NodeId};
use blossom_xpath::pattern::EdgeMode;
use std::collections::VecDeque;

/// A stream item: the anchor region `(anchor, last_descendant)` of the
/// outermost NoK plus the (possibly already joined) NestedList.
pub type StreamItem = (NodeId, NestedList);

/// A `GetNext` stream the pipelined join can ask to *skip*: advance past
/// every item with anchor `<= bound` without producing them. Implemented
/// with a real gallop by [`crate::nok::NokStream`]; arbitrary iterators
/// participate via [`IterStream`] with skipping as a no-op (they still
/// get filtered by the join's discard rule, just one item at a time).
pub trait SkipStream {
    /// Produce the next item, or `None` when exhausted.
    fn next_item(&mut self) -> Option<StreamItem>;

    /// Skip every item with anchor `<= bound`, returning how many items
    /// were galloped past. The default does nothing; the join remains
    /// correct because its discard rule re-checks every pulled item.
    fn skip_past(&mut self, _bound: NodeId) -> u64 {
        0
    }
}

impl SkipStream for crate::nok::NokStream<'_> {
    fn next_item(&mut self) -> Option<StreamItem> {
        self.get_next()
    }

    fn skip_past(&mut self, bound: NodeId) -> u64 {
        crate::nok::NokStream::skip_past(self, bound)
    }
}

/// Adapter giving any `StreamItem` iterator the [`SkipStream`] interface
/// (with no-op skipping) — e.g. the output of an upstream pipelined join.
pub struct IterStream<I>(pub I);

impl<I: Iterator<Item = StreamItem>> SkipStream for IterStream<I> {
    fn next_item(&mut self) -> Option<StreamItem> {
        self.0.next()
    }
}

/// The pipelined //-join iterator.
pub struct PipelinedJoin<'d, L, R>
where
    L: Iterator<Item = StreamItem>,
    R: SkipStream,
{
    doc: &'d Document,
    left: L,
    right: R,
    parent_shape: ShapeId,
    child_shape: ShapeId,
    mode: EdgeMode,
    /// Inner matches buffered for the current outer region.
    buffer: VecDeque<ChildMatch>,
    /// Largest buffer size observed (the Section 4.2 memory measure:
    /// bounded by one outer region on non-recursive documents, grows with
    /// the recursion depth otherwise).
    peak_buffer: usize,
    /// One-item lookahead on the right stream.
    right_peek: Option<StreamItem>,
    exhausted_right: bool,
    /// Work counters ([`crate::obs`]); off by default.
    meter: Meter,
    /// Where the counters are flushed on drop (joins are consumed inside
    /// boxed iterator chains, so there is no explicit finish call).
    sink: Option<&'d TraceSink>,
}

impl<'d, L, R> PipelinedJoin<'d, L, R>
where
    L: Iterator<Item = StreamItem>,
    R: SkipStream,
{
    /// Build the join for one cut edge. `noks` resolves the edge's shape
    /// positions.
    pub fn new(
        doc: &'d Document,
        left: L,
        right: R,
        noks: &[NokTree],
        cut: &CutEdge,
    ) -> Self {
        let (parent_shape, child_shape) = super::nested_loop::cut_shapes(noks, cut);
        debug_assert_eq!(cut.axis, blossom_xml::Axis::Descendant);
        PipelinedJoin {
            doc,
            left,
            right,
            parent_shape,
            child_shape,
            mode: cut.mode,
            buffer: VecDeque::new(),
            peak_buffer: 0,
            right_peek: None,
            exhausted_right: false,
            meter: Meter::off(),
            sink: None,
        }
    }

    /// Attach a trace sink: the join's counters (inner items pulled,
    /// items galloped past, buffer pushes, emitted matches) are recorded
    /// under `"pipelined-join"` when the join is dropped. `None` (the
    /// default) keeps every counter a no-op.
    pub fn set_trace_sink(&mut self, sink: Option<&'d TraceSink>) {
        self.sink = sink;
        self.meter = Meter::new(sink.is_some());
    }

    /// Largest number of inner matches buffered at once so far — the
    /// memory requirement the paper's Section 4.2 trades against I/O.
    pub fn peak_buffer(&self) -> usize {
        self.peak_buffer
    }

    fn pull_right(&mut self) -> Option<StreamItem> {
        if let Some(item) = self.right_peek.take() {
            return Some(item);
        }
        if self.exhausted_right {
            return None;
        }
        match self.right.next_item() {
            Some(item) => {
                self.meter.scanned(1);
                Some(item)
            }
            None => {
                self.exhausted_right = true;
                None
            }
        }
    }

    /// Advance the right stream so the buffer holds every inner match with
    /// anchor in `(outer, outer_end]`; discard matches before `outer`.
    fn fill_buffer(&mut self, outer: NodeId, outer_end: NodeId) {
        // Discard buffered matches before the outer region (Theorem 2:
        // later outers start later, so these can never join again).
        while let Some(cm) = self.buffer.front() {
            if cm.anchor.0 <= outer.0 {
                self.buffer.pop_front();
            } else {
                break;
            }
        }
        // Everything the loop below would discard (anchor <= outer) can be
        // skipped wholesale at the stream level — a NokStream gallops its
        // candidate list without running a single pattern match.
        if self.right_peek.is_none() && !self.exhausted_right {
            let leapt = self.right.skip_past(outer);
            self.meter.skipped(leapt);
        }
        while let Some((anchor, nl)) = self.pull_right() {
            if anchor.0 <= outer.0 {
                continue; // before the region: discard
            }
            if anchor.0 > outer_end.0 {
                self.right_peek = Some((anchor, nl));
                break;
            }
            if let Some(cm) = child_match_of(&nl, self.child_shape) {
                self.buffer.push_back(cm);
                self.meter.pushes(1);
                self.peak_buffer = self.peak_buffer.max(self.buffer.len());
            }
        }
    }

    /// The `GetNext` function of Section 4.2.
    #[allow(clippy::should_implement_trait)] // mirrors the paper's GetNext
    pub fn get_next(&mut self) -> Option<StreamItem> {
        loop {
            let (outer_anchor, outer_nl) = self.left.next()?;
            let outer_end = self.doc.last_descendant(outer_anchor);
            self.fill_buffer(outer_anchor, outer_end);
            let doc = self.doc;
            let (parent_shape, child_shape, mode) =
                (self.parent_shape, self.child_shape, self.mode);
            // Borrow the buffer contiguously instead of cloning it per
            // outer; attach_window copies only the matching window.
            let candidates: &[ChildMatch] = self.buffer.make_contiguous();
            let joined = structural_join(
                vec![outer_nl],
                parent_shape,
                child_shape,
                mode,
                |p| attach_window(doc, candidates, blossom_xml::Axis::Descendant, p),
            );
            if let Some(nl) = joined.into_iter().next() {
                self.meter.matches(1);
                self.meter.output(1);
                return Some((outer_anchor, nl));
            }
            // Outer failed (mandatory child missing): try the next outer.
        }
    }
}

impl<L, R> Iterator for PipelinedJoin<'_, L, R>
where
    L: Iterator<Item = StreamItem>,
    R: SkipStream,
{
    type Item = StreamItem;

    fn next(&mut self) -> Option<Self::Item> {
        self.get_next()
    }
}

impl<L, R> Drop for PipelinedJoin<'_, L, R>
where
    L: Iterator<Item = StreamItem>,
    R: SkipStream,
{
    fn drop(&mut self) {
        if let Some(sink) = self.sink {
            sink.record_meter("pipelined-join", &self.meter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::Decomposition;
    use crate::join::nested_loop::naive_nlj;
    use crate::nok::NokMatcher;
    use blossom_flwor::BlossomTree;
    use blossom_xml::Document;
    use blossom_xpath::parse_path;

    fn decompose(path: &str) -> Decomposition {
        Decomposition::decompose(
            &BlossomTree::from_path(&parse_path(path).unwrap()).unwrap(),
        )
    }

    fn pl_join(doc: &Document, d: &Decomposition) -> Vec<NestedList> {
        let cut = &d.cut_edges[0];
        let outer = NokMatcher::new(doc, &d.noks[cut.parent_nok], d.shape.clone(), None);
        let inner = NokMatcher::new(doc, &d.noks[cut.child_nok], d.shape.clone(), None);
        let mut left = outer.stream();
        let right = inner.stream();
        let join = PipelinedJoin::new(
            doc,
            std::iter::from_fn(move || left.get_next()),
            right,
            &d.noks,
            cut,
        );
        join.map(|(_, nl)| nl).collect()
    }

    #[test]
    fn agrees_with_nested_loop_on_nonrecursive_doc() {
        let xml = "<r><a><b><c/></b><b/></a><a><b/></a><a><b><x><c/></x></b><c/></a></r>";
        let doc = Document::parse_str(xml).unwrap();
        for path in ["//a[//c]/b", "//a/b[//c]", "//a[//b]"] {
            let d = decompose(path);
            let pl = pl_join(&doc, &d);
            let cut = &d.cut_edges[0];
            let outer =
                NokMatcher::new(&doc, &d.noks[cut.parent_nok], d.shape.clone(), None);
            let inner =
                NokMatcher::new(&doc, &d.noks[cut.child_nok], d.shape.clone(), None);
            let nl = naive_nlj(&doc, outer.scan(), &inner, &d.noks, cut);
            assert_eq!(pl, nl, "query {path}");
        }
    }

    #[test]
    fn output_is_ordered_by_outer_anchor() {
        let xml = "<r><a><c/></a><a/><a><c/></a><a><c/></a></r>";
        let doc = Document::parse_str(xml).unwrap();
        let d = decompose("//a[//c]");
        let cut = &d.cut_edges[0];
        let outer = NokMatcher::new(&doc, &d.noks[cut.parent_nok], d.shape.clone(), None);
        let inner = NokMatcher::new(&doc, &d.noks[cut.child_nok], d.shape.clone(), None);
        let mut left = outer.stream();
        let right = inner.stream();
        let join = PipelinedJoin::new(
            &doc,
            std::iter::from_fn(move || left.get_next()),
            right,
            &d.noks,
            cut,
        );
        let anchors: Vec<NodeId> = join.map(|(a, _)| a).collect();
        assert_eq!(anchors.len(), 3);
        assert!(
            anchors.windows(2).all(|w| w[0] < w[1]),
            "Theorem 2: pipelined //-join preserves document order"
        );
    }

    #[test]
    fn optional_mode_emits_childless_outers() {
        let xml = "<r><a/><a><c/></a></r>";
        let doc = Document::parse_str(xml).unwrap();
        let mut d = decompose("//a[//c]");
        // Force the cut edge optional.
        d.cut_edges[0].mode = EdgeMode::Optional;
        let pl = pl_join(&doc, &d);
        assert_eq!(pl.len(), 2);
    }
}

#[cfg(test)]
mod memory_tests {
    use super::*;
    use crate::decompose::Decomposition;
    use crate::nok::NokMatcher;
    use blossom_flwor::BlossomTree;
    use blossom_xml::Document;
    use blossom_xpath::parse_path;

    fn peak(doc: &Document, query: &str) -> usize {
        let d = Decomposition::decompose(
            &BlossomTree::from_path(&parse_path(query).unwrap()).unwrap(),
        );
        let cut = &d.cut_edges[0];
        let outer = NokMatcher::new(doc, &d.noks[cut.parent_nok], d.shape.clone(), None);
        let inner = NokMatcher::new(doc, &d.noks[cut.child_nok], d.shape.clone(), None);
        let mut left = outer.stream();
        let right = inner.stream();
        let mut join = PipelinedJoin::new(
            doc,
            std::iter::from_fn(move || left.get_next()),
            right,
            &d.noks,
            cut,
        );
        while join.get_next().is_some() {}
        join.peak_buffer()
    }

    /// Section 4.2's memory trade-off, measured: on a flat document the
    /// buffer holds one region's matches; nesting the same matches under
    /// recursive outers grows it with the recursion depth.
    #[test]
    fn buffer_growth_tracks_recursion() {
        // Flat: 8 a's, one c each -> buffer peak 1.
        let flat = Document::parse_str(
            "<r><a><c/></a><a><c/></a><a><c/></a><a><c/></a>\
             <a><c/></a><a><c/></a><a><c/></a><a><c/></a></r>",
        )
        .unwrap();
        let flat_peak = peak(&flat, "//a[//c]");
        assert_eq!(flat_peak, 1);
        // Recursive: 8 nested a's, all c's inside the outermost region.
        let mut xml = String::from("<r>");
        for _ in 0..8 {
            xml.push_str("<a><c/>");
        }
        for _ in 0..8 {
            xml.push_str("</a>");
        }
        xml.push_str("</r>");
        let nested = Document::parse_str(&xml).unwrap();
        let nested_peak = peak(&nested, "//a[//c]");
        assert_eq!(nested_peak, 8, "buffer grows with the recursion depth");
        assert!(nested_peak > flat_peak);
    }
}
