//! Tag-name indexes with skip-enabled posting lists.
//!
//! Holistic twig joins (TwigStack) consume, for each pattern-tree node, a
//! stream of document elements with that tag, sorted by document order.
//! [`TagIndex`] materializes those streams as [`PostingList`]s: per-symbol
//! parallel arrays of node ids plus their inline region labels
//! `(start, end, level)`. Because arena ids are preorder positions, each
//! list is sorted by `start` by construction.
//!
//! Carrying the region labels inline matters twice over: operators read
//! `end`/`level` from the contiguous posting arrays instead of chasing
//! into the node arena per element, and the lists support *galloping*
//! (exponential + binary search) [`PostingList::skip_to`] so a join can
//! leap over whole irrelevant stream segments — the XB-tree skip trick —
//! rather than advancing one element at a time. `end` values are not
//! monotone under nesting, so end-bound skips ([`PostingList::skip_to_end`])
//! ride a per-block max-end summary instead of a plain binary search.

use crate::colsrc::Col;
use crate::document::{Document, NodeId};
use crate::label::Region;
use crate::symbol::Sym;

/// Elements in a posting block share one max-`end` summary entry; a block
/// whose summary is below the skip target is skipped without touching it.
const BLOCK_SHIFT: usize = 6;
const BLOCK_SIZE: usize = 1 << BLOCK_SHIFT;

/// The empty posting list returned for symbols with no elements.
static EMPTY: PostingList = PostingList {
    starts: Col::Owned(Vec::new()),
    ends: Col::Owned(Vec::new()),
    levels: Col::Owned(Vec::new()),
    block_max_end: Col::Owned(Vec::new()),
};

/// Gallop over a document-ordered id slice from position `from` to the
/// first position whose id is `>= target`. Exponential probe then binary
/// search, so the cost is logarithmic in the distance advanced; when the
/// cursor is already in place it is a single compare. Shared by
/// [`PostingList::skip_to`] and the operators that probe intermediate
/// (non-posting) id lists.
#[inline]
pub fn gallop(s: &[NodeId], from: usize, target: u32) -> usize {
    let n = s.len();
    if from >= n || s[from].0 >= target {
        return from;
    }
    // s[from] < target: double the probe distance until it lands at
    // or beyond the boundary, then binary-search the last window.
    let mut step = 1usize;
    while from + step < n && s[from + step].0 < target {
        step <<= 1;
    }
    let lo = from + (step >> 1);
    let hi = (from + step + 1).min(n);
    lo + s[lo..hi].partition_point(|&x| x.0 < target)
}

/// A document-ordered stream of elements with inline region labels and
/// sub-linear skip primitives. Like [`Document`] columns, the parallel
/// arrays are [`Col`]s: heap-owned when built from a document, zero-copy
/// windows into the posting sections of a mapped snapshot otherwise.
#[derive(Debug, Clone)]
pub struct PostingList {
    /// Element ids (= region `start` coordinates), strictly increasing.
    starts: Col<NodeId>,
    /// Region `end` (last descendant id) per element.
    ends: Col<u32>,
    /// Region `level` per element.
    levels: Col<u16>,
    /// Max of `ends` per [`BLOCK_SIZE`] chunk, for end-bound skips.
    block_max_end: Col<u32>,
}

/// Growable triple of posting columns; wrapped into a [`PostingList`]
/// (computing the block summaries) once fully populated.
#[derive(Default, Clone)]
struct ListBuilder {
    starts: Vec<NodeId>,
    ends: Vec<u32>,
    levels: Vec<u16>,
}

impl ListBuilder {
    fn push(&mut self, n: NodeId, end: u32, level: u16) {
        debug_assert!(
            self.starts.last().is_none_or(|&p| p < n),
            "posting ids must be strictly increasing"
        );
        self.starts.push(n);
        self.ends.push(end);
        self.levels.push(level);
    }

    fn finish(self) -> PostingList {
        PostingList::from_vecs(self.starts, self.ends, self.levels)
    }
}

impl PostingList {
    /// Build a list from an id stream, reading labels from the document's
    /// region columns. The ids must be strictly increasing.
    pub fn from_nodes(doc: &Document, nodes: impl IntoIterator<Item = NodeId>) -> PostingList {
        let end_col = doc.last_desc_column();
        let level_col = doc.level_column();
        let mut b = ListBuilder::default();
        for n in nodes {
            b.push(n, end_col[n.index()], level_col[n.index()]);
        }
        b.finish()
    }

    /// Wrap owned parallel columns, computing the block summaries.
    fn from_vecs(starts: Vec<NodeId>, ends: Vec<u32>, levels: Vec<u16>) -> PostingList {
        let block_max_end: Vec<u32> = ends
            .chunks(BLOCK_SIZE)
            .map(|chunk| chunk.iter().copied().max().unwrap_or(0))
            .collect();
        PostingList {
            starts: Col::Owned(starts),
            ends: Col::Owned(ends),
            levels: Col::Owned(levels),
            block_max_end: Col::Owned(block_max_end),
        }
    }

    /// Reassemble a posting list from raw columns cut out of a snapshot,
    /// validating what navigation safety requires: parallel columns of
    /// equal length, ids strictly increasing and below `n_nodes` (so a
    /// posting can always index the document's columns), and a block
    /// summary entry per [`BLOCK_SIZE`] chunk (so end-skips stay in
    /// bounds). Summary *values* only steer skips and cannot cause
    /// out-of-bounds access; section checksums vouch for them.
    pub fn from_raw_parts(
        starts: Col<NodeId>,
        ends: Col<u32>,
        levels: Col<u16>,
        block_max_end: Col<u32>,
        n_nodes: u32,
    ) -> Result<PostingList, String> {
        let len = starts.len();
        if ends.len() != len || levels.len() != len {
            return Err("posting columns have mismatched lengths".into());
        }
        if block_max_end.len() != len.div_ceil(BLOCK_SIZE) {
            return Err("posting block summary has the wrong length".into());
        }
        for w in starts.windows(2) {
            if w[0] >= w[1] {
                return Err("posting ids must be strictly increasing".into());
            }
        }
        if let Some(&last) = starts.last() {
            if last.0 >= n_nodes {
                return Err("posting id out of document range".into());
            }
        }
        Ok(PostingList { starts, ends, levels, block_max_end })
    }

    /// Number of postings.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when no element carries this tag.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The id stream, in document order.
    #[inline]
    pub fn starts(&self) -> &[NodeId] {
        &self.starts
    }

    /// The region `end` column, for snapshot serialization.
    #[inline]
    pub fn ends_column(&self) -> &[u32] {
        &self.ends
    }

    /// The region `level` column, for snapshot serialization.
    #[inline]
    pub fn levels_column(&self) -> &[u16] {
        &self.levels
    }

    /// The per-block max-`end` summary, for snapshot serialization.
    #[inline]
    pub fn block_max_end_column(&self) -> &[u32] {
        &self.block_max_end
    }

    /// Element id at position `i`.
    #[inline]
    pub fn start(&self, i: usize) -> NodeId {
        self.starts[i]
    }

    /// Region `end` at position `i`, read from the inline label column.
    #[inline]
    pub fn end(&self, i: usize) -> u32 {
        self.ends[i]
    }

    /// Region `level` at position `i`.
    #[inline]
    pub fn level(&self, i: usize) -> u16 {
        self.levels[i]
    }

    /// Full region label at position `i`.
    #[inline]
    pub fn region(&self, i: usize) -> Region {
        Region { start: self.starts[i].0, end: self.ends[i], level: self.levels[i] }
    }

    /// Gallop from position `from` to the first posting whose id (region
    /// `start`) is `>= target` (see [`gallop`]).
    #[inline]
    pub fn skip_to(&self, from: usize, target: u32) -> usize {
        gallop(&self.starts, from, target)
    }

    /// Gallop to the first posting whose id is **strictly greater** than
    /// `bound`. Equivalent to `skip_to(from, bound + 1)` without the
    /// overflow hazard at `u32::MAX`.
    #[inline]
    pub fn skip_past(&self, from: usize, bound: u32) -> usize {
        if bound == u32::MAX {
            return self.len();
        }
        self.skip_to(from, bound + 1)
    }

    /// Advance from position `from` to the first posting whose region
    /// `end` is `>= target` — the TwigStack skip "past every element whose
    /// subtree closes before `target`". `end` values are non-monotone
    /// (ancestors close after the descendants nested inside them), so this
    /// walks block max-end summaries and only scans inside the one block
    /// that provably contains a hit.
    #[inline]
    pub fn skip_to_end(&self, from: usize, target: u32) -> usize {
        let n = self.ends.len();
        let mut i = from;
        if i >= n || self.ends[i] >= target {
            return i;
        }
        i += 1;
        // Finish the block the cursor is in.
        let mut block = i >> BLOCK_SHIFT;
        let block_end = ((block + 1) << BLOCK_SHIFT).min(n);
        while i < block_end {
            if self.ends[i] >= target {
                return i;
            }
            i += 1;
        }
        block += 1;
        // Leap whole blocks whose max end is still below the target.
        while block << BLOCK_SHIFT < n && self.block_max_end[block] < target {
            block += 1;
        }
        i = block << BLOCK_SHIFT;
        while i < n {
            if self.ends[i] >= target {
                return i;
            }
            i += 1;
        }
        n
    }

    /// The index range of postings with id in `(after, upto]` — two
    /// gallops from the front.
    #[inline]
    pub fn range(&self, after: u32, upto: u32) -> std::ops::Range<usize> {
        let lo = self.skip_past(0, after);
        let hi = self.skip_past(lo, upto);
        lo..hi
    }
}

/// Per-tag posting lists in document order.
#[derive(Debug, Clone)]
pub struct TagIndex {
    /// Indexed by `Sym::index()`; empty list for non-element symbols.
    postings: Vec<PostingList>,
}

impl TagIndex {
    /// Build the index with one pass over the document's packed kind/tag
    /// and region columns.
    pub fn build(doc: &Document) -> TagIndex {
        let mut builders: Vec<ListBuilder> = vec![ListBuilder::default(); doc.symbols().len()];
        let end_col = doc.last_desc_column();
        let level_col = doc.level_column();
        for node in doc.elements() {
            let sym = doc.tag(node).expect("elements() yields elements");
            builders[sym.index()].push(node, end_col[node.index()], level_col[node.index()]);
        }
        TagIndex { postings: builders.into_iter().map(ListBuilder::finish).collect() }
    }

    /// Reassemble an index from per-symbol posting lists decoded or
    /// mapped out of a snapshot (symbol `i`'s list at position `i`).
    pub fn from_lists(postings: Vec<PostingList>) -> TagIndex {
        TagIndex { postings }
    }

    /// Incrementally maintain the index across a column splice (see
    /// `crate::mutate`): elements with ids in `[start, start + removed)`
    /// left the document, `inserted` nodes took their place at `start`,
    /// and every suffix id shifted by `inserted − removed`.
    ///
    /// Per posting list this drops the removed run, splices in the new
    /// elements (their ids are contiguous between the stable prefix and
    /// the shifted suffix, so list order is preserved by construction),
    /// and re-reads `end`/`level` labels from the new document's region
    /// columns — which also refreshes the splice-point ancestors whose
    /// subtree end moved. Lists that end before the splice point are
    /// reused wholesale. The result is identical to `TagIndex::build`
    /// on the new document, without the O(n) element scan or the
    /// serialize → reparse a full rebuild would sit behind.
    pub fn splice(&self, start: u32, removed: u32, inserted: u32, new_doc: &Document) -> TagIndex {
        let (s, r, m) = (start, removed, inserted);
        let end_col = new_doc.last_desc_column();
        let level_col = new_doc.level_column();
        let nsyms = new_doc.symbols().len();
        // Bucket the inserted elements by tag, ascending by id.
        let mut fresh: Vec<Vec<NodeId>> = vec![Vec::new(); nsyms];
        for id in s..s + m {
            if let Some(sym) = new_doc.tag(NodeId(id)) {
                fresh[sym.index()].push(NodeId(id));
            }
        }
        let mut postings = Vec::with_capacity(nsyms);
        for i in 0..nsyms {
            let old = self.postings.get(i).unwrap_or(&EMPTY);
            let extra = &fresh[i];
            let lo = old.starts.partition_point(|&n| n.0 < s);
            // Only ancestors of the splice point change their region end,
            // and their old end is ≥ s − 1; a list confined to ids < s
            // with every end < s − 1 is untouched.
            if extra.is_empty()
                && lo == old.len()
                && old.block_max_end.iter().all(|&e| e + 1 < s)
            {
                postings.push(old.clone());
                continue;
            }
            let hi = old.starts.partition_point(|&n| n.0 < s + r);
            let mut list = ListBuilder {
                starts: Vec::with_capacity(old.len() - (hi - lo) + extra.len()),
                ..ListBuilder::default()
            };
            let ids = old.starts[..lo]
                .iter()
                .copied()
                .chain(extra.iter().copied())
                .chain(old.starts[hi..].iter().map(|n| NodeId(n.0 - r + m)));
            for n in ids {
                list.push(n, end_col[n.index()], level_col[n.index()]);
            }
            postings.push(list.finish());
        }
        TagIndex { postings }
    }

    /// The posting list for `sym` (empty list if the tag never occurs).
    pub fn postings(&self, sym: Sym) -> &PostingList {
        self.postings.get(sym.index()).unwrap_or(&EMPTY)
    }

    /// Approximate heap footprint in bytes of every posting list, for the
    /// server catalog's memory cap (same caveats as
    /// [`Document::approx_heap_bytes`]).
    pub fn approx_heap_bytes(&self) -> usize {
        self.postings
            .iter()
            .map(|p| {
                p.starts.heap_bytes()
                    + p.ends.heap_bytes()
                    + p.levels.heap_bytes()
                    + p.block_max_end.heap_bytes()
            })
            .sum()
    }

    /// Number of symbol slots (including the document symbol's).
    pub fn num_symbols(&self) -> usize {
        self.postings.len()
    }

    /// Posting list by tag name.
    pub fn postings_by_name<'a>(&'a self, doc: &Document, name: &str) -> &'a PostingList {
        match doc.sym(name) {
            Some(sym) => self.postings(sym),
            None => &EMPTY,
        }
    }

    /// All elements with tag `sym`, in document order.
    pub fn stream(&self, sym: Sym) -> &[NodeId] {
        self.postings(sym).starts()
    }

    /// Convenience: stream by tag name.
    pub fn stream_by_name<'a>(&'a self, doc: &Document, name: &str) -> &'a [NodeId] {
        self.postings_by_name(doc, name).starts()
    }

    /// Number of elements with tag `sym`.
    pub fn count(&self, sym: Sym) -> usize {
        self.postings(sym).len()
    }

    /// Elements with tag `sym` whose id lies in `(after, upto]` — the
    /// range-limited lookup used by the bounded nested-loop join's
    /// `(p1, p2)` probes. Two gallops over the posting list.
    pub fn stream_in_range(&self, sym: Sym, after: NodeId, upto: NodeId) -> &[NodeId] {
        let list = self.postings(sym);
        &list.starts()[list.range(after.0, upto.0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference for [`TagIndex::stream_in_range`] that advances one
    /// element at a time.
    fn stream_in_range_linear(idx: &TagIndex, sym: Sym, after: NodeId, upto: NodeId) -> &[NodeId] {
        let s = idx.stream(sym);
        let mut lo = 0;
        while lo < s.len() && s[lo].0 <= after.0 {
            lo += 1;
        }
        let mut hi = lo;
        while hi < s.len() && s[hi].0 <= upto.0 {
            hi += 1;
        }
        &s[lo..hi]
    }

    #[test]
    fn streams_are_doc_ordered() {
        let doc =
            Document::parse_str("<a><b/><c><b/><b/></c><b/></a>").unwrap();
        let idx = TagIndex::build(&doc);
        let bs = idx.stream_by_name(&doc, "b");
        assert_eq!(bs.len(), 4);
        assert!(bs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(idx.stream_by_name(&doc, "a").len(), 1);
        assert_eq!(idx.stream_by_name(&doc, "nope").len(), 0);
    }

    #[test]
    fn counts() {
        let doc = Document::parse_str("<a><b/><b/></a>").unwrap();
        let idx = TagIndex::build(&doc);
        let b = doc.sym("b").unwrap();
        assert_eq!(idx.count(b), 2);
        assert_eq!(idx.count(doc.sym("a").unwrap()), 1);
    }

    #[test]
    fn inline_labels_match_document_regions() {
        let doc = Document::parse_str(
            "<a><b><c/><b/></b><b>t</b><c><b/></c></a>",
        )
        .unwrap();
        let idx = TagIndex::build(&doc);
        for name in ["a", "b", "c"] {
            let list = idx.postings_by_name(&doc, name);
            for i in 0..list.len() {
                let n = list.start(i);
                assert_eq!(list.end(i), doc.last_descendant(n).0, "{name}[{i}]");
                assert_eq!(list.level(i), doc.level(n), "{name}[{i}]");
                assert_eq!(list.region(i), doc.region(n), "{name}[{i}]");
            }
        }
    }

    #[test]
    fn range_limited_stream() {
        let doc = Document::parse_str("<a><b/><c><b/><b/></c><b/></a>").unwrap();
        let idx = TagIndex::build(&doc);
        let a = doc.root_element().unwrap();
        let c = doc
            .children(a)
            .find(|&n| doc.tag_name(n) == Some("c"))
            .unwrap();
        let b = doc.sym("b").unwrap();
        // bs strictly inside c's subtree.
        let inside = idx.stream_in_range(b, c, doc.last_descendant(c));
        assert_eq!(inside.len(), 2);
        assert!(inside.iter().all(|&n| doc.is_ancestor(c, n)));
        // Empty range.
        assert!(idx.stream_in_range(b, doc.last_descendant(c), c).is_empty());
        // Galloped and linear range probes agree.
        for after in 0..doc.len() as u32 {
            for upto in 0..doc.len() as u32 {
                assert_eq!(
                    idx.stream_in_range(b, NodeId(after), NodeId(upto)),
                    stream_in_range_linear(&idx, b, NodeId(after), NodeId(upto)),
                    "after={after} upto={upto}"
                );
            }
        }
    }

    #[test]
    fn skip_to_agrees_with_linear_scan() {
        // A stream long enough to cross block boundaries: 200 <b/> leaves
        // under alternating <b> wrappers gives non-trivial nesting.
        let mut src = String::from("<r>");
        for i in 0..100 {
            if i % 3 == 0 {
                src.push_str("<b><b/><c/></b>");
            } else {
                src.push_str("<b/><c/>");
            }
        }
        src.push_str("</r>");
        let doc = Document::parse_str(&src).unwrap();
        let idx = TagIndex::build(&doc);
        let list = idx.postings_by_name(&doc, "b");
        assert!(list.len() > 2 * BLOCK_SIZE, "need multiple blocks");
        let max_id = doc.len() as u32 + 2;
        for from in [0, 1, list.len() / 2, list.len() - 1, list.len()] {
            for target in (0..max_id).step_by(7) {
                let linear_start = (from..list.len())
                    .find(|&i| list.start(i).0 >= target)
                    .unwrap_or(list.len());
                assert_eq!(list.skip_to(from, target), linear_start, "start from={from} t={target}");
                let linear_end = (from..list.len())
                    .find(|&i| list.end(i) >= target)
                    .unwrap_or(list.len());
                assert_eq!(list.skip_to_end(from, target), linear_end, "end from={from} t={target}");
            }
        }
        // skip_past at the id-space ceiling must not overflow.
        assert_eq!(list.skip_past(0, u32::MAX), list.len());
    }
}
