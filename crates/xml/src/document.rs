//! Arena-allocated XML document tree in a struct-of-arrays layout.
//!
//! All nodes live in parallel columns indexed by [`NodeId`]. Ids are
//! assigned in document (pre-) order during parsing, which gives the two
//! properties the BlossomTree operators rely on:
//!
//! 1. **Document order is id order** — comparing two nodes' positions is a
//!    `u32` compare (the `<<` operator of XQuery).
//! 2. **Subtrees are contiguous** — the descendants of node `n` are exactly
//!    the ids in `(n, n.last_descendant]`, so ancestor/descendant tests and
//!    the bounded nested-loop join's `(p1, p2)` range scans are interval
//!    checks.
//!
//! # Storage layout
//!
//! The arena is struct-of-arrays rather than a `Vec` of 40-byte node
//! records: `parent` / `first_child` / `next_sibling` / `last_desc` are
//! dense `Vec<u32>` columns, `level` is a `Vec<u16>`, and node kind plus
//! its payload (tag symbol for elements, text index for text nodes) are
//! packed into a single `Vec<u32>` with the kind in the low two bits.
//! Hot loops — tag-stream scans, region containment tests, `string_value`
//! — each touch only the one or two columns
//! they need, so a scan over a million nodes streams 4 bytes per node
//! instead of striding over full records and evicting cache lines it
//! never reads. The region label of node `n` is `(n, last_desc[n],
//! level[n])`: the `start` coordinate is the id itself and never stored.

use crate::colsrc::{Col, TextStore};
use crate::fxhash::FxHashMap;
use crate::label::Region;
use crate::parser::{Event, ParseError, Reader};
use crate::stats::DocStats;
use crate::symbol::{Sym, SymbolTable};
use std::fmt;

/// Index of a node in a [`Document`] arena. Node 0 is always the virtual
/// document node. `repr(transparent)` over `u32` so posting columns of
/// `NodeId` can be mapped directly from little-endian snapshot bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The virtual document node.
    pub const DOCUMENT: NodeId = NodeId(0);

    /// Index into arena arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The virtual document node (id 0), parent of the root element.
    Document,
    /// An element with the given interned tag.
    Element(Sym),
    /// A text node.
    Text,
}

pub(crate) const NIL: u32 = u32::MAX;

/// Kind tags stored in the low bits of the packed kind/payload column.
pub(crate) const KIND_DOCUMENT: u32 = 0;
pub(crate) const KIND_ELEMENT: u32 = 1;
pub(crate) const KIND_TEXT: u32 = 2;
pub(crate) const KIND_BITS: u32 = 2;
pub(crate) const KIND_MASK: u32 = (1 << KIND_BITS) - 1;

/// Pack a node kind and its payload (tag symbol or text index) into one
/// `u32`. Payloads are capped at 30 bits — ample, since both symbols and
/// text indexes are bounded by the `u32` node count.
#[inline]
pub(crate) fn pack(kind: u32, payload: u32) -> u32 {
    debug_assert!(payload <= (u32::MAX >> KIND_BITS), "payload overflows packed column");
    (payload << KIND_BITS) | kind
}

/// Parsing policy knobs for [`Document::parse_str_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ParseOptions {
    /// Keep text nodes that consist only of whitespace (default: false;
    /// data-centric documents treat inter-element whitespace as noise).
    pub keep_whitespace_text: bool,
}

/// An immutable, arena-backed XML document in struct-of-arrays layout.
///
/// Each column is a [`Col`]: either an owned `Vec` (parse/build/splice
/// output) or a zero-copy window into a mapped BLM2 snapshot — the
/// distinction is invisible to every consumer (see [`crate::colsrc`]).
pub struct Document {
    /// Parent id per node (`NIL` for the document node).
    pub(crate) parent: Col<u32>,
    /// First-child id per node (`NIL` for leaves).
    pub(crate) first_child: Col<u32>,
    /// Next-sibling id per node (`NIL` for last children).
    pub(crate) next_sibling: Col<u32>,
    /// Region `end` column: id of the last node in each subtree.
    pub(crate) last_desc: Col<u32>,
    /// Region `level` column: depth, 0 for the document node.
    pub(crate) level: Col<u16>,
    /// Packed kind (low 2 bits) + payload (tag symbol or text index).
    pub(crate) kind_sym: Col<u32>,
    pub(crate) texts: TextStore,
    /// Sparse attribute storage: element id -> attributes in document order.
    pub(crate) attrs: FxHashMap<u32, Vec<(Sym, Box<str>)>>,
    pub(crate) symbols: SymbolTable,
    /// Process-unique identity (see [`Document::uid`]).
    pub(crate) uid: u64,
}

/// The raw columns of a [`Document`], used to reconstruct one from a
/// storage snapshot. See [`Document::from_column_parts`].
pub struct ColumnParts {
    /// Parent id per node (`NIL` for the document node).
    pub parent: Col<u32>,
    /// First-child id per node (`NIL` for leaves).
    pub first_child: Col<u32>,
    /// Next-sibling id per node (`NIL` for last children).
    pub next_sibling: Col<u32>,
    /// Region `end` column.
    pub last_desc: Col<u32>,
    /// Region `level` column.
    pub level: Col<u16>,
    /// Packed kind/payload column.
    pub kind_sym: Col<u32>,
    /// Text-node contents.
    pub texts: TextStore,
    /// Attributes per element id, in document order.
    pub attrs: FxHashMap<u32, Vec<(Sym, Box<str>)>>,
    /// The interned name table.
    pub symbols: SymbolTable,
}

/// Monotone source of [`Document::uid`] values.
static NEXT_DOC_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Mint a process-unique [`Document::uid`]. Every constructed document —
/// parsed, built, decoded, or spliced by [`crate::mutate`] — draws from
/// the same monotone counter, so uids never alias across code paths.
pub(crate) fn fresh_uid() -> u64 {
    NEXT_DOC_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Document")
            .field("nodes", &self.kind_sym.len())
            .field("tags", &(self.symbols.len().saturating_sub(1)))
            .finish()
    }
}

impl Document {
    /// Parse `input` with default options.
    pub fn parse_str(input: &str) -> Result<Document, ParseError> {
        Self::parse_str_with(input, ParseOptions::default())
    }

    /// Parse `input` with explicit [`ParseOptions`].
    pub fn parse_str_with(input: &str, options: ParseOptions) -> Result<Document, ParseError> {
        let mut builder = TreeBuilder::new(options);
        let mut reader = Reader::new(input);
        while let Some(event) = reader.next_event()? {
            builder.event(event);
        }
        Ok(builder.finish())
    }

    /// Build a document programmatically; see [`TreeBuilder`].
    pub fn builder() -> TreeBuilder {
        TreeBuilder::new(ParseOptions::default())
    }

    /// Reassemble a document from raw columns (a decoded or mapped
    /// snapshot), validating every structural invariant the navigation
    /// and operator code relies on — after this check, indexing a
    /// (possibly attacker-supplied) mapped column is as safe as
    /// indexing a parsed one:
    ///
    /// * all columns have one entry per node, and node ids fit `u32`;
    /// * node 0 is the document node (`parent == NIL`, kind document);
    /// * `parent[v] < v` for every other node (ancestor walks strictly
    ///   descend and terminate), and only node 0 may have a `NIL` parent;
    /// * `first_child`/`next_sibling` are `NIL` or strictly greater than
    ///   the node and in bounds (child/sibling walks strictly advance);
    /// * `v <= last_desc[v] < n` (descendant ranges are in bounds);
    /// * element payloads index the symbol table, text payloads the text
    ///   store, and the 2-bit kind is never the invalid value 3;
    /// * attribute keys are element ids in bounds.
    ///
    /// The checks are cheap flat column scans — O(n) with a handful of
    /// compares per node, far from the O(nodes) *allocation* work this
    /// path exists to avoid.
    pub fn from_column_parts(parts: ColumnParts) -> Result<Document, String> {
        let n = parts.kind_sym.len();
        if n == 0 {
            return Err("document must contain the document node".into());
        }
        if n >= NIL as usize {
            return Err("node count overflows u32 ids".into());
        }
        for (name, len) in [
            ("parent", parts.parent.len()),
            ("first_child", parts.first_child.len()),
            ("next_sibling", parts.next_sibling.len()),
            ("last_desc", parts.last_desc.len()),
            ("level", parts.level.len()),
        ] {
            if len != n {
                return Err(format!("column {name} has {len} entries, expected {n}"));
            }
        }
        if parts.parent[0] != NIL || parts.kind_sym[0] & KIND_MASK != KIND_DOCUMENT {
            return Err("node 0 is not a document node".into());
        }
        let nsyms = parts.symbols.len() as u32;
        let ntexts = parts.texts.len() as u32;
        for v in 0..n {
            let id = v as u32;
            let p = parts.parent[v];
            if v > 0 && p >= id {
                return Err(format!("node {id}: parent {p} does not precede it"));
            }
            let fc = parts.first_child[v];
            if fc != NIL && (fc <= id || fc as usize >= n) {
                return Err(format!("node {id}: first child {fc} out of range"));
            }
            let ns = parts.next_sibling[v];
            if ns != NIL && (ns <= id || ns as usize >= n) {
                return Err(format!("node {id}: next sibling {ns} out of range"));
            }
            let ld = parts.last_desc[v];
            if ld < id || ld as usize >= n {
                return Err(format!("node {id}: last descendant {ld} out of range"));
            }
            let packed = parts.kind_sym[v];
            let payload = packed >> KIND_BITS;
            match packed & KIND_MASK {
                KIND_DOCUMENT => {
                    if v != 0 {
                        return Err(format!("node {id}: document kind outside node 0"));
                    }
                }
                KIND_ELEMENT => {
                    if payload >= nsyms {
                        return Err(format!("node {id}: tag symbol {payload} out of range"));
                    }
                }
                KIND_TEXT => {
                    if payload >= ntexts {
                        return Err(format!("node {id}: text index {payload} out of range"));
                    }
                }
                _ => return Err(format!("node {id}: invalid node kind")),
            }
        }
        for (&eid, _) in parts.attrs.iter() {
            if eid as usize >= n {
                return Err(format!("attribute entry for node {eid} out of range"));
            }
        }
        Ok(Document {
            parent: parts.parent,
            first_child: parts.first_child,
            next_sibling: parts.next_sibling,
            last_desc: parts.last_desc,
            level: parts.level,
            kind_sym: parts.kind_sym,
            texts: parts.texts,
            attrs: parts.attrs,
            symbols: parts.symbols,
            uid: fresh_uid(),
        })
    }

    /// Total number of nodes, including the virtual document node.
    pub fn len(&self) -> usize {
        self.kind_sym.len()
    }

    /// Process-unique document identity. Two `Document` values never share
    /// a uid, even when parsed from identical bytes — anything derived from
    /// per-document state (statistics, cost-based plans) can key on it
    /// without risking cross-document aliasing.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Always false: a document has at least its virtual document node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The symbol table of this document.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Approximate heap footprint in bytes: the column vectors plus text
    /// and attribute payloads. Used by the server's document catalog to
    /// keep its LRU under a memory cap; an estimate (hash-map overhead
    /// and allocator slack are not counted), not an accounting. Mapped
    /// columns contribute **zero** — their pages live in the page cache
    /// against the snapshot file, not the process heap, so a mapped
    /// document's resident charge is just its symbol table, attributes,
    /// and fixed overhead.
    pub fn approx_heap_bytes(&self) -> usize {
        let columns = self.parent.heap_bytes()
            + self.first_child.heap_bytes()
            + self.next_sibling.heap_bytes()
            + self.last_desc.heap_bytes()
            + self.kind_sym.heap_bytes()
            + self.level.heap_bytes();
        let texts = self.texts.heap_bytes();
        let attrs: usize = self
            .attrs
            .values()
            .flat_map(|v| v.iter())
            .map(|(_, val)| val.len() + std::mem::size_of::<(Sym, Box<str>)>())
            .sum();
        let symbols: usize = self
            .symbols
            .iter()
            .map(|(_, name)| name.len() + 2 * std::mem::size_of::<Box<str>>())
            .sum();
        columns + texts + attrs + symbols
    }

    /// Is any column of this document backed by a mapped snapshot?
    pub fn is_mapped(&self) -> bool {
        self.parent.is_mapped()
            || self.first_child.is_mapped()
            || self.next_sibling.is_mapped()
            || self.last_desc.is_mapped()
            || self.level.is_mapped()
            || self.kind_sym.is_mapped()
    }

    /// Look up the symbol for `tag`, if any element/attribute uses it.
    pub fn sym(&self, tag: &str) -> Option<Sym> {
        self.symbols.lookup(tag)
    }

    /// The root element (the single element child of the document node).
    pub fn root_element(&self) -> Option<NodeId> {
        self.children(NodeId::DOCUMENT)
            .find(|&c| matches!(self.kind(c), NodeKind::Element(_)))
    }

    /// Node kind.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        let packed = self.kind_sym[n.index()];
        match packed & KIND_MASK {
            KIND_DOCUMENT => NodeKind::Document,
            KIND_ELEMENT => NodeKind::Element(Sym(packed >> KIND_BITS)),
            _ => NodeKind::Text,
        }
    }

    /// Is `n` an element?
    #[inline]
    pub fn is_element(&self, n: NodeId) -> bool {
        self.kind_sym[n.index()] & KIND_MASK == KIND_ELEMENT
    }

    /// The element tag symbol, if `n` is an element.
    #[inline]
    pub fn tag(&self, n: NodeId) -> Option<Sym> {
        let packed = self.kind_sym[n.index()];
        (packed & KIND_MASK == KIND_ELEMENT).then_some(Sym(packed >> KIND_BITS))
    }

    /// The element tag name, if `n` is an element.
    pub fn tag_name(&self, n: NodeId) -> Option<&str> {
        self.tag(n).map(|s| self.symbols.name(s))
    }

    /// Parent node, if any.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.parent[n.index()];
        (p != NIL).then_some(NodeId(p))
    }

    /// First child, if any.
    #[inline]
    pub fn first_child(&self, n: NodeId) -> Option<NodeId> {
        let c = self.first_child[n.index()];
        (c != NIL).then_some(NodeId(c))
    }

    /// Next sibling, if any.
    #[inline]
    pub fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        let s = self.next_sibling[n.index()];
        (s != NIL).then_some(NodeId(s))
    }

    /// Depth: 0 for the document node, 1 for the root element.
    #[inline]
    pub fn level(&self, n: NodeId) -> u16 {
        self.level[n.index()]
    }

    /// The last node id in `n`'s subtree (`n` itself for leaves).
    #[inline]
    pub fn last_descendant(&self, n: NodeId) -> NodeId {
        NodeId(self.last_desc[n.index()])
    }

    /// Region label of `n`: `(start, end, level)` with `start` the preorder
    /// id and `end` the last descendant id.
    #[inline]
    pub fn region(&self, n: NodeId) -> Region {
        Region {
            start: n.0,
            end: self.last_desc[n.index()],
            level: self.level[n.index()],
        }
    }

    /// The region `end` column (`last_desc` per node). Flat view for
    /// operators that bulk-load region labels, e.g. `TagIndex::build`.
    #[inline]
    pub fn last_desc_column(&self) -> &[u32] {
        &self.last_desc
    }

    /// The region `level` column. Flat view for bulk label loads.
    #[inline]
    pub fn level_column(&self) -> &[u16] {
        &self.level
    }

    /// The packed kind/payload column: low 2 bits are the node kind
    /// (0 document, 1 element, 2 text), high 30 bits the tag symbol
    /// (elements) or text index (text nodes). Flat view for tag scans.
    #[inline]
    pub fn kind_sym_column(&self) -> &[u32] {
        &self.kind_sym
    }

    /// The raw parent column (`NIL` = `u32::MAX` for the document node).
    /// Flat view for snapshot serialization.
    #[inline]
    pub fn parent_column(&self) -> &[u32] {
        &self.parent
    }

    /// The raw first-child column (`NIL` = `u32::MAX` for leaves).
    #[inline]
    pub fn first_child_column(&self) -> &[u32] {
        &self.first_child
    }

    /// The raw next-sibling column (`NIL` = `u32::MAX` for last children).
    #[inline]
    pub fn next_sibling_column(&self) -> &[u32] {
        &self.next_sibling
    }

    /// The text-node content store, for snapshot serialization.
    #[inline]
    pub fn text_store(&self) -> &TextStore {
        &self.texts
    }

    /// Is `a` a proper ancestor of `d`?
    #[inline]
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        a.0 < d.0 && d.0 <= self.last_desc[a.index()]
    }

    /// Is `p` the parent of `c`?
    #[inline]
    pub fn is_parent(&self, p: NodeId, c: NodeId) -> bool {
        self.parent[c.index()] == p.0
    }

    /// Strictly-before in document order (`<<` of XQuery).
    #[inline]
    pub fn before(&self, a: NodeId, b: NodeId) -> bool {
        a.0 < b.0
    }

    /// Text content, if `n` is a text node.
    pub fn text(&self, n: NodeId) -> Option<&str> {
        let packed = self.kind_sym[n.index()];
        (packed & KIND_MASK == KIND_TEXT)
            .then(|| self.texts.get((packed >> KIND_BITS) as usize))
    }

    /// The string value of `n`: concatenation of all text in its subtree.
    pub fn string_value(&self, n: NodeId) -> String {
        let mut out = String::new();
        self.string_value_into(n, &mut out);
        out
    }

    /// Append the string value of `n` to `out` without clearing it, so
    /// callers can reuse one buffer across many nodes.
    pub fn string_value_into(&self, n: NodeId, out: &mut String) {
        let last = self.last_desc[n.index()] as usize;
        for &packed in &self.kind_sym[n.index()..=last] {
            if packed & KIND_MASK == KIND_TEXT {
                out.push_str(self.texts.get((packed >> KIND_BITS) as usize));
            }
        }
    }

    /// Attributes of an element, in document order.
    pub fn attributes(&self, n: NodeId) -> &[(Sym, Box<str>)] {
        self.attrs.get(&n.0).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Value of the attribute named `name` on `n`.
    pub fn attribute(&self, n: NodeId, name: &str) -> Option<&str> {
        let sym = self.symbols.lookup(name)?;
        self.attrs
            .get(&n.0)?
            .iter()
            .find(|(s, _)| *s == sym)
            .map(|(_, v)| v.as_ref())
    }

    /// Children iterator.
    pub fn children(&self, n: NodeId) -> Children<'_> {
        Children { doc: self, next: self.first_child(n) }
    }

    /// Iterator over all nodes of the subtree rooted at `n`, excluding `n`,
    /// in document order.
    pub fn descendants(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let last = self.last_desc[n.index()];
        (n.0 + 1..=last).map(NodeId)
    }

    /// Iterator over `n` and all its descendants in document order.
    pub fn descendants_or_self(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let last = self.last_desc[n.index()];
        (n.0..=last).map(NodeId)
    }

    /// Iterator over all element nodes in document order.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.kind_sym
            .iter()
            .enumerate()
            .filter(|(_, &packed)| packed & KIND_MASK == KIND_ELEMENT)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Ancestors of `n`, nearest first, ending at the document node.
    pub fn ancestors(&self, n: NodeId) -> Ancestors<'_> {
        Ancestors { doc: self, next: self.parent(n) }
    }

    /// Compute document statistics (see [`DocStats`]).
    pub fn stats(&self) -> DocStats {
        DocStats::compute(self)
    }

    /// Deep structural + textual equality of two subtrees (`fn:deep-equal`
    /// restricted to the element/text data model: same tag, same attribute
    /// set, pairwise deep-equal children).
    pub fn deep_equal(&self, a: NodeId, b: NodeId) -> bool {
        match (self.kind(a), self.kind(b)) {
            (NodeKind::Text, NodeKind::Text) => self.text(a) == self.text(b),
            (NodeKind::Element(sa), NodeKind::Element(sb)) => {
                if sa != sb || self.attributes(a) != self.attributes(b) {
                    return false;
                }
                let mut ca = self.children(a);
                let mut cb = self.children(b);
                loop {
                    match (ca.next(), cb.next()) {
                        (None, None) => return true,
                        (Some(x), Some(y)) => {
                            if !self.deep_equal(x, y) {
                                return false;
                            }
                        }
                        _ => return false,
                    }
                }
            }
            (NodeKind::Document, NodeKind::Document) => a == b,
            _ => false,
        }
    }
}

/// Iterator over a node's children.
pub struct Children<'d> {
    doc: &'d Document,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.next_sibling(cur);
        Some(cur)
    }
}

/// Iterator over a node's ancestors, nearest first.
pub struct Ancestors<'d> {
    doc: &'d Document,
    next: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.parent(cur);
        Some(cur)
    }
}

/// Incremental document constructor, fed by parser [`Event`]s or driven
/// programmatically via [`TreeBuilder::start_element`] and friends.
///
/// Builds the same struct-of-arrays columns as [`Document`]; `finish`
/// hands them over without copying.
pub struct TreeBuilder {
    parent: Vec<u32>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    last_desc: Vec<u32>,
    level: Vec<u16>,
    kind_sym: Vec<u32>,
    texts: Vec<Box<str>>,
    attrs: FxHashMap<u32, Vec<(Sym, Box<str>)>>,
    symbols: SymbolTable,
    /// Stack of open element ids (document node at the bottom).
    open: Vec<u32>,
    /// Last child of each open element, for sibling linking.
    last_child: Vec<u32>,
    options: ParseOptions,
}

impl TreeBuilder {
    /// New builder; a virtual document node is created immediately.
    pub fn new(options: ParseOptions) -> Self {
        TreeBuilder {
            parent: vec![NIL],
            first_child: vec![NIL],
            next_sibling: vec![NIL],
            last_desc: vec![0],
            level: vec![0],
            kind_sym: vec![pack(KIND_DOCUMENT, Sym::DOCUMENT.0)],
            texts: Vec::new(),
            attrs: FxHashMap::default(),
            symbols: SymbolTable::new(),
            open: vec![0],
            last_child: vec![NIL],
            options,
        }
    }

    /// Number of nodes built so far (including the document node).
    pub fn len(&self) -> usize {
        self.kind_sym.len()
    }

    /// Never true: the document node always exists.
    pub fn is_empty(&self) -> bool {
        false
    }

    fn push_node(&mut self, packed: u32) -> u32 {
        let id = self.kind_sym.len() as u32;
        let parent = *self.open.last().expect("document node always open");
        self.parent.push(parent);
        self.first_child.push(NIL);
        self.next_sibling.push(NIL);
        self.last_desc.push(id);
        self.level.push(self.level[parent as usize] + 1);
        self.kind_sym.push(packed);
        let prev = *self.last_child.last().unwrap();
        if prev == NIL {
            self.first_child[parent as usize] = id;
        } else {
            self.next_sibling[prev as usize] = id;
        }
        *self.last_child.last_mut().unwrap() = id;
        id
    }

    /// Open an element.
    pub fn start_element(&mut self, tag: &str) {
        let sym = self.symbols.intern(tag);
        let id = self.push_node(pack(KIND_ELEMENT, sym.0));
        self.open.push(id);
        self.last_child.push(NIL);
    }

    /// Add an attribute to the currently open element.
    pub fn attribute(&mut self, name: &str, value: &str) {
        let id = *self.open.last().unwrap();
        debug_assert_ne!(id, 0, "attribute outside element");
        let sym = self.symbols.intern(name);
        self.attrs.entry(id).or_default().push((sym, value.into()));
    }

    /// Append a text node (coalesced with a preceding text sibling).
    pub fn text(&mut self, content: &str) {
        if !self.options.keep_whitespace_text && content.trim().is_empty() {
            return;
        }
        // Coalesce with the previous sibling if it is also text.
        let prev = *self.last_child.last().unwrap();
        if prev != NIL && self.kind_sym[prev as usize] & KIND_MASK == KIND_TEXT {
            let idx = (self.kind_sym[prev as usize] >> KIND_BITS) as usize;
            let mut s = String::from(std::mem::take(&mut self.texts[idx]));
            s.push_str(content);
            self.texts[idx] = s.into_boxed_str();
            return;
        }
        let text_idx = self.texts.len() as u32;
        self.texts.push(content.into());
        self.push_node(pack(KIND_TEXT, text_idx));
    }

    /// Close the current element.
    pub fn end_element(&mut self) {
        let id = self.open.pop().expect("unbalanced end_element");
        self.last_child.pop();
        debug_assert_ne!(id, 0, "cannot close the document node");
        let last = (self.kind_sym.len() - 1) as u32;
        self.last_desc[id as usize] = last;
    }

    /// Feed one parser event.
    pub fn event(&mut self, event: Event<'_>) {
        match event {
            Event::StartElement { name, attributes, self_closing } => {
                self.start_element(name);
                for (attr, value) in attributes {
                    self.attribute(attr, &value);
                }
                if self_closing {
                    self.end_element();
                }
            }
            Event::EndElement { .. } => self.end_element(),
            Event::Text(t) => self.text(&t),
            Event::Comment(_) | Event::ProcessingInstruction { .. } | Event::Doctype(_) => {}
        }
    }

    /// Finish and return the document. Panics if elements are still open
    /// (the parser guarantees balance; programmatic callers must too).
    pub fn finish(mut self) -> Document {
        assert_eq!(self.open.len(), 1, "unbalanced builder: elements still open");
        let last = (self.kind_sym.len() - 1) as u32;
        self.last_desc[0] = last;
        Document {
            parent: Col::Owned(self.parent),
            first_child: Col::Owned(self.first_child),
            next_sibling: Col::Owned(self.next_sibling),
            last_desc: Col::Owned(self.last_desc),
            level: Col::Owned(self.level),
            kind_sym: Col::Owned(self.kind_sym),
            texts: TextStore::Owned(self.texts),
            attrs: self.attrs,
            symbols: self.symbols,
            uid: fresh_uid(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIB: &str = r#"<bib>
        <book year="1994"><title>TCP/IP Illustrated</title><author>Stevens</author></book>
        <book year="2000"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author></book>
    </bib>"#;

    #[test]
    fn parse_and_navigate() {
        let doc = Document::parse_str(BIB).unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.tag_name(root), Some("bib"));
        let books: Vec<_> = doc.children(root).collect();
        assert_eq!(books.len(), 2);
        assert_eq!(doc.attribute(books[0], "year"), Some("1994"));
        assert_eq!(doc.attribute(books[1], "year"), Some("2000"));
        let title = doc.first_child(books[0]).unwrap();
        assert_eq!(doc.tag_name(title), Some("title"));
        assert_eq!(doc.string_value(title), "TCP/IP Illustrated");
    }

    #[test]
    fn preorder_ids_and_regions() {
        let doc = Document::parse_str("<a><b><c/></b><d/></a>").unwrap();
        let a = doc.root_element().unwrap();
        let b = doc.first_child(a).unwrap();
        let c = doc.first_child(b).unwrap();
        let d = doc.next_sibling(b).unwrap();
        assert!(a.0 < b.0 && b.0 < c.0 && c.0 < d.0);
        assert!(doc.is_ancestor(a, c));
        assert!(doc.is_ancestor(b, c));
        assert!(!doc.is_ancestor(b, d));
        assert!(!doc.is_ancestor(c, c), "ancestor is proper");
        assert!(doc.is_parent(b, c));
        assert!(!doc.is_parent(a, c));
        assert!(doc.before(b, d));
        let ra = doc.region(a);
        assert_eq!((ra.start, ra.end), (a.0, d.0));
    }

    #[test]
    fn levels() {
        let doc = Document::parse_str("<a><b><c/></b></a>").unwrap();
        let a = doc.root_element().unwrap();
        let b = doc.first_child(a).unwrap();
        let c = doc.first_child(b).unwrap();
        assert_eq!(doc.level(NodeId::DOCUMENT), 0);
        assert_eq!(doc.level(a), 1);
        assert_eq!(doc.level(b), 2);
        assert_eq!(doc.level(c), 3);
    }

    #[test]
    fn descendants_are_contiguous() {
        let doc = Document::parse_str("<a><b><c/><d/></b><e/></a>").unwrap();
        let a = doc.root_element().unwrap();
        let b = doc.first_child(a).unwrap();
        let descs: Vec<_> = doc
            .descendants(b)
            .map(|n| doc.tag_name(n).unwrap().to_string())
            .collect();
        assert_eq!(descs, vec!["c", "d"]);
        let all: Vec<_> = doc
            .descendants_or_self(a)
            .filter(|&n| doc.is_element(n))
            .map(|n| doc.tag_name(n).unwrap().to_string())
            .collect();
        assert_eq!(all, vec!["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn whitespace_text_dropped_by_default() {
        let doc = Document::parse_str("<a> <b>x</b> </a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.children(a).count(), 1);
        let kept = Document::parse_str_with(
            "<a> <b>x</b> </a>",
            ParseOptions { keep_whitespace_text: true },
        )
        .unwrap();
        let a = kept.root_element().unwrap();
        assert_eq!(kept.children(a).count(), 3);
    }

    #[test]
    fn adjacent_text_coalesces() {
        // Entity splits the raw text into segments the reader reports
        // separately only via CDATA; force it with CDATA.
        let doc = Document::parse_str("<a>one<![CDATA[ two]]> three</a>").unwrap();
        let a = doc.root_element().unwrap();
        let kids: Vec<_> = doc.children(a).collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(doc.text(kids[0]), Some("one two three"));
    }

    #[test]
    fn string_value_concatenates() {
        let doc = Document::parse_str("<a>x<b>y</b>z</a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.string_value(a), "xyz");
    }

    #[test]
    fn string_value_into_reuses_buffer() {
        let doc = Document::parse_str("<a>x<b>y</b>z</a>").unwrap();
        let a = doc.root_element().unwrap();
        let b = doc.children(a).find(|&c| doc.is_element(c)).unwrap();
        let mut buf = String::with_capacity(16);
        doc.string_value_into(a, &mut buf);
        assert_eq!(buf, "xyz");
        buf.clear();
        doc.string_value_into(b, &mut buf);
        assert_eq!(buf, "y");
    }

    #[test]
    fn ancestors_iterator() {
        let doc = Document::parse_str("<a><b><c/></b></a>").unwrap();
        let a = doc.root_element().unwrap();
        let b = doc.first_child(a).unwrap();
        let c = doc.first_child(b).unwrap();
        let ancs: Vec<_> = doc.ancestors(c).collect();
        assert_eq!(ancs, vec![b, a, NodeId::DOCUMENT]);
    }

    #[test]
    fn deep_equal_paper_semantics() {
        let doc = Document::parse_str(
            "<r><author><last>Knuth</last><first>Donald</first></author>\
             <author><last>Knuth</last><first>Donald</first></author>\
             <author><first>Donald</first><last>Knuth</last></author></r>",
        )
        .unwrap();
        let r = doc.root_element().unwrap();
        let auts: Vec<_> = doc.children(r).collect();
        assert!(doc.deep_equal(auts[0], auts[1]));
        // Order matters for deep-equal.
        assert!(!doc.deep_equal(auts[0], auts[2]));
    }

    #[test]
    fn deep_equal_considers_attributes() {
        let doc = Document::parse_str(r#"<r><x k="1"/><x k="1"/><x k="2"/><x/></r>"#).unwrap();
        let r = doc.root_element().unwrap();
        let xs: Vec<_> = doc.children(r).collect();
        assert!(doc.deep_equal(xs[0], xs[1]));
        assert!(!doc.deep_equal(xs[0], xs[2]));
        assert!(!doc.deep_equal(xs[0], xs[3]));
    }

    #[test]
    fn builder_programmatic() {
        let mut b = Document::builder();
        b.start_element("bib");
        b.start_element("book");
        b.attribute("year", "1968");
        b.text("TAoCP");
        b.end_element();
        b.end_element();
        let doc = b.finish();
        let root = doc.root_element().unwrap();
        let book = doc.first_child(root).unwrap();
        assert_eq!(doc.attribute(book, "year"), Some("1968"));
        assert_eq!(doc.string_value(book), "TAoCP");
    }

    #[test]
    fn elements_iterator_in_document_order() {
        let doc = Document::parse_str("<a><b/><c><d/></c></a>").unwrap();
        let tags: Vec<_> = doc.elements().map(|n| doc.tag_name(n).unwrap()).collect();
        assert_eq!(tags, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn column_views_are_consistent() {
        let doc = Document::parse_str("<a><b>t</b><c/></a>").unwrap();
        let ends = doc.last_desc_column();
        let levels = doc.level_column();
        assert_eq!(ends.len(), doc.len());
        assert_eq!(levels.len(), doc.len());
        for id in 0..doc.len() as u32 {
            let n = NodeId(id);
            assert_eq!(doc.last_descendant(n).0, ends[n.index()]);
            assert_eq!(doc.level(n), levels[n.index()]);
            let r = doc.region(n);
            assert_eq!((r.start, r.end, r.level), (id, ends[n.index()], levels[n.index()]));
        }
    }
}
