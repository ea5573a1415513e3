#![warn(missing_docs)]

//! XML substrate for the BlossomTree query engine.
//!
//! This crate provides everything the BlossomTree paper assumes of its
//! storage layer:
//!
//! * a from-scratch streaming XML parser ([`parser::Reader`]),
//! * an arena-allocated document tree ([`Document`]) whose node ids are
//!   assigned in document (pre-) order, so that every subtree occupies a
//!   contiguous id range and structural predicates reduce to integer
//!   comparisons,
//! * region labels and Dewey identifiers ([`label`], [`dewey`]),
//! * tag-name indexes in document order ([`index::TagIndex`]), as required
//!   by holistic twig joins,
//! * document statistics ([`stats::DocStats`]) — depth, tag counts and
//!   recursion degree — which the optimizer uses to choose join operators,
//! * a serializer ([`writer`]) for round-tripping, and result construction
//!   sinks ([`sink`]) that build a result document or write its bytes.
//!
//! # Quick example
//!
//! ```
//! use blossom_xml::Document;
//!
//! let doc = Document::parse_str("<bib><book><title>TAoCP</title></book></bib>").unwrap();
//! let root = doc.root_element().unwrap();
//! assert_eq!(doc.tag_name(root), Some("bib"));
//! assert_eq!(doc.stats().element_count, 3);
//! ```

pub mod colsrc;
pub mod dewey;
pub mod document;
pub mod fxhash;
pub mod index;
pub mod label;
pub mod mutate;
pub mod navigate;
pub mod parser;
pub mod sink;
pub mod stats;
pub mod symbol;
pub mod writer;

pub use colsrc::{Col, ColElem, Mapping, TextStore};
pub use dewey::Dewey;
pub use document::{ColumnParts, Document, NodeId, NodeKind, ParseOptions, TreeBuilder};
pub use index::{gallop, PostingList, TagIndex};
pub use label::Region;
pub use mutate::{Mutation, Splice};
pub use navigate::Axis;
pub use parser::{Event, ParseError, Reader};
pub use sink::{ByteSink, ResultSink};
pub use stats::DocStats;
pub use symbol::{Sym, SymbolTable};

// The query server shares `&Document` / `&TagIndex` across its worker
// threads; fail the build immediately if either ever grows
// a non-thread-safe field (`Rc`, `Cell`, raw pointers, …).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Document>();
    assert_send_sync::<TagIndex>();
    assert_send_sync::<SymbolTable>();
};
