//! Result construction sinks.
//!
//! Query evaluation constructs its result once, through a
//! [`ResultSink`]: open an element, add attributes, append text, close,
//! copy source subtrees. Two sinks implement it:
//!
//! * [`TreeBuilder`] builds a result [`Document`];
//! * [`ByteSink`] writes the bytes [`crate::writer::to_string`] would
//!   give for that document, straight from the calls and the source
//!   columns, with no result document in between.
//!
//! The byte sink follows the builder's construction rules, so the two
//! agree byte for byte:
//!
//! * whitespace-only text is dropped, whether it is a literal or inside
//!   a copied subtree (the builder's default [`crate::ParseOptions`]);
//! * adjacent text is written as its concatenation (the builder
//!   coalesces text siblings; escaping is per character, so escaping
//!   the pieces equals escaping the whole);
//! * a start tag's `>` is written only when its element gets a first
//!   child, and an element closed without one is written `<x/>`.

use crate::document::{Document, NodeId, NodeKind, TreeBuilder};
use crate::writer::{self, Step};
use std::time::{Duration, Instant};

/// Where result construction goes.
pub trait ResultSink {
    /// Open an element.
    fn start_element(&mut self, name: &str);
    /// Add an attribute to the element just opened.
    fn attribute(&mut self, name: &str, value: &str);
    /// Append text.
    fn text(&mut self, content: &str);
    /// Close the innermost open element.
    fn end_element(&mut self);
    /// Copy the subtrees of `doc` rooted at `nodes`, in order (the
    /// document node copies its children).
    fn copy(&mut self, doc: &Document, nodes: &[NodeId]);
    /// Wall-clock time spent serializing so far (zero for a sink that
    /// builds rather than writes).
    fn serialize_time(&self) -> Duration {
        Duration::ZERO
    }
}

impl ResultSink for TreeBuilder {
    fn start_element(&mut self, name: &str) {
        TreeBuilder::start_element(self, name);
    }

    fn attribute(&mut self, name: &str, value: &str) {
        TreeBuilder::attribute(self, name, value);
    }

    fn text(&mut self, content: &str) {
        TreeBuilder::text(self, content);
    }

    fn end_element(&mut self) {
        TreeBuilder::end_element(self);
    }

    fn copy(&mut self, doc: &Document, nodes: &[NodeId]) {
        for &node in nodes {
            writer::walk(doc, node, |step| match step {
                Step::Open(n) => match doc.kind(n) {
                    NodeKind::Element(sym) => {
                        TreeBuilder::start_element(self, doc.symbols().name(sym));
                        for (attr, value) in doc.attributes(n) {
                            TreeBuilder::attribute(self, doc.symbols().name(*attr), value);
                        }
                    }
                    NodeKind::Text => TreeBuilder::text(self, doc.text(n).unwrap_or("")),
                    NodeKind::Document => {}
                },
                Step::Close(_) => TreeBuilder::end_element(self),
            });
        }
    }
}

/// A [`ResultSink`] that writes the compact serialization of the result
/// into a `String`.
#[derive(Debug, Default)]
pub struct ByteSink {
    out: String,
    /// Names of the open constructed elements, concatenated.
    names: String,
    /// Where each open element's name starts in `names`.
    open: Vec<usize>,
    /// The last thing written is a start tag without its `>`.
    pending: bool,
    /// Time spent copying source subtrees.
    copying: Duration,
}

impl ByteSink {
    /// An empty sink.
    pub fn new() -> ByteSink {
        ByteSink::default()
    }

    /// The bytes written. Panics if an element is still open.
    pub fn finish(self) -> String {
        assert!(self.open.is_empty(), "unbalanced sink: elements still open");
        self.out
    }

    fn close_pending(&mut self) {
        if std::mem::take(&mut self.pending) {
            self.out.push('>');
        }
    }
}

impl ResultSink for ByteSink {
    fn start_element(&mut self, name: &str) {
        self.close_pending();
        self.out.push('<');
        self.out.push_str(name);
        self.open.push(self.names.len());
        self.names.push_str(name);
        self.pending = true;
    }

    fn attribute(&mut self, name: &str, value: &str) {
        debug_assert!(self.pending, "attribute after content");
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        writer::escape_attr(value, &mut self.out);
        self.out.push('"');
    }

    fn text(&mut self, content: &str) {
        if content.trim().is_empty() {
            return;
        }
        self.close_pending();
        writer::escape_text(content, &mut self.out);
    }

    fn end_element(&mut self) {
        let start = self.open.pop().expect("unbalanced end_element");
        if std::mem::take(&mut self.pending) {
            self.out.push_str("/>");
        } else {
            self.out.push_str("</");
            self.out.push_str(&self.names[start..]);
            self.out.push('>');
        }
        self.names.truncate(start);
    }

    fn copy(&mut self, doc: &Document, nodes: &[NodeId]) {
        if nodes.is_empty() {
            return;
        }
        let t = Instant::now();
        for &node in nodes {
            writer::write_subtree::<true>(doc, node, &mut self.out, &mut self.pending);
        }
        self.copying += t.elapsed();
    }

    /// The time spent in [`ResultSink::copy`]: serializing source
    /// subtrees, nearly all of the writing. Tags and literal text are
    /// too small to be worth two clock reads each.
    fn serialize_time(&self) -> Duration {
        self.copying
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParseOptions;

    /// Drive both sinks with the same calls; the byte sink must equal
    /// the serialized document.
    fn both(calls: impl Fn(&mut dyn ResultSink)) -> (String, String) {
        let mut builder = Document::builder();
        calls(&mut builder);
        let mut bytes = ByteSink::new();
        calls(&mut bytes);
        (writer::to_string(&builder.finish()), bytes.finish())
    }

    #[test]
    fn empty_element_self_closes() {
        let (doc, bytes) = both(|s| {
            s.start_element("result");
            s.end_element();
        });
        assert_eq!(bytes, "<result/>");
        assert_eq!(bytes, doc);
    }

    #[test]
    fn whitespace_only_text_is_dropped_and_text_coalesces() {
        let (doc, bytes) = both(|s| {
            s.start_element("x");
            s.attribute("k", "a\"<&>");
            s.text("  \n");
            s.end_element();
            s.start_element("y");
            s.text("a<");
            s.text(" ");
            s.text("&b");
            s.end_element();
        });
        assert_eq!(bytes, "<x k=\"a&quot;&lt;&amp;>\"/><y>a&lt;&amp;b</y>");
        assert_eq!(bytes, doc);
    }

    #[test]
    fn copies_drop_whitespace_text_inside_subtrees() {
        let src = Document::parse_str_with(
            "<a> <b> </b> <c>x</c> </a>",
            ParseOptions {
                keep_whitespace_text: true,
            },
        )
        .unwrap();
        let a = src.root_element().unwrap();
        let all: Vec<NodeId> = src.descendants_or_self(a).collect();
        let (doc, bytes) = both(|s| {
            s.start_element("r");
            s.copy(&src, &all);
            s.end_element();
        });
        assert_eq!(bytes, doc);
        assert_eq!(bytes, "<r><a><b/><c>x</c></a><b/><c>x</c>x</r>");
    }
}
