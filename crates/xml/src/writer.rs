//! XML serialization.
//!
//! Serializes a [`Document`] subtree back to markup, escaping text and
//! attribute values. Used for round-trip testing and, through
//! [`crate::sink::ByteSink`], for writing query results straight to
//! bytes.
//!
//! Every walk here is iterative: a subtree is the contiguous preorder id
//! range `node..=last_desc(node)`, and an element closes when the walk
//! reaches its last descendant, found by following `parent` from that
//! node while `last_desc` equals it. No recursion, no allocation, so a
//! document of any depth serializes on any thread's stack.

use crate::document::{Document, NodeId, NodeKind, KIND_BITS, KIND_ELEMENT, KIND_MASK, KIND_TEXT};
use crate::symbol::Sym;

/// The byte sequence with every byte equal to `b`.
const fn splat(b: u8) -> u64 {
    0x0101_0101_0101_0101 * b as u64
}

/// Does the 8-byte word `w` contain a byte equal to the one splatted in
/// `pattern`? (The classic zero-byte test on `w ^ pattern`: exact as a
/// yes/no answer.)
#[inline(always)]
fn has_byte(w: u64, pattern: u64) -> bool {
    let x = w ^ pattern;
    x.wrapping_sub(splat(0x01)) & !x & splat(0x80) != 0
}

/// The entity for one special byte.
#[inline]
fn entity(b: u8) -> &'static str {
    match b {
        b'<' => "&lt;",
        b'>' => "&gt;",
        b'&' => "&amp;",
        _ => "&quot;",
    }
}

/// Append `s` to `out` with each byte in `specials` replaced by its
/// entity. Eight-byte words holding none of the three specials are
/// skipped whole; a word that holds one is scanned byte by byte. The
/// specials are ASCII, so every split point is a UTF-8 boundary.
#[inline(always)]
fn escape(s: &str, out: &mut String, specials: [u8; 3]) {
    let bytes = s.as_bytes();
    let [a, b, c] = specials.map(splat);
    let mut clean = 0; // start of the run not yet copied
    let mut i = 0;
    while i < bytes.len() {
        if let Some(word) = bytes.get(i..i + 8) {
            let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            if !(has_byte(w, a) || has_byte(w, b) || has_byte(w, c)) {
                i += 8;
                continue;
            }
        }
        for j in i..(i + 8).min(bytes.len()) {
            if specials.contains(&bytes[j]) {
                out.push_str(&s[clean..j]);
                out.push_str(entity(bytes[j]));
                clean = j + 1;
            }
        }
        i += 8;
    }
    out.push_str(&s[clean..]);
}

/// Escape `text` for use as character data (`&`, `<`, `>`).
pub fn escape_text(text: &str, out: &mut String) {
    escape(text, out, [b'<', b'>', b'&']);
}

/// Escape `value` for use inside a double-quoted attribute (`&`, `<`,
/// `"`).
pub fn escape_attr(value: &str, out: &mut String) {
    escape(value, out, [b'<', b'&', b'"']);
}

/// One step of [`walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// A node, in document order.
    Open(NodeId),
    /// An element, after its last descendant.
    Close(NodeId),
}

/// Visit the subtree rooted at `node` in document order: `Open` for
/// every node, `Close` for every element once its subtree is done.
#[inline]
pub(crate) fn walk(doc: &Document, node: NodeId, mut visit: impl FnMut(Step)) {
    let last_desc: &[u32] = &doc.last_desc;
    let parent: &[u32] = &doc.parent;
    let kind_sym: &[u32] = &doc.kind_sym;
    for i in node.0..=last_desc[node.index()] {
        visit(Step::Open(NodeId(i)));
        if last_desc[i as usize] != i {
            continue; // an element with children: closed by its last descendant
        }
        // A leaf ends itself and every ancestor (within the subtree)
        // whose subtree ends here.
        let mut e = i;
        loop {
            if kind_sym[e as usize] & KIND_MASK == KIND_ELEMENT {
                visit(Step::Close(NodeId(e)));
            }
            if e == node.0 {
                break;
            }
            e = parent[e as usize];
            if last_desc[e as usize] != i {
                break;
            }
        }
    }
}

/// Write the start tag of element `n` up to, not including, its `>`.
#[inline]
fn open_tag(doc: &Document, n: NodeId, name: &str, out: &mut String) {
    out.push('<');
    out.push_str(name);
    if doc.attrs.is_empty() {
        return;
    }
    for (attr, value) in doc.attributes(n) {
        out.push(' ');
        out.push_str(doc.symbols().name(*attr));
        out.push_str("=\"");
        escape_attr(value, out);
        out.push('"');
    }
}

/// Serialize the subtree at `node`. `pending` says the last thing
/// written is a start tag still missing its `>`: it is written before
/// the next content, and an element closed while its own tag is pending
/// becomes `<x/>`. With `CONSTRUCT`, whitespace-only text is dropped as
/// result construction drops it (`TreeBuilder::text`), so an element
/// left with no other children writes `<x/>` too.
#[inline]
pub(crate) fn write_subtree<const CONSTRUCT: bool>(
    doc: &Document,
    node: NodeId,
    out: &mut String,
    pending: &mut bool,
) {
    let symbols = doc.symbols();
    let kind_sym: &[u32] = &doc.kind_sym;
    let payload = |n: NodeId| (kind_sym[n.index()] >> KIND_BITS) as usize;
    walk(doc, node, |step| match step {
        Step::Open(n) => match kind_sym[n.index()] & KIND_MASK {
            KIND_ELEMENT => {
                if *pending {
                    out.push('>');
                }
                open_tag(doc, n, symbols.name(Sym(payload(n) as u32)), out);
                *pending = true;
            }
            KIND_TEXT => {
                let text = doc.texts.get(payload(n));
                if CONSTRUCT && text.trim().is_empty() {
                    return;
                }
                if std::mem::take(pending) {
                    out.push('>');
                }
                escape_text(text, out);
            }
            _ => {} // the document node: its children follow
        },
        Step::Close(n) => {
            if std::mem::take(pending) {
                out.push_str("/>");
            } else {
                out.push_str("</");
                out.push_str(symbols.name(Sym(payload(n) as u32)));
                out.push('>');
            }
        }
    });
}

/// Serialize the subtree rooted at `node` (compact; no added whitespace).
pub fn write_node(doc: &Document, node: NodeId, out: &mut String) {
    write_subtree::<false>(doc, node, out, &mut false);
}

/// Serialize the whole document (compact).
pub fn to_string(doc: &Document) -> String {
    let mut out = String::new();
    write_node(doc, NodeId::DOCUMENT, &mut out);
    out
}

/// Serialize with two-space indentation, one element per line. Text nodes
/// are emitted inline when they are an element's only child.
pub fn to_string_pretty(doc: &Document) -> String {
    let mut out = String::new();
    if let Some(root) = doc.root_element() {
        write_pretty(doc, root, &mut out);
    }
    out
}

fn write_pretty(doc: &Document, root: NodeId, out: &mut String) {
    let base = doc.level(root);
    let indent = |n: NodeId, out: &mut String| {
        for _ in base..doc.level(n) {
            out.push_str("  ");
        }
    };
    // An element whose only child is text is written whole, on one line,
    // when it opens; its text and its close are then skipped.
    let mut inline = None;
    walk(doc, root, |step| match step {
        Step::Open(n) => match doc.kind(n) {
            NodeKind::Element(sym) => {
                indent(n, out);
                open_tag(doc, n, doc.symbols().name(sym), out);
                match doc.first_child(n) {
                    None => out.push_str("/>\n"),
                    Some(only) if doc.next_sibling(only).is_none() && doc.text(only).is_some() => {
                        out.push('>');
                        escape_text(doc.text(only).unwrap_or(""), out);
                        out.push_str("</");
                        out.push_str(doc.symbols().name(sym));
                        out.push_str(">\n");
                        inline = Some(n);
                    }
                    Some(_) => out.push_str(">\n"),
                }
            }
            NodeKind::Text => {
                if inline.is_some_and(|e| doc.parent(n) == Some(e)) {
                    return;
                }
                indent(n, out);
                escape_text(doc.text(n).unwrap_or(""), out);
                out.push('\n');
            }
            NodeKind::Document => unreachable!("pretty printer starts at the root element"),
        },
        Step::Close(n) => {
            if inline == Some(n) || doc.first_child(n).is_none() {
                return;
            }
            indent(n, out);
            out.push_str("</");
            out.push_str(doc.tag_name(n).unwrap_or(""));
            out.push_str(">\n");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Document;

    #[test]
    fn roundtrip_compact() {
        let src = r#"<bib><book year="1994"><title>a &amp; b</title></book><empty/></bib>"#;
        let doc = Document::parse_str(src).unwrap();
        assert_eq!(to_string(&doc), src);
    }

    #[test]
    fn escaping() {
        let mut s = String::new();
        escape_text("a<b>&c", &mut s);
        assert_eq!(s, "a&lt;b&gt;&amp;c");
        let mut s = String::new();
        escape_attr("say \"hi\" & <go>", &mut s);
        assert_eq!(s, "say &quot;hi&quot; &amp; &lt;go>");
    }

    #[test]
    fn escaping_skips_clean_words_and_finds_specials_in_dirty_ones() {
        let mut s = String::new();
        escape_text("0123456789abcdef<0123456789ab&cdé>", &mut s);
        assert_eq!(s, "0123456789abcdef&lt;0123456789ab&amp;cdé&gt;");
    }

    #[test]
    fn reparse_equals_original() {
        let src = r#"<a x="1&quot;2"><b>t1</b>mid<c><d/></c></a>"#;
        let doc = Document::parse_str(src).unwrap();
        let serialized = to_string(&doc);
        let doc2 = Document::parse_str(&serialized).unwrap();
        assert_eq!(to_string(&doc2), serialized);
        let (r1, r2) = (doc.root_element().unwrap(), doc2.root_element().unwrap());
        assert_eq!(doc.stats(), doc2.stats());
        assert_eq!(doc.string_value(r1), doc2.string_value(r2));
    }

    #[test]
    fn subtrees_close_only_their_own_ancestors() {
        let doc = Document::parse_str("<a><b><c>x</c></b><d/></a>").unwrap();
        let a = doc.root_element().unwrap();
        let b = doc.first_child(a).unwrap();
        let mut out = String::new();
        write_node(&doc, b, &mut out);
        assert_eq!(out, "<b><c>x</c></b>");
        out.clear();
        write_node(
            &doc,
            doc.first_child(doc.first_child(b).unwrap()).unwrap(),
            &mut out,
        );
        assert_eq!(out, "x");
    }

    #[test]
    fn pretty_printing() {
        let doc = Document::parse_str("<a><b>x</b><c><d/></c></a>").unwrap();
        let pretty = to_string_pretty(&doc);
        assert_eq!(pretty, "<a>\n  <b>x</b>\n  <c>\n    <d/>\n  </c>\n</a>\n");
        let doc = Document::parse_str("<a>t<b>x</b>u</a>").unwrap();
        assert_eq!(to_string_pretty(&doc), "<a>\n  t\n  <b>x</b>\n  u\n</a>\n");
    }
}
