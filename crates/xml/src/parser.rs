//! A from-scratch streaming (SAX-style) XML parser.
//!
//! [`Reader`] walks a UTF-8 input buffer and yields [`Event`]s. It supports
//! the XML constructs that occur in data-centric documents: elements,
//! attributes (single- or double-quoted), character data, CDATA sections,
//! comments, processing instructions, an XML declaration, a DOCTYPE (whose
//! internal subset is skipped), and the five predefined entities plus
//! decimal/hexadecimal character references.
//!
//! The reader validates well-formedness as it goes: end tags must match
//! the open element, exactly one root element is allowed, and content past
//! the root is rejected. Namespace processing is out of scope — prefixed
//! names are treated as opaque tag names, which matches how the paper's
//! datasets and queries use them.

use std::borrow::Cow;
use std::fmt;

/// A parse event. Borrowed slices point into the input buffer; text that
/// required entity decoding is owned.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// `<name attr="v" ...>` or `<name/>` (the latter sets `self_closing`
    /// and is *not* followed by a matching [`Event::EndElement`]).
    StartElement {
        /// Tag name as written (prefix included, if any).
        name: &'a str,
        /// Attributes in document order.
        attributes: Vec<(&'a str, Cow<'a, str>)>,
        /// True for `<name/>`.
        self_closing: bool,
    },
    /// `</name>`.
    EndElement {
        /// Tag name as written.
        name: &'a str,
    },
    /// Character data, with entities decoded. CDATA sections are delivered
    /// as text with no decoding.
    Text(Cow<'a, str>),
    /// `<!-- ... -->` (content between the markers).
    Comment(&'a str),
    /// `<?target data?>`.
    ProcessingInstruction {
        /// The PI target.
        target: &'a str,
        /// Everything between the target and `?>`, trimmed of leading space.
        data: &'a str,
    },
    /// `<!DOCTYPE ...>` — raw content, internal subset skipped.
    Doctype(&'a str),
}

/// Why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended inside a construct.
    UnexpectedEof,
    /// A tag was syntactically malformed.
    MalformedTag,
    /// `</b>` closed an open `<a>`.
    MismatchedTag {
        /// The element that was open.
        expected: String,
        /// The end tag that was found.
        found: String,
    },
    /// An entity reference could not be decoded.
    InvalidEntity,
    /// Character data appeared outside the root element.
    ContentOutsideRoot,
    /// A second root element was found.
    MultipleRoots,
    /// The document contains no root element.
    NoRootElement,
    /// An attribute name was repeated within one tag.
    DuplicateAttribute(String),
    /// Raw `<` or other invalid character where markup was required.
    InvalidCharacter(char),
    /// End tags remained open at end of input.
    UnclosedElements(Vec<String>),
    /// A node would sit deeper than the `u16` level column can hold.
    TooDeep,
}

/// A parse error with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ParseErrorKind::*;
        match &self.kind {
            UnexpectedEof => write!(f, "unexpected end of input at byte {}", self.offset),
            MalformedTag => write!(f, "malformed tag at byte {}", self.offset),
            MismatchedTag { expected, found } => write!(
                f,
                "mismatched end tag </{found}> (expected </{expected}>) at byte {}",
                self.offset
            ),
            InvalidEntity => write!(f, "invalid entity reference at byte {}", self.offset),
            ContentOutsideRoot => {
                write!(f, "character data outside root element at byte {}", self.offset)
            }
            MultipleRoots => write!(f, "second root element at byte {}", self.offset),
            NoRootElement => write!(f, "document has no root element"),
            DuplicateAttribute(name) => {
                write!(f, "duplicate attribute '{name}' at byte {}", self.offset)
            }
            InvalidCharacter(c) => write!(f, "invalid character {c:?} at byte {}", self.offset),
            UnclosedElements(tags) => {
                write!(f, "unclosed elements at end of input: {}", tags.join(", "))
            }
            TooDeep => write!(
                f,
                "document would nest elements deeper than {} levels at byte {}",
                u16::MAX,
                self.offset
            ),
        }
    }
}

impl std::error::Error for ParseError {}

/// Streaming XML reader.
///
/// Call [`Reader::next_event`] until it returns `Ok(None)`.
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    /// Open element names, for end-tag matching.
    stack: Vec<&'a str>,
    /// Whether the (single) root element has been seen and closed.
    root_done: bool,
    seen_root: bool,
}

impl<'a> Reader<'a> {
    /// Create a reader over `input`.
    pub fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            stack: Vec::with_capacity(16),
            root_done: false,
            seen_root: false,
        }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError { kind, offset: self.pos }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_whitespace(&mut self) {
        let rest = self.rest();
        let n = rest.len() - rest.trim_start().len();
        self.bump(n);
    }

    /// Yield the next event, or `Ok(None)` at a well-formed end of input.
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>, ParseError> {
        loop {
            if self.pos >= self.input.len() {
                if !self.stack.is_empty() {
                    let open = self.stack.iter().map(|s| s.to_string()).collect();
                    return Err(self.err(ParseErrorKind::UnclosedElements(open)));
                }
                if !self.seen_root {
                    return Err(self.err(ParseErrorKind::NoRootElement));
                }
                return Ok(None);
            }
            let rest = self.rest();
            if let Some(stripped) = rest.strip_prefix('<') {
                if stripped.starts_with("!--") {
                    return self.parse_comment().map(Some);
                } else if stripped.starts_with("![CDATA[") {
                    return self.parse_cdata().map(Some);
                } else if stripped.starts_with("!DOCTYPE") {
                    return self.parse_doctype().map(Some);
                } else if stripped.starts_with('?') {
                    return self.parse_pi().map(Some);
                } else if stripped.starts_with('/') {
                    return self.parse_end_tag().map(Some);
                } else {
                    return self.parse_start_tag().map(Some);
                }
            } else if self.stack.is_empty() {
                // Outside the root element only whitespace is allowed.
                let before = self.pos;
                self.skip_whitespace();
                if self.pos == before {
                    return Err(self.err(ParseErrorKind::ContentOutsideRoot));
                }
            } else {
                return self.parse_text().map(Some);
            }
        }
    }

    fn parse_comment(&mut self) -> Result<Event<'a>, ParseError> {
        // at "<!--"
        let start = self.pos + 4;
        match self.input[start..].find("-->") {
            Some(end) => {
                let content = &self.input[start..start + end];
                self.pos = start + end + 3;
                Ok(Event::Comment(content))
            }
            None => {
                self.pos = self.input.len();
                Err(self.err(ParseErrorKind::UnexpectedEof))
            }
        }
    }

    fn parse_cdata(&mut self) -> Result<Event<'a>, ParseError> {
        // at "<![CDATA["
        let start = self.pos + 9;
        match self.input[start..].find("]]>") {
            Some(end) => {
                if self.stack.is_empty() {
                    return Err(self.err(ParseErrorKind::ContentOutsideRoot));
                }
                let content = &self.input[start..start + end];
                self.pos = start + end + 3;
                Ok(Event::Text(Cow::Borrowed(content)))
            }
            None => {
                self.pos = self.input.len();
                Err(self.err(ParseErrorKind::UnexpectedEof))
            }
        }
    }

    fn parse_doctype(&mut self) -> Result<Event<'a>, ParseError> {
        // at "<!DOCTYPE"; skip to the matching '>' accounting for an
        // internal subset in [...].
        let start = self.pos + 9;
        let bytes = self.input.as_bytes();
        let mut i = start;
        let mut bracket_depth = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'[' => bracket_depth += 1,
                b']' => bracket_depth = bracket_depth.saturating_sub(1),
                b'>' if bracket_depth == 0 => {
                    let content = self.input[start..i].trim();
                    self.pos = i + 1;
                    return Ok(Event::Doctype(content));
                }
                _ => {}
            }
            i += 1;
        }
        self.pos = self.input.len();
        Err(self.err(ParseErrorKind::UnexpectedEof))
    }

    fn parse_pi(&mut self) -> Result<Event<'a>, ParseError> {
        // at "<?"
        let start = self.pos + 2;
        match self.input[start..].find("?>") {
            Some(end) => {
                let content = &self.input[start..start + end];
                self.pos = start + end + 2;
                let (target, data) = match content.find(|c: char| c.is_ascii_whitespace()) {
                    Some(i) => (&content[..i], content[i..].trim_start()),
                    None => (content, ""),
                };
                Ok(Event::ProcessingInstruction { target, data })
            }
            None => {
                self.pos = self.input.len();
                Err(self.err(ParseErrorKind::UnexpectedEof))
            }
        }
    }

    fn parse_end_tag(&mut self) -> Result<Event<'a>, ParseError> {
        // at "</"
        let start = self.pos + 2;
        let rel_end = self.input[start..]
            .find('>')
            .ok_or_else(|| self.err(ParseErrorKind::UnexpectedEof))?;
        let name = self.input[start..start + rel_end].trim_end();
        if name.is_empty() || !is_name(name) {
            return Err(self.err(ParseErrorKind::MalformedTag));
        }
        match self.stack.pop() {
            Some(open) if open == name => {
                self.pos = start + rel_end + 1;
                if self.stack.is_empty() {
                    self.root_done = true;
                }
                Ok(Event::EndElement { name })
            }
            Some(open) => Err(self.err(ParseErrorKind::MismatchedTag {
                expected: open.to_string(),
                found: name.to_string(),
            })),
            None => Err(self.err(ParseErrorKind::MalformedTag)),
        }
    }

    fn parse_start_tag(&mut self) -> Result<Event<'a>, ParseError> {
        // at "<"
        if self.root_done {
            return Err(self.err(ParseErrorKind::MultipleRoots));
        }
        let mut i = self.pos + 1;
        let bytes = self.input.as_bytes();

        // Tag name.
        let name_start = i;
        while i < bytes.len() && is_name_byte(bytes[i]) {
            i += 1;
        }
        if i == name_start {
            return Err(self.err(ParseErrorKind::MalformedTag));
        }
        let name = &self.input[name_start..i];

        // Attributes.
        let mut attributes: Vec<(&'a str, Cow<'a, str>)> = Vec::new();
        loop {
            // Skip whitespace.
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= bytes.len() {
                self.pos = i;
                return Err(self.err(ParseErrorKind::UnexpectedEof));
            }
            match bytes[i] {
                b'>' => {
                    self.pos = i + 1;
                    self.stack.push(name);
                    self.seen_root = true;
                    return Ok(Event::StartElement { name, attributes, self_closing: false });
                }
                b'/' => {
                    if i + 1 >= bytes.len() || bytes[i + 1] != b'>' {
                        self.pos = i;
                        return Err(self.err(ParseErrorKind::MalformedTag));
                    }
                    self.pos = i + 2;
                    self.seen_root = true;
                    if self.stack.is_empty() {
                        self.root_done = true;
                    }
                    return Ok(Event::StartElement { name, attributes, self_closing: true });
                }
                _ => {
                    // Attribute name.
                    let attr_start = i;
                    while i < bytes.len() && is_name_byte(bytes[i]) {
                        i += 1;
                    }
                    if i == attr_start {
                        self.pos = i;
                        return Err(self.err(ParseErrorKind::MalformedTag));
                    }
                    let attr_name = &self.input[attr_start..i];
                    // Skip whitespace around '='.
                    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    if i >= bytes.len() || bytes[i] != b'=' {
                        self.pos = i;
                        return Err(self.err(ParseErrorKind::MalformedTag));
                    }
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    if i >= bytes.len() || (bytes[i] != b'"' && bytes[i] != b'\'') {
                        self.pos = i;
                        return Err(self.err(ParseErrorKind::MalformedTag));
                    }
                    let quote = bytes[i];
                    i += 1;
                    let val_start = i;
                    while i < bytes.len() && bytes[i] != quote {
                        i += 1;
                    }
                    if i >= bytes.len() {
                        self.pos = i;
                        return Err(self.err(ParseErrorKind::UnexpectedEof));
                    }
                    let raw_value = &self.input[val_start..i];
                    i += 1; // closing quote
                    if attributes.iter().any(|(n, _)| *n == attr_name) {
                        self.pos = attr_start;
                        return Err(
                            self.err(ParseErrorKind::DuplicateAttribute(attr_name.to_string()))
                        );
                    }
                    let value = decode_entities(raw_value).map_err(|off| ParseError {
                        kind: ParseErrorKind::InvalidEntity,
                        offset: val_start + off,
                    })?;
                    attributes.push((attr_name, value));
                }
            }
        }
    }

    fn parse_text(&mut self) -> Result<Event<'a>, ParseError> {
        let start = self.pos;
        let rel_end = self.rest().find('<').unwrap_or(self.rest().len());
        let raw = &self.input[start..start + rel_end];
        self.pos = start + rel_end;
        let text = decode_entities(raw).map_err(|off| ParseError {
            kind: ParseErrorKind::InvalidEntity,
            offset: start + off,
        })?;
        Ok(Event::Text(text))
    }
}

/// Is `s` a plausible XML name (ASCII approximation + any non-ASCII)?
fn is_name(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(is_name_byte)
}

#[inline]
fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80
}

/// Decode the predefined entities and numeric character references in `raw`.
///
/// Returns `Cow::Borrowed` when no `&` occurs. On failure, returns the byte
/// offset of the bad reference within `raw`.
pub fn decode_entities(raw: &str) -> Result<Cow<'_, str>, usize> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    let mut consumed = 0usize;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        let semi = after.find(';').ok_or(consumed + amp)?;
        let entity = &after[..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ => {
                let code = if let Some(hex) = entity.strip_prefix("#x").or(entity.strip_prefix("#X"))
                {
                    u32::from_str_radix(hex, 16).map_err(|_| consumed + amp)?
                } else if let Some(dec) = entity.strip_prefix('#') {
                    dec.parse::<u32>().map_err(|_| consumed + amp)?
                } else {
                    return Err(consumed + amp);
                };
                out.push(char::from_u32(code).ok_or(consumed + amp)?);
            }
        }
        consumed += amp + 1 + semi + 1;
        rest = &after[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Vec<Event<'_>> {
        let mut reader = Reader::new(input);
        let mut out = Vec::new();
        while let Some(ev) = reader.next_event().expect("parse ok") {
            out.push(ev);
        }
        out
    }

    fn parse_err(input: &str) -> ParseErrorKind {
        let mut reader = Reader::new(input);
        loop {
            match reader.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("expected error for {input:?}"),
                Err(e) => return e.kind,
            }
        }
    }

    #[test]
    fn simple_element() {
        let evs = events("<a>hi</a>");
        assert_eq!(evs.len(), 3);
        assert!(matches!(&evs[0], Event::StartElement { name: "a", .. }));
        assert_eq!(evs[1], Event::Text(Cow::Borrowed("hi")));
        assert_eq!(evs[2], Event::EndElement { name: "a" });
    }

    #[test]
    fn nested_elements_and_depth() {
        let mut r = Reader::new("<a><b><c/></b></a>");
        assert!(matches!(r.next_event().unwrap(), Some(Event::StartElement { name: "a", .. })));
        assert_eq!(r.depth(), 1);
        assert!(matches!(r.next_event().unwrap(), Some(Event::StartElement { name: "b", .. })));
        assert_eq!(r.depth(), 2);
        assert!(matches!(
            r.next_event().unwrap(),
            Some(Event::StartElement { name: "c", self_closing: true, .. })
        ));
        assert_eq!(r.depth(), 2);
    }

    #[test]
    fn self_closing_root() {
        let evs = events("<a/>");
        assert_eq!(evs.len(), 1);
        assert!(matches!(&evs[0], Event::StartElement { self_closing: true, .. }));
    }

    #[test]
    fn attributes_double_and_single_quotes() {
        let evs = events(r#"<a x="1" y='two'/>"#);
        match &evs[0] {
            Event::StartElement { attributes, .. } => {
                assert_eq!(attributes.len(), 2);
                assert_eq!(attributes[0], ("x", Cow::Borrowed("1")));
                assert_eq!(attributes[1], ("y", Cow::Borrowed("two")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn attribute_value_entities() {
        let evs = events(r#"<a x="a&amp;b&#65;"/>"#);
        match &evs[0] {
            Event::StartElement { attributes, .. } => {
                assert_eq!(attributes[0].1, "a&bA");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn text_entities() {
        let evs = events("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2; &#x41;&apos;&quot;</a>");
        assert_eq!(evs[1], Event::Text(Cow::Owned::<str>("1 < 2 && 3 > 2; A'\"".into())));
    }

    #[test]
    fn cdata_is_raw_text() {
        let evs = events("<a><![CDATA[<not> &parsed;]]></a>");
        assert_eq!(evs[1], Event::Text(Cow::Borrowed("<not> &parsed;")));
    }

    #[test]
    fn comments_pis_doctype() {
        let evs =
            events("<?xml version=\"1.0\"?><!DOCTYPE bib [<!ELEMENT bib (book*)>]><!--c--><a/>");
        assert!(matches!(
            &evs[0],
            Event::ProcessingInstruction { target: "xml", .. }
        ));
        assert!(matches!(&evs[1], Event::Doctype(_)));
        assert_eq!(evs[2], Event::Comment("c"));
        assert!(matches!(&evs[3], Event::StartElement { name: "a", .. }));
    }

    #[test]
    fn mismatched_tag_is_error() {
        assert!(matches!(
            parse_err("<a><b></a></b>"),
            ParseErrorKind::MismatchedTag { .. }
        ));
    }

    #[test]
    fn unclosed_is_error() {
        assert!(matches!(parse_err("<a><b>"), ParseErrorKind::UnclosedElements(_)));
    }

    #[test]
    fn multiple_roots_is_error() {
        assert_eq!(parse_err("<a/><b/>"), ParseErrorKind::MultipleRoots);
    }

    #[test]
    fn text_outside_root_is_error() {
        assert_eq!(parse_err("hello<a/>"), ParseErrorKind::ContentOutsideRoot);
    }

    #[test]
    fn empty_input_is_error() {
        assert_eq!(parse_err(""), ParseErrorKind::NoRootElement);
        assert_eq!(parse_err("   \n "), ParseErrorKind::NoRootElement);
    }

    #[test]
    fn bad_entity_is_error() {
        assert_eq!(parse_err("<a>&nosuch;</a>"), ParseErrorKind::InvalidEntity);
        assert_eq!(parse_err("<a>&#xZZ;</a>"), ParseErrorKind::InvalidEntity);
        assert_eq!(parse_err("<a>& loose</a>"), ParseErrorKind::InvalidEntity);
    }

    #[test]
    fn duplicate_attribute_is_error() {
        assert!(matches!(
            parse_err(r#"<a x="1" x="2"/>"#),
            ParseErrorKind::DuplicateAttribute(_)
        ));
    }

    #[test]
    fn malformed_tags_are_errors() {
        assert_eq!(parse_err("<a><></a>"), ParseErrorKind::MalformedTag);
        assert_eq!(parse_err("<a x></a>"), ParseErrorKind::MalformedTag);
        assert_eq!(parse_err("<a x=1></a>"), ParseErrorKind::MalformedTag);
    }

    #[test]
    fn eof_inside_tag() {
        assert_eq!(parse_err("<a"), ParseErrorKind::UnexpectedEof);
        assert_eq!(parse_err("<a x=\"1"), ParseErrorKind::UnexpectedEof);
        assert_eq!(parse_err("<!--never closed"), ParseErrorKind::UnexpectedEof);
    }

    #[test]
    fn whitespace_text_is_preserved_by_reader() {
        // The reader reports all text; dropping whitespace-only runs is the
        // tree builder's policy decision.
        let evs = events("<a> <b/> </a>");
        assert_eq!(evs[1], Event::Text(Cow::Borrowed(" ")));
    }

    #[test]
    fn decode_entities_borrows_when_clean() {
        assert!(matches!(decode_entities("plain").unwrap(), Cow::Borrowed(_)));
        assert!(matches!(decode_entities("a&lt;b").unwrap(), Cow::Owned(_)));
    }

    #[test]
    fn deep_nesting() {
        let mut s = String::new();
        for _ in 0..500 {
            s.push_str("<d>");
        }
        for _ in 0..500 {
            s.push_str("</d>");
        }
        let evs = events(&s);
        assert_eq!(evs.len(), 1000);
    }
}
