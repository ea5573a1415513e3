//! A minimal HTTP/1.1 subset — just enough protocol for the query
//! server and its load harness, with no external dependencies.
//!
//! Supported: request lines `METHOD /target HTTP/1.1`, headers,
//! `Content-Length`-framed bodies (no chunked encoding), keep-alive,
//! pipelining, percent-encoded query strings. Oversized request lines,
//! too many headers, and oversized bodies are rejected early with 4xx
//! before any work happens; see `DESIGN.md` §10/§12 for the grammar.
//!
//! The one entry point is [`parse_request_bytes`]: it parses
//! incrementally out of a byte buffer that may hold a partial request,
//! a complete one, or several pipelined ones — the event loop's framing
//! primitive, safe to call again as more TCP segments arrive.
//! [`render_response`] is its output half.

/// Longest accepted request/header line, in bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;

/// A client error detected while reading a request; becomes a 4xx
/// response. The connection is closed afterwards since framing may be
/// lost.
#[derive(Debug)]
pub struct HttpError {
    pub status: u16,
    pub message: String,
}

impl HttpError {
    pub fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError { status, message: message.into() }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path portion of the target, percent-decoded (`/query`).
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub params: Vec<(String, String)>,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// False when the client sent `Connection: close`.
    pub keep_alive: bool,
}

impl Request {
    /// The last value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params.iter().rev().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Split and validate `METHOD /target HTTP/1.x`.
fn split_request_line(request_line: &str) -> Result<(&str, &str), HttpError> {
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) =
        (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::new(400, format!("malformed request line {request_line:?}")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(400, format!("unsupported protocol {version:?}")));
    }
    Ok((method, target))
}

/// Parse one `Name: value` header line into `headers`, enforcing
/// [`MAX_HEADERS`].
fn push_header(headers: &mut Vec<(String, String)>, line: &str) -> Result<(), HttpError> {
    if headers.len() == MAX_HEADERS {
        return Err(HttpError::new(431, format!("more than {MAX_HEADERS} headers")));
    }
    let Some((name, value)) = line.split_once(':') else {
        return Err(HttpError::new(400, format!("malformed header {line:?}")));
    };
    headers.push((name.trim().to_string(), value.trim().to_string()));
    Ok(())
}

/// The validated `Content-Length` (0 when absent), bounded by `max_body`.
fn content_length_of(headers: &[(String, String)], max_body: usize) -> Result<usize, HttpError> {
    let content_length = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::new(400, format!("bad Content-Length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::new(
            413,
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    Ok(content_length)
}

/// Build the [`Request`] once the framing is fully decoded.
fn assemble(method: &str, target: &str, headers: Vec<(String, String)>, body: Vec<u8>) -> Request {
    let keep_alive = !headers
        .iter()
        .any(|(k, v)| k.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("close"));
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let params = query.map(parse_query).unwrap_or_default();
    Request {
        method: method.to_string(),
        path: percent_decode(path),
        params,
        headers,
        body,
        keep_alive,
    }
}

/// Outcome of [`parse_request_bytes`] over an accumulation buffer.
#[derive(Debug)]
pub enum Parsed {
    /// A complete request occupying the first `consumed` bytes of the
    /// buffer; the caller drops them and may parse again (pipelining).
    Complete { request: Request, consumed: usize },
    /// No complete request yet — read more bytes and retry. Nothing is
    /// consumed, so partial TCP segments cost nothing.
    Partial,
}

/// One `\n`-terminated line out of `buf[start..]`, `\r` stripped, with
/// the offset just past the terminator; `None` while the terminator has
/// not arrived. [`MAX_LINE`] is enforced even on unterminated data so a
/// peer cannot grow the buffer without bound.
fn take_line(buf: &[u8], start: usize) -> Result<Option<(&str, usize)>, HttpError> {
    match buf[start..].iter().position(|&b| b == b'\n') {
        Some(nl) => {
            if nl > MAX_LINE {
                return Err(HttpError::new(431, format!("request line over {MAX_LINE} bytes")));
            }
            let mut line = &buf[start..start + nl];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            let line = std::str::from_utf8(line)
                .map_err(|_| HttpError::new(400, "request line not UTF-8"))?;
            Ok(Some((line, start + nl + 1)))
        }
        None if buf.len() - start > MAX_LINE => {
            Err(HttpError::new(431, format!("request line over {MAX_LINE} bytes")))
        }
        None => Ok(None),
    }
}

/// Incrementally parse one request from the front of `buf`.
///
/// This is restartable: on [`Parsed::Partial`] the caller appends newly
/// received bytes and calls again (re-scanning a partial request is
/// cheap — requests are small and bodies are length-checked before they
/// accumulate). Errors are terminal for the connection: framing can no
/// longer be trusted.
pub fn parse_request_bytes(buf: &[u8], max_body: usize) -> Result<Parsed, HttpError> {
    let Some((request_line, mut pos)) = take_line(buf, 0)? else {
        return Ok(Parsed::Partial);
    };
    let (method, target) = split_request_line(request_line)?;
    let (method, target) = (method.to_string(), target.to_string());

    let mut headers = Vec::new();
    loop {
        let Some((line, next)) = take_line(buf, pos)? else {
            return Ok(Parsed::Partial);
        };
        pos = next;
        if line.is_empty() {
            break;
        }
        push_header(&mut headers, line)?;
    }

    // Length-check *before* waiting for the body, so an oversized
    // announcement is rejected without buffering a single body byte.
    let content_length = content_length_of(&headers, max_body)?;
    if buf.len() - pos < content_length {
        return Ok(Parsed::Partial);
    }
    let body = buf[pos..pos + content_length].to_vec();
    Ok(Parsed::Complete {
        request: assemble(&method, &target, headers, body),
        consumed: pos + content_length,
    })
}

/// Decode `k=v&k2=v2` with percent-escapes and `+`-for-space.
fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// RFC 3986 percent-decoding; invalid escapes pass through literally.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex(bytes.get(i + 1)), hex(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex(b: Option<&u8>) -> Option<u8> {
    (*b? as char).to_digit(16).map(|d| d as u8)
}

/// Percent-encode everything outside the RFC 3986 unreserved set, for
/// clients building query strings.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Standard reason phrases for the statuses the server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Render one response with `Content-Length` framing into a byte
/// vector. `close` adds `Connection: close`; `extra_headers` appends
/// literal header lines (e.g. `("Retry-After", "1")` on admission
/// rejections).
pub fn render_response(
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let mut response = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        status,
        status_text(status),
        content_type,
        body.len(),
    )
    .into_bytes();
    for (name, value) in extra_headers {
        response.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    if close {
        response.extend_from_slice(b"Connection: close\r\n");
    }
    response.extend_from_slice(b"\r\n");
    response.extend_from_slice(body);
    response
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse one buffer that must hold exactly one complete request.
    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        match parse_request_bytes(raw, 1024)? {
            Parsed::Complete { request, consumed } => {
                assert_eq!(consumed, raw.len(), "trailing bytes after the request");
                Ok(request)
            }
            Parsed::Partial => panic!("complete request reported partial"),
        }
    }

    #[test]
    fn get_with_params_round_trips() {
        let r = parse(b"GET /query?doc=bib&q=%2F%2Fbook%5Btitle%5D&x=a+b HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/query");
        assert_eq!(r.param("doc"), Some("bib"));
        assert_eq!(r.param("q"), Some("//book[title]"));
        assert_eq!(r.param("x"), Some("a b"));
        assert!(r.keep_alive);
    }

    #[test]
    fn post_reads_content_length_body() {
        let r = parse(b"POST /load?name=d HTTP/1.1\r\nContent-Length: 5\r\n\r\n<r/>\n")
            .unwrap();
        assert_eq!(r.body, b"<r/>\n");
        assert_eq!(r.header("content-length"), Some("5"));
    }

    /// An empty buffer is `Partial`, not an error: nothing was consumed,
    /// so a peer that closes here closes cleanly.
    #[test]
    fn eof_before_request_is_clean_close() {
        assert!(matches!(parse_request_bytes(b"", 1024), Ok(Parsed::Partial)));
    }

    #[test]
    fn malformed_inputs_are_4xx() {
        assert_eq!(parse(b"NONSENSE\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse(b"GET /x SMTP/3\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse(b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err().status,
            413
        );
        assert_eq!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err().status,
            400
        );
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE));
        assert_eq!(parse(long.as_bytes()).unwrap_err().status, 431);
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let r = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
    }

    #[test]
    fn percent_encode_round_trips() {
        let original = "//book[title='a b']/@*";
        assert_eq!(percent_decode(&percent_encode(original)), original);
    }

    /// Feed a request byte-by-byte: the incremental parser must report
    /// `Partial` for every strict prefix and parse the whole thing once
    /// the last byte lands — headers split across TCP segments included.
    #[test]
    fn incremental_parse_survives_partial_reads() {
        let raw: &[u8] =
            b"POST /load?name=d HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\n<r/>\n";
        for cut in 0..raw.len() {
            match parse_request_bytes(&raw[..cut], 1024).unwrap() {
                Parsed::Partial => {}
                Parsed::Complete { .. } => panic!("complete at prefix length {cut}"),
            }
        }
        match parse_request_bytes(raw, 1024).unwrap() {
            Parsed::Complete { request, consumed } => {
                assert_eq!(consumed, raw.len());
                assert_eq!(request.method, "POST");
                assert_eq!(request.param("name"), Some("d"));
                assert_eq!(request.body, b"<r/>\n");
            }
            Parsed::Partial => panic!("full request still partial"),
        }
    }

    /// Two pipelined requests in one buffer: the first parse consumes
    /// exactly the first request, the second parse gets the rest.
    #[test]
    fn incremental_parse_handles_pipelined_requests() {
        let mut raw = Vec::new();
        raw.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n");
        let first_len = raw.len();
        raw.extend_from_slice(b"POST /load?name=x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc");
        // Plus a partial third request still in flight.
        raw.extend_from_slice(b"GET /stats HT");

        let Parsed::Complete { request, consumed } = parse_request_bytes(&raw, 1024).unwrap()
        else {
            panic!("first pipelined request not parsed");
        };
        assert_eq!(request.path, "/healthz");
        assert_eq!(consumed, first_len);

        let Parsed::Complete { request, consumed } =
            parse_request_bytes(&raw[first_len..], 1024).unwrap()
        else {
            panic!("second pipelined request not parsed");
        };
        assert_eq!(request.path, "/load");
        assert_eq!(request.body, b"abc");

        match parse_request_bytes(&raw[first_len + consumed..], 1024).unwrap() {
            Parsed::Partial => {}
            Parsed::Complete { request, .. } => panic!("phantom third request {request:?}"),
        }
    }

    /// Oversized data is rejected even before a line terminator ever
    /// arrives (a peer cannot balloon the buffer), oversized bodies are
    /// rejected from the `Content-Length` announcement alone, and a
    /// buffer that begins with garbage stays an error on re-parse after
    /// more bytes arrive (the reset sequence).
    #[test]
    fn incremental_parse_rejects_oversized_then_reset() {
        // An unterminated request line beyond MAX_LINE: 431 immediately.
        let flood = vec![b'a'; MAX_LINE + 2];
        assert_eq!(parse_request_bytes(&flood, 1024).unwrap_err().status, 431);

        // Oversized Content-Length: 413 with zero body bytes buffered.
        let big = b"POST /load HTTP/1.1\r\nContent-Length: 99999\r\n\r\n";
        assert_eq!(parse_request_bytes(big, 1024).unwrap_err().status, 413);

        // Garbage stays garbage: appending a valid request after the
        // malformed line must not resynchronize the parser — the
        // connection owner closes after the 4xx.
        let mut mixed = b"NOT HTTP AT ALL\r\n".to_vec();
        assert_eq!(parse_request_bytes(&mixed, 1024).unwrap_err().status, 400);
        mixed.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(parse_request_bytes(&mixed, 1024).unwrap_err().status, 400);

        // An oversized *terminated* header line is also 431.
        let mut long_header = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        long_header.extend_from_slice(&vec![b'p'; MAX_LINE]);
        long_header.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse_request_bytes(&long_header, 1024).unwrap_err().status, 431);
    }

    #[test]
    fn render_response_appends_extra_headers() {
        let bytes = render_response(503, "text/plain", b"busy\n", false, &[("Retry-After", "1")]);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nbusy\n"), "{text}");
    }

    #[test]
    fn response_has_length_framing() {
        let text = String::from_utf8(render_response(200, "text/plain", b"hi", false, &[])).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nhi"), "{text}");
    }

    /// Valid requests the fuzz tests below start from: every framing
    /// feature the grammar has (parameters, escapes, bodies holding
    /// CRLF, `Connection: close`, many headers, an empty body).
    const VALID: &[&[u8]] = &[
        b"GET /healthz HTTP/1.1\r\n\r\n",
        b"GET /query?doc=bib&q=%2F%2Fbook%5Btitle%5D&x=a+b HTTP/1.1\r\nHost: h\r\n\r\n",
        b"POST /load?name=d HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\n<r/>\n",
        b"POST /update?doc=d HTTP/1.1\r\nContent-Length: 12\r\n\r\ndelete 1.1\r\n",
        b"GET /stats HTTP/1.0\nConnection: close\n\n",
        b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\nX-A: 1\r\nX-B: : 2\r\n\r\n",
    ];

    /// SplitMix64: a seeded, dependency-free generator, so every run
    /// fuzzes the same inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// `raw` with its `Content-Length` header (added when absent) set to
    /// `value`, the body left as it was.
    fn with_content_length(raw: &[u8], value: &str) -> Vec<u8> {
        let text = String::from_utf8(raw.to_vec()).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
        let mut lines: Vec<String> = head
            .lines()
            .filter(|l| !l.is_empty() && !l.to_ascii_lowercase().starts_with("content-length"))
            .map(str::to_string)
            .collect();
        lines.push(format!("Content-Length: {value}"));
        format!("{}\r\n\r\n{body}", lines.join("\r\n")).into_bytes()
    }

    /// Seeded hostile input: 2,000 mutations of valid requests — bit
    /// flips, truncations, inserted `\r`/`\n`/`:`, and oversized or
    /// non-numeric `Content-Length` values. The parser never panics,
    /// every error is a 400, 413 or 431, and a complete parse never
    /// claims more bytes than the buffer holds.
    #[test]
    fn seeded_mutations_never_panic_and_error_as_4xx() {
        const MAX_BODY: usize = 1024;
        let oversized = ["1025", "99999", "18446744073709551615"];
        let non_numeric = ["", "nope", "-1", "0x10", "5 5", "18446744073709551616", "1e3"];
        let mut rng = Rng(0x48_54_54_50);
        for round in 0..2_000 {
            let base = VALID[rng.below(VALID.len())];
            let mut buf = base.to_vec();
            let kind = round % 5;
            match kind {
                0 => {
                    for _ in 0..1 + rng.below(3) {
                        let at = rng.below(buf.len());
                        buf[at] ^= 1 << rng.below(8);
                    }
                }
                1 => buf.truncate(rng.below(buf.len())),
                2 => {
                    for _ in 0..1 + rng.below(3) {
                        let at = rng.below(buf.len() + 1);
                        buf.insert(at, [b'\r', b'\n', b':'][rng.below(3)]);
                    }
                }
                _ => {
                    let value = if kind == 3 {
                        oversized[rng.below(oversized.len())]
                    } else {
                        non_numeric[rng.below(non_numeric.len())]
                    };
                    buf = with_content_length(base, value);
                    let status = parse_request_bytes(&buf, MAX_BODY).unwrap_err().status;
                    let want = if kind == 3 { 413 } else { 400 };
                    assert_eq!(status, want, "Content-Length {value:?} in {buf:?}");
                    continue;
                }
            }
            match parse_request_bytes(&buf, MAX_BODY) {
                Ok(Parsed::Complete { consumed, .. }) => {
                    assert!(0 < consumed && consumed <= buf.len(), "{buf:?}")
                }
                Ok(Parsed::Partial) => {}
                Err(e) => assert!(
                    matches!(e.status, 400 | 413 | 431),
                    "status {} for {buf:?}",
                    e.status
                ),
            }
        }
    }

    /// Every valid request split at every offset: each strict prefix is
    /// `Partial` (the parser keeps no state, so the next segment simply
    /// extends the buffer), and only the last byte completes it, with
    /// `consumed` the whole request.
    #[test]
    fn every_split_is_partial_until_the_last_byte() {
        for raw in VALID {
            let Parsed::Complete { consumed, .. } = parse_request_bytes(raw, 1024).unwrap() else {
                panic!("valid request {raw:?} is partial");
            };
            assert_eq!(consumed, raw.len());
            for cut in 0..raw.len() {
                assert!(
                    matches!(parse_request_bytes(&raw[..cut], 1024), Ok(Parsed::Partial)),
                    "prefix {cut} of {raw:?}"
                );
            }
        }
    }

    /// Two pipelined requests: the first parse consumes exactly the first
    /// request's bytes, for every ordered pair of valid requests.
    #[test]
    fn pipelined_pairs_consume_the_first_request_only() {
        for first in VALID {
            for second in VALID {
                let buf = [*first, *second].concat();
                let Parsed::Complete { consumed, .. } = parse_request_bytes(&buf, 1024).unwrap()
                else {
                    panic!("pipelined pair is partial");
                };
                assert_eq!(consumed, first.len(), "{buf:?}");
            }
        }
    }
}
