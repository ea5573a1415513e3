//! A minimal HTTP/1.1 client for driving `blossom serve`: keep-alive,
//! `Content-Length` framing, and a split into a sending and a receiving
//! half so requests can be pipelined on one connection. Also reads the
//! Prometheus text the server exposes at `/metrics`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Far above any latency the workloads see, far below the run's time cap.
const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(20);

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// The sending half.
pub struct Sender {
    stream: TcpStream,
}

/// The receiving half; responses arrive in request order.
pub struct Receiver {
    reader: BufReader<TcpStream>,
}

pub struct Connection {
    pub tx: Sender,
    pub rx: Receiver,
}

impl Connection {
    pub fn open(addr: &str) -> Result<Connection, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A response that never comes is a failed operation, not a hang.
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Connection {
            tx: Sender { stream },
            rx: Receiver {
                reader: BufReader::new(read_half),
            },
        })
    }

    /// One request, one response.
    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> Result<Response, String> {
        self.tx.send(method, target, body)?;
        self.rx.receive()
    }

    pub fn split(self) -> (Sender, Receiver) {
        (self.tx, self.rx)
    }
}

impl Sender {
    pub fn send(&mut self, method: &str, target: &str, body: &[u8]) -> Result<(), String> {
        let mut message = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body);
        self.stream
            .write_all(&message)
            .map_err(|e| format!("sending {method} {target}: {e}"))
    }

    /// Shut the connection down in both directions, which also wakes a
    /// receiver blocked on it.
    pub fn close(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

impl Receiver {
    pub fn receive(&mut self) -> Result<Response, String> {
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("reading status line: {e}"))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader
                .read_line(&mut line)
                .map_err(|e| format!("reading headers: {e}"))?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad header {header:?}"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("reading body: {e}"))?;
        Ok(Response { status, body })
    }
}

/// Percent-encode a query-string value.
pub fn encode(value: &str) -> String {
    let mut out = String::with_capacity(value.len() * 3);
    for b in value.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// A Prometheus text exposition as `series → value`, the series spelled
/// as in the text (`name{label="v",…}`).
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_query_values() {
        assert_eq!(encode("//a[b c]/d"), "%2F%2Fa%5Bb%20c%5D%2Fd");
        assert_eq!(encode("plain-1_2.~"), "plain-1_2.~");
    }

    #[test]
    fn reads_prometheus_series() {
        let text = "# HELP x y\n# TYPE x counter\nx_total 4\n\
                    stage_sum{endpoint=\"/query\",stage=\"read\"} 0.000007\n";
        let m = parse_prometheus(text);
        assert_eq!(m["x_total"], 4.0);
        assert_eq!(m["stage_sum{endpoint=\"/query\",stage=\"read\"}"], 0.000007);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn pipelined_requests_get_their_responses_in_order() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut buf = [0u8; 4096];
            // Both requests are bodiless; wait for two header terminators.
            while seen.windows(4).filter(|w| w == b"\r\n\r\n").count() < 2 {
                let n = s.read(&mut buf).unwrap();
                seen.extend_from_slice(&buf[..n]);
            }
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\none")
                .unwrap();
            s.write_all(b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n")
                .unwrap();
        });
        let (mut tx, mut rx) = Connection::open(&addr).unwrap().split();
        tx.send("GET", "/a", b"").unwrap();
        tx.send("GET", "/b", b"").unwrap();
        let first = rx.receive().unwrap();
        assert_eq!(
            (first.status, first.body.as_slice()),
            (200, b"one".as_slice())
        );
        assert_eq!(rx.receive().unwrap().status, 404);
        server.join().unwrap();
    }
}
