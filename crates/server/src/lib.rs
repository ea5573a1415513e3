//! `blossom-server` — `blossomd`, a zero-dependency concurrent query
//! server over the BlossomTree engine.
//!
//! The serving model inverts the CLI's: instead of parse → index →
//! evaluate → exit per invocation, a server process loads documents
//! into a shared [`catalog::Catalog`] once and then answers any number
//! of concurrent queries over them, amortizing parsing, indexing, *and*
//! planning (one process-wide [`blossom_core::SharedPlanCache`]). See
//! `DESIGN.md` §10 for the architecture and protocol grammar.
//!
//! Layers:
//!
//! * [`http`] — a minimal dependency-free HTTP/1.1 subset
//!   (`Content-Length` framing only) with early 4xx rejection of
//!   malformed or oversized requests;
//! * [`catalog`] — named `Arc`-shared immutable documents behind a
//!   byte-bounded LRU;
//! * [`metrics`] — lock-free counters and log-scaled latency
//!   histograms (global and per endpoint) feeding `GET /stats`;
//! * [`sys`] — a zero-dependency readiness shim (epoll on Linux,
//!   poll(2) elsewhere) plus a cross-thread waker and a thread-CPU
//!   clock;
//! * [`span`] — per-request lifecycle spans: process-unique ids and
//!   stage laps (read/parse/queue/batch/execute/serialize/write) that
//!   sum to the request's wall time by construction;
//! * [`promtext`] — Prometheus text-exposition rendering for
//!   `GET /metrics`, plus the in-tree format checker the tests and the
//!   load harness run against scrapes;
//! * [`accesslog`] — the structured slow-query/access log: single-line
//!   JSON records gated by `--slow-ms`, deterministic sampling, or
//!   `?trace=1`;
//! * [`sched`] — the bounded per-client fair execution queue and the
//!   shared-scan batch registry;
//! * [`eventloop`] — the serving core: nonblocking I/O threads
//!   owning connection state machines (incremental framing,
//!   pipelining, keep-alive without timeout polling), an execution
//!   pool, request coalescing, and admission control;
//! * [`server`] — configuration, request routing, per-request
//!   deadlines, and graceful drain;
//! * [`client`] — a small blocking client used by the load harness,
//!   the differential tester's server mode, and the tests.

pub mod accesslog;
pub mod catalog;
pub mod client;
pub(crate) mod eventloop;
pub mod http;
pub mod metrics;
pub mod promtext;
pub mod sched;
pub mod server;
pub mod span;
pub mod sys;

pub use client::{Client, Response};
pub use server::{Server, ServerConfig, ServerHandle};

/// Render `s` as a JSON string literal (quotes, backslashes, control
/// characters escaped) — the one JSON primitive the server needs.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
