//! `blossomd`: the concurrent query server. Two serving cores share the
//! routing/evaluation layer in this module:
//!
//! * [`IoModel::EventLoop`] (default) — readiness-driven nonblocking
//!   I/O ([`crate::eventloop`]): a few I/O threads own all connection
//!   state, a separate execution pool evaluates queries, identical
//!   in-flight queries coalesce into one evaluation, and a bounded fair
//!   queue applies admission control (503 + `Retry-After` past the
//!   knee). Idle keep-alive connections cost no CPU.
//! * [`IoModel::ThreadPerRequest`] — the PR 5 baseline: an accept loop
//!   feeding a fixed pool of blocking workers, one connection per
//!   worker at a time. Kept for the latency-under-load comparison in
//!   `BENCH_server.json`.
//!
//! Robustness contract (DESIGN.md §10): malformed or oversized requests
//! get a 4xx and never touch the engine; query parse/eval errors become
//! 4xx/5xx responses instead of process exits; a per-request wall-clock
//! deadline aborts runaway queries with 503; `POST /shutdown` flips an
//! atomic flag, accepting stops, and every in-flight request drains
//! before the process exits.

use crate::accesslog::{AccessLog, LogTarget};
use crate::catalog::Catalog;
use crate::http::{read_request, render_response, write_response, Next, Request};
use crate::json_str;
use crate::metrics::{endpoint_index, Metrics, PromGauges};
use crate::sched::{Batches, Sched};
use crate::span::{LogCtx, Outcome, RequestSpan, Stage};
use blossom_core::engine::{EngineError, EngineOptions, SharedPlanCache};
use blossom_core::plan::Strategy;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Which serving core runs the socket side.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IoModel {
    /// Nonblocking readiness-driven I/O threads + execution pool.
    #[default]
    EventLoop,
    /// Blocking worker pool, one connection per worker (PR 5 baseline).
    ThreadPerRequest,
}

impl std::str::FromStr for IoModel {
    type Err = String;

    fn from_str(s: &str) -> Result<IoModel, String> {
        match s {
            "event-loop" | "eventloop" => Ok(IoModel::EventLoop),
            "thread-per-request" | "threaded" => Ok(IoModel::ThreadPerRequest),
            other => Err(format!(
                "unknown io model {other:?} (want event-loop or thread-per-request)"
            )),
        }
    }
}

impl std::fmt::Display for IoModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoModel::EventLoop => "event-loop",
            IoModel::ThreadPerRequest => "thread-per-request",
        })
    }
}

/// Everything configurable about a server instance.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Execution workers (event loop) or connection workers
    /// (thread-per-request).
    pub workers: usize,
    /// Readiness-driven I/O threads (event loop only).
    pub io_threads: usize,
    /// Per-request evaluation budget; `None` never aborts. Requests may
    /// tighten (never extend) their own with `?deadline_ms=N`.
    pub deadline: Option<Duration>,
    /// Bound on the execution queue; past it `/query` answers 503 with
    /// `Retry-After` (event loop only).
    pub max_queue: usize,
    /// Coalesce identical concurrent queries into one evaluation
    /// (event loop only).
    pub batch: bool,
    /// Which serving core to run.
    pub io_model: IoModel,
    /// Catalog byte cap (approximate heap bytes across entries).
    pub catalog_bytes: usize,
    /// Persistent store directory: documents are published as BLM2
    /// generation files, served mapped, spilled on eviction, and
    /// recovered across restarts. `None` keeps the catalog heap-only.
    pub store_dir: Option<String>,
    /// Largest accepted request body (`POST /load` documents).
    pub max_body: usize,
    /// Capacity of the process-wide shared plan cache.
    pub plan_cache_capacity: usize,
    /// Requests at or above this wall time get a structured slow-query
    /// log record; `None` disables the threshold.
    pub slow_ms: Option<u64>,
    /// Deterministic access-log sampling: log every request whose id is
    /// divisible by N (0 disables sampling).
    pub log_sample: u64,
    /// Where slow-query/access records go.
    pub access_log: LogTarget,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            io_threads: 2,
            deadline: Some(Duration::from_secs(10)),
            max_queue: 1024,
            batch: true,
            io_model: IoModel::EventLoop,
            catalog_bytes: 512 * 1024 * 1024,
            store_dir: None,
            max_body: 256 * 1024 * 1024,
            plan_cache_capacity: 1024,
            slow_ms: None,
            log_sample: 0,
            access_log: LogTarget::Stderr,
        }
    }
}

/// State shared by the serving core and every worker.
pub(crate) struct Shared {
    pub(crate) catalog: Catalog,
    pub(crate) plans: Arc<SharedPlanCache>,
    pub(crate) metrics: Metrics,
    pub(crate) shutdown: AtomicBool,
    pub(crate) config: ServerConfig,
    pub(crate) started: Instant,
    /// Bounded fair execution queue (event loop only).
    pub(crate) sched: Sched,
    /// In-flight coalesced batches (event loop only).
    pub(crate) batches: Batches,
    /// Fairness ids for accepted connections.
    pub(crate) next_client: AtomicU64,
    /// The event loop's I/O-thread mailboxes, once running; lets an
    /// external `ServerHandle::shutdown` wake blocked pollers.
    pub(crate) io: OnceLock<Arc<Vec<Arc<crate::eventloop::IoHandle>>>>,
    /// The structured slow-query/access log (both serving cores).
    pub(crate) log: AccessLog,
}

impl Shared {
    /// Retire one finished request span: fold it into every metrics
    /// surface and hand it to the access-log policy. Every span created
    /// by either serving core ends here exactly once.
    pub(crate) fn finish(&self, span: RequestSpan) {
        let wall_us = span.total_us();
        self.metrics.observe_span(&span);
        self.log.log(&span, wall_us);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Control handle for a server started with [`Server::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown and wait for every in-flight request to drain.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(handles) = self.shared.io.get() {
            for h in handles.iter() {
                h.wake();
            }
        }
        let _ = self.thread.join();
    }
}

impl Server {
    /// Bind the listener (without accepting yet), so callers can learn
    /// the ephemeral port before the first request.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let log = AccessLog::new(&config.access_log, config.slow_ms, config.log_sample)?;
        // With a store directory, the catalog persists every entry as a
        // BLM2 generation file and recovers complete generations now,
        // before the first request.
        let catalog = match &config.store_dir {
            None => Catalog::new(config.catalog_bytes),
            Some(dir) => {
                let store = blossom_storage::StoreDir::open(std::path::Path::new(dir))
                    .map_err(|e| std::io::Error::other(e.0))?;
                let catalog = Catalog::with_store(config.catalog_bytes, store);
                catalog.recover().map_err(std::io::Error::other)?;
                catalog
            }
        };
        let shared = Arc::new(Shared {
            log,
            catalog,
            plans: Arc::new(SharedPlanCache::new(config.plan_cache_capacity)),
            metrics: Metrics::new(),
            shutdown: AtomicBool::new(false),
            sched: Sched::new(config.max_queue),
            batches: Batches::new(),
            next_client: AtomicU64::new(0),
            io: OnceLock::new(),
            config,
            started: Instant::now(),
        });
        Ok(Server { listener, shared })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// Load a document into the catalog before serving (the CLI's
    /// `--load name=path` flags).
    pub fn preload(&self, name: &str, path: &str) -> Result<usize, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        Ok(self.shared.catalog.load_bytes(name, &bytes)?.doc.len())
    }

    /// Serve until shutdown + drain, under the configured I/O model.
    pub fn run(self) {
        let Server { listener, shared } = self;
        match shared.config.io_model {
            IoModel::EventLoop => crate::eventloop::run(listener, shared),
            IoModel::ThreadPerRequest => run_blocking(listener, shared),
        }
    }

    /// Run on a background thread; for tests and in-process harnesses.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let shared = self.shared.clone();
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { addr, shared, thread }
    }
}

/// The thread-per-request core: accept loop feeding a fixed pool of
/// blocking workers. The listener goes non-blocking so the loop can
/// poll the shutdown flag; accepted sockets are switched back to
/// blocking before they reach a worker.
fn run_blocking(listener: TcpListener, shared: Arc<Shared>) {
    listener.set_nonblocking(true).expect("set_nonblocking");
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..shared.config.workers.max(1))
        .map(|_| {
            let rx = rx.clone();
            let shared = shared.clone();
            std::thread::spawn(move || loop {
                // Holding the lock only for the dequeue keeps the
                // other workers accepting; `Err` means the sender is
                // gone and the queue is empty — drain complete.
                let next = rx.lock().unwrap().recv();
                match next {
                    Ok(stream) => handle_connection(stream, &shared),
                    Err(_) => break,
                }
            })
        })
        .collect();

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(false).is_ok() {
                    let _ = tx.send(stream);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Dropping the sender ends the workers' recv loops once the
    // already-queued connections are served.
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
}

/// Serve one connection (thread-per-request core): a keep-alive loop of
/// request → response. The read timeout bounds how long a worker sits
/// on an idle connection before re-checking the shutdown flag — this is
/// what lets the drain finish while clients hold keep-alive sockets
/// open (and why this core burns CPU on idle connections; the event
/// loop does not).
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader, shared.config.max_body) {
            Ok(Next::Request(request)) => {
                let arrived = Instant::now();
                shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                shared.metrics.inflight.fetch_add(1, Ordering::Relaxed);
                // The blocking reader cannot separate read from parse
                // (it interleaves them line by line), so this core's
                // spans start at framing-complete: Read and Parse laps
                // are 0 and Execute absorbs routing from here.
                let mut span = RequestSpan::begin(arrived);
                let deadline = request_deadline(&request, &shared.config, arrived);
                span.endpoint = endpoint_index(&request.path);
                span.bytes_in = request.body.len() as u64;
                span.deadline = deadline;
                span.budget = deadline.map(|d| d.saturating_duration_since(arrived));
                span.force_log = request.param("trace") == Some("1");
                if shared.log.armed() {
                    span.log = Some(Box::new(LogCtx {
                        method: request.method.clone(),
                        path: request.path.clone(),
                        doc: request
                            .param("doc")
                            .or_else(|| request.param("name"))
                            .map(str::to_string),
                        query: request.param("q").map(str::to_string),
                        strategy: None,
                        trace_json: None,
                    }));
                }
                let (status, content_type, body) =
                    respond(&request, shared, deadline, &mut span);
                // During shutdown the drain finishes the current request
                // but does not linger on an idle keep-alive socket.
                let close =
                    !request.keep_alive || shared.shutdown.load(Ordering::SeqCst);
                if status >= 400 {
                    shared.metrics.track_error(status);
                }
                span.finish_status(status);
                span.mark(Stage::Execute);
                let id = span.id.to_string();
                let bytes = render_response(
                    status,
                    content_type,
                    &body,
                    close,
                    &[("X-Request-Id", &id)],
                );
                span.bytes_out = bytes.len() as u64;
                span.mark(Stage::Serialize);
                let written = writer.write_all(&bytes).is_ok();
                span.mark(Stage::Write);
                if !written {
                    span.outcome = Outcome::Disconnect;
                }
                shared.finish(span);
                if !written || close {
                    return;
                }
            }
            Ok(Next::Closed) => return,
            Ok(Next::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) => {
                // Framing is unreliable after a malformed request, so
                // answer and close; the *server* keeps running.
                shared.metrics.track_error(e.status);
                let body = format!("error: {}\n", e.message);
                let _ =
                    write_response(&mut writer, e.status, "text/plain", body.as_bytes(), true);
                return;
            }
        }
    }
}

/// The effective deadline for one request: the server's configured
/// budget, tightened by a `?deadline_ms=N` parameter when present
/// (testing and per-call SLOs). A request can never *extend* the
/// server's budget.
pub(crate) fn request_deadline(
    request: &Request,
    config: &ServerConfig,
    arrived: Instant,
) -> Option<Instant> {
    let requested = request
        .param("deadline_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|ms| *ms >= 1)
        .map(Duration::from_millis);
    match (config.deadline, requested) {
        (Some(c), Some(r)) => Some(arrived + c.min(r)),
        (Some(c), None) => Some(arrived + c),
        (None, Some(r)) => Some(arrived + r),
        (None, None) => None,
    }
}

/// Route one request; returns `(status, content type, body)`. Pure with
/// respect to request counters/latency — both serving cores tally those
/// themselves (the event loop counts at dispatch, before queueing).
pub(crate) fn respond(
    request: &Request,
    shared: &Shared,
    deadline: Option<Instant>,
    span: &mut RequestSpan,
) -> (u16, &'static str, Vec<u8>) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, "text/plain", b"ok\n".to_vec()),
        ("GET", "/query") => query(request, shared, deadline, span),
        ("POST", "/load") => load(request, shared),
        ("POST", "/update") => update(request, shared, deadline),
        ("GET", "/stats") => (200, "application/json", stats(shared).into_bytes()),
        ("GET", "/metrics") => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            metrics_text(shared).into_bytes(),
        ),
        ("POST", "/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            (200, "text/plain", b"draining\n".to_vec())
        }
        (_, "/healthz" | "/query" | "/load" | "/update" | "/stats" | "/metrics" | "/shutdown") => {
            (405, "text/plain", format!("error: {} not allowed here\n", request.method).into_bytes())
        }
        (_, path) => (404, "text/plain", format!("error: no route {path}\n").into_bytes()),
    }
}

/// `GET /query?doc=NAME&q=QUERY[&strategy=S][&profile=1]
/// [&deadline_ms=N]`.
fn query(
    request: &Request,
    shared: &Shared,
    deadline: Option<Instant>,
    span: &mut RequestSpan,
) -> (u16, &'static str, Vec<u8>) {
    let bad = |msg: String| (400, "text/plain", format!("error: {msg}\n").into_bytes());
    let Some(doc_name) = request.param("doc") else {
        return bad("missing ?doc=NAME".to_string());
    };
    let Some(q) = request.param("q") else {
        return bad("missing ?q=QUERY".to_string());
    };
    let strategy = match request.param("strategy").unwrap_or("auto").parse::<Strategy>() {
        Ok(s) => s,
        Err(e) => return bad(e),
    };
    let profile = request.param("profile") == Some("1");
    let Some(entry) = shared.catalog.get(doc_name) else {
        return (
            404,
            "text/plain",
            format!("error: no document {doc_name:?} in the catalog\n").into_bytes(),
        );
    };

    // Tracing is always on so /stats sees the executed strategy; the
    // trace is observational (PR 4's invariant: identical result bytes).
    let engine = entry.engine(
        shared.plans.clone(),
        EngineOptions { trace: true, deadline, ..EngineOptions::default() },
    );
    // The plain body is the serialized result plus a newline —
    // byte-identical to `blossom query` stdout, so harnesses can
    // `cmp` the two directly (and so batched responses, which use the
    // same `eval_query_bytes` contract, match solo ones).
    match engine.eval_query_bytes(q, strategy) {
        Ok((bytes, trace)) => {
            shared.metrics.record_strategy(&trace.executed.to_string());
            // Attach the full trace only to records that will be slow
            // (or were forced): the compact rendering is the expensive
            // part, so fast sampled records skip it.
            let slow = shared.log.slow_us().is_some_and(|t| span.elapsed_us() >= t);
            let force = span.force_log;
            if let Some(log) = span.log.as_deref_mut() {
                log.strategy = Some(trace.executed.to_string());
                if force || slow {
                    log.trace_json = Some(trace.to_json_compact());
                }
            }
            if profile {
                let text = String::from_utf8(bytes).expect("serializer emits UTF-8");
                let body = format!(
                    "{{\"result\": {}, \"profile\": {}}}\n",
                    json_str(&text),
                    trace.to_json()
                );
                (200, "application/json", body.into_bytes())
            } else {
                (200, "text/plain", bytes)
            }
        }
        Err(EngineError::Deadline) => (
            503,
            "text/plain",
            format!("error: {}\n", EngineError::Deadline).into_bytes(),
        ),
        Err(e) => bad(e.to_string()),
    }
}

/// `POST /load?name=NAME` with the document bytes (XML or `.blsm`) as
/// the body.
fn load(request: &Request, shared: &Shared) -> (u16, &'static str, Vec<u8>) {
    let Some(name) = request.param("name") else {
        return (400, "text/plain", b"error: missing ?name=NAME\n".to_vec());
    };
    match shared.catalog.load_bytes(name, &request.body) {
        Ok(entry) => {
            let body = format!(
                "{{\"loaded\": {}, \"nodes\": {}, \"approx_bytes\": {}}}\n",
                json_str(name),
                entry.doc.len(),
                entry.bytes
            );
            (200, "application/json", body.into_bytes())
        }
        Err(e) => (400, "text/plain", format!("error: {e}\n").into_bytes()),
    }
}

/// `POST /update?doc=NAME` with a mutation script (one `insert` /
/// `delete` / `replace` line per mutation) as the body. On success the
/// catalog swaps in the mutated snapshot — in-flight readers keep their
/// old `Arc<Document>` — and the old uid's plan-cache entries are
/// invalidated; plans for every other document survive untouched.
fn update(
    request: &Request,
    shared: &Shared,
    deadline: Option<Instant>,
) -> (u16, &'static str, Vec<u8>) {
    use crate::catalog::CatalogUpdateError;
    let bad = |msg: String| (400, "text/plain", format!("error: {msg}\n").into_bytes());
    let Some(doc_name) = request.param("doc") else {
        return bad("missing ?doc=NAME".to_string());
    };
    let Ok(script) = std::str::from_utf8(&request.body) else {
        return bad("mutation script is not UTF-8".to_string());
    };
    if script.trim().is_empty() {
        return bad("empty mutation script".to_string());
    }
    let muts = match blossom_xml::mutate::parse_mutations(script) {
        Ok(m) => m,
        Err(e) => return bad(format!("bad mutation script: {e}")),
    };
    match shared.catalog.update(doc_name, &muts, deadline) {
        Ok((old_uid, entry)) => {
            let dropped = shared.plans.invalidate_doc(old_uid);
            shared.metrics.updates.fetch_add(1, Ordering::Relaxed);
            shared.metrics.mutations_applied.fetch_add(muts.len() as u64, Ordering::Relaxed);
            shared.metrics.plans_invalidated.fetch_add(dropped as u64, Ordering::Relaxed);
            let body = format!(
                "{{\"updated\": {}, \"mutations\": {}, \"nodes\": {}, \"approx_bytes\": {}, \"plans_invalidated\": {}}}\n",
                json_str(doc_name),
                muts.len(),
                entry.doc.len(),
                entry.bytes,
                dropped
            );
            (200, "application/json", body.into_bytes())
        }
        Err(CatalogUpdateError::NotFound) => (
            404,
            "text/plain",
            format!("error: no document {doc_name:?} in the catalog\n").into_bytes(),
        ),
        Err(CatalogUpdateError::Deadline) => (
            503,
            "text/plain",
            format!("error: {}\n", CatalogUpdateError::Deadline).into_bytes(),
        ),
        Err(e @ CatalogUpdateError::Invalid(_)) => bad(e.to_string()),
    }
}

/// `GET /metrics`: the whole metrics surface in Prometheus text
/// exposition format 0.0.4 — counters, point-in-time gauges assembled
/// here, and cumulative per-endpoint/per-stage latency histograms.
fn metrics_text(shared: &Shared) -> String {
    let cache = shared.plans.stats();
    let occ = shared.catalog.occupancy();
    let gauges = PromGauges {
        io_model: shared.config.io_model.to_string(),
        uptime_seconds: shared.started.elapsed().as_secs_f64(),
        queue_depth: shared.sched.depth() as u64,
        queue_peak: shared.sched.peak() as u64,
        queue_capacity: shared.sched.capacity() as u64,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_entries: cache.len as u64,
        cache_capacity: cache.capacity as u64,
        catalog_documents: occ.resident_docs,
        catalog_bytes: occ.resident_bytes,
        catalog_evictions: occ.evictions,
        catalog_spilled_documents: occ.spilled_docs,
        catalog_mapped_bytes: occ.mapped_bytes,
        catalog_spilled_bytes: occ.spilled_bytes,
        catalog_spills: occ.spills,
        catalog_remaps: occ.remaps,
    };
    shared.metrics.render_prometheus(&gauges)
}

/// `GET /stats`: request counters, latency percentiles (global and per
/// endpoint), batching/admission tallies, queue gauges, plan-cache and
/// catalog contents.
fn stats(shared: &Shared) -> String {
    let cache = shared.plans.stats();
    let (entries, evictions) = shared.catalog.snapshot();
    let occ = shared.catalog.occupancy();
    let catalog_fields = entries
        .iter()
        .map(|row| {
            format!(
                "{{\"name\": {}, \"approx_bytes\": {}, \"state\": \"{}\", \"generation\": {}}}",
                json_str(&row.name),
                row.bytes,
                row.state,
                row.generation
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{{}, \
         \"io_model\": {}, \
         \"queue\": {{\"depth\": {}, \"peak\": {}, \"capacity\": {}}}, \
         \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \"capacity\": {}}}, \
         \"catalog\": {{\"documents\": [{catalog_fields}], \"evictions\": {evictions}, \
         \"resident_bytes\": {}, \"mapped_bytes\": {}, \"spilled_bytes\": {}, \
         \"spills\": {}, \"remaps\": {}}}, \
         \"uptime_us\": {}}}\n",
        shared.metrics.render_json_fields(),
        json_str(&shared.config.io_model.to_string()),
        shared.sched.depth(),
        shared.sched.peak(),
        shared.sched.capacity(),
        cache.hits,
        cache.misses,
        cache.len,
        cache.capacity,
        occ.resident_bytes,
        occ.mapped_bytes,
        occ.spilled_bytes,
        occ.spills,
        occ.remaps,
        shared.started.elapsed().as_micros(),
    )
}
