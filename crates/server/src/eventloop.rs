//! The nonblocking serving core: readiness-driven I/O threads owning
//! connection state machines, feeding a separate execution pool through
//! the fair bounded scheduler in [`crate::sched`].
//!
//! Architecture (DESIGN.md §12):
//!
//! ```text
//!  accept ──> I/O threads (epoll/poll, one Poller each)
//!               │  incremental HTTP framing, pipelining, keep-alive
//!               │  batch coalescing + admission control at dispatch
//!               ▼
//!             Sched (bounded, per-client round-robin)
//!               ▼
//!             execution pool (`--workers`), evaluates queries
//!               │  completions routed back by (io thread, token, seq)
//!               ▼
//!             I/O thread wakes, fills the pipeline slot, flushes
//! ```
//!
//! Connections are owned by exactly one I/O thread; nothing about a
//! connection is locked. Idle keep-alive sockets cost *nothing*: they
//! sit registered in the poller until bytes arrive — there is no
//! read-timeout polling loop (the PR 5 server woke every 100ms per
//! idle connection). The regression tests pin this via the
//! `io.wakeups` / `io.cpu_us` stats counters.
//!
//! Responses are delivered strictly in request order per connection
//! (pipelining), via sequence-numbered slots; connection tokens carry a
//! generation so a completion for a dead connection is dropped instead
//! of being written to whoever reused the slot.

use crate::http::{parse_request_bytes, render_response, Parsed, Request};
use crate::metrics::endpoint_index;
use crate::sched::{Admission, BatchKey, Destination, Job, Member};
use crate::server::{request_deadline, respond, Shared};
use crate::span::{LogCtx, Outcome, RequestSpan, Stage};
use crate::sys::{self, thread_cpu_us, Event, Interest, Poller, WakeReceiver, Waker};
use blossom_core::engine::{EngineError, EngineOptions};
use blossom_core::plan::Strategy;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// Safety-net tick so a lost wakeup or an externally-set shutdown flag
/// is noticed promptly; all real work is event-driven.
const TICK: Duration = Duration::from_millis(500);

/// A finished response on its way back to the owning I/O thread.
pub(crate) struct Completion {
    pub dest: Destination,
    pub bytes: Vec<u8>,
    pub close: bool,
    /// The request's lifecycle span (marked through Serialize); the I/O
    /// thread adds the Write lap when the last byte is accepted by the
    /// socket, then feeds it to metrics and the access log. `None` for
    /// framing-error responses, which have no request to trace.
    pub span: Option<RequestSpan>,
}

enum Inbound {
    /// A freshly accepted connection handed to this thread.
    Conn(TcpStream),
    /// A response produced by the execution pool.
    Done(Completion),
}

/// The cross-thread mailbox of one I/O thread: execution workers (and
/// the acceptor) push, the owning thread drains after a wake.
pub(crate) struct IoHandle {
    inbox: Mutex<Vec<Inbound>>,
    waker: Waker,
}

impl IoHandle {
    fn send(&self, msg: Inbound) {
        self.inbox.lock().unwrap().push(msg);
        self.waker.wake();
    }

    /// Wake the thread without a message (shutdown nudge).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }
}

/// Run the event-loop server until shutdown + drain. Blocks the caller
/// (the `Server::run` thread).
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>) {
    let nio = shared.config.io_threads.max(1);
    let mut handles = Vec::with_capacity(nio);
    let mut receivers = Vec::with_capacity(nio);
    for _ in 0..nio {
        let (waker, rx) = sys::waker().expect("waker socketpair");
        handles.push(Arc::new(IoHandle { inbox: Mutex::new(Vec::new()), waker }));
        receivers.push(rx);
    }
    let handles = Arc::new(handles);
    let _ = shared.io.set(handles.clone());

    // Execution pool: drains the fair scheduler until close() + empty.
    let workers: Vec<_> = (0..shared.config.workers.max(1))
        .map(|_| {
            let shared = shared.clone();
            let handles = handles.clone();
            std::thread::spawn(move || {
                while let Some(job) = shared.sched.pop() {
                    execute(job, &shared, &handles);
                }
            })
        })
        .collect();

    listener.set_nonblocking(true).expect("nonblocking listener");
    let mut listeners: Vec<Option<TcpListener>> = (0..nio).map(|_| None).collect();
    listeners[0] = Some(listener);

    let io_threads: Vec<_> = receivers
        .into_iter()
        .zip(listeners)
        .enumerate()
        .map(|(idx, (wake_rx, listener))| {
            let shared = shared.clone();
            let handles = handles.clone();
            std::thread::spawn(move || {
                IoThread {
                    idx,
                    poller: Poller::new().expect("poller"),
                    listener,
                    accepting: true,
                    wake_rx,
                    shared,
                    handles,
                    conns: Vec::new(),
                    free: Vec::new(),
                    next_gen: 0,
                    rr: idx,
                }
                .run()
            })
        })
        .collect();

    for t in io_threads {
        let _ = t.join();
    }
    // I/O threads exit only when every connection has drained, so the
    // queue is empty of live work; close() releases the workers.
    shared.sched.close();
    for w in workers {
        let _ = w.join();
    }
}

/// One pipelined request's place in a connection's response order.
struct Slot {
    seq: u64,
    response: Option<(Vec<u8>, bool)>,
    /// The span riding with the completion, parked here until the
    /// response can be moved into the write buffer in pipeline order.
    span: Option<RequestSpan>,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    gen: u32,
    /// Process-unique id, the fairness key in the scheduler.
    client: u64,
    /// Read accumulation; `buf[buf_pos..]` is unparsed.
    buf: Vec<u8>,
    buf_pos: usize,
    /// When the first unattributed bytes of the *next* request arrived;
    /// taken by the span of the next request framed off the buffer (its
    /// Read-stage start). Pipelined successors parsed from already-read
    /// bytes start their span at parse time instead.
    read_started: Option<Instant>,
    /// Pending outbound bytes; `out[out_pos..]` still to write.
    out: Vec<u8>,
    out_pos: usize,
    /// Lifetime count of bytes accepted by the socket, pairing with the
    /// absolute end offsets in `write_track`.
    flushed: u64,
    /// Spans of responses sitting in `out`, keyed by the absolute
    /// offset at which each response's last byte leaves the socket.
    write_track: VecDeque<(u64, RequestSpan)>,
    /// Dispatched requests awaiting responses, in request order.
    pending: VecDeque<Slot>,
    next_seq: u64,
    interest: Interest,
    /// Peer sent EOF (half-close): serve what's pending, then close.
    read_closed: bool,
    /// Stop after the current out buffer drains (`Connection: close`,
    /// framing errors, shutdown).
    close_after_flush: bool,
    /// Framing is lost (malformed request): never parse again.
    broken: bool,
}

struct IoThread {
    idx: usize,
    poller: Poller,
    listener: Option<TcpListener>,
    accepting: bool,
    wake_rx: WakeReceiver,
    shared: Arc<Shared>,
    handles: Arc<Vec<Arc<IoHandle>>>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u32,
    /// Round-robin cursor for assigning accepted connections.
    rr: usize,
}

fn token_of(slot: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | slot as u64
}

impl IoThread {
    fn run(mut self) {
        if let Some(l) = &self.listener {
            self.poller
                .register(l.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                .expect("register listener");
        }
        self.poller
            .register(self.wake_rx.fd(), WAKER_TOKEN, Interest::READ)
            .expect("register waker");

        let mut events: Vec<Event> = Vec::new();
        let mut cpu_last = thread_cpu_us();
        loop {
            self.poller.wait(&mut events, Some(TICK)).expect("poller wait");
            self.shared.metrics.io_wakeups.fetch_add(1, Ordering::Relaxed);

            // Mailbox first: completions may unblock flushes that the
            // readiness events below would otherwise race with.
            let inbound = std::mem::take(&mut *self.handles[self.idx].inbox.lock().unwrap());
            for msg in inbound {
                match msg {
                    Inbound::Conn(stream) => self.add_conn(stream),
                    Inbound::Done(completion) => self.complete(completion),
                }
            }

            let ready = std::mem::take(&mut events);
            for ev in &ready {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.wake_rx.drain(),
                    token => self.conn_event(token, *ev),
                }
            }
            events = ready;

            if self.shared.shutdown.load(Ordering::SeqCst) && self.drain() {
                break;
            }

            let cpu = thread_cpu_us();
            self.shared
                .metrics
                .io_cpu_us
                .fetch_add(cpu.saturating_sub(cpu_last), Ordering::Relaxed);
            cpu_last = cpu;
        }
    }

    /// Shutdown housekeeping: stop accepting, close idle connections,
    /// report whether every connection has drained.
    fn drain(&mut self) -> bool {
        if self.accepting {
            if let Some(l) = &self.listener {
                let _ = self.poller.deregister(l.as_raw_fd());
            }
            self.accepting = false;
        }
        for slot in 0..self.conns.len() {
            let idle = match &self.conns[slot] {
                Some(c) => c.pending.is_empty() && c.out_pos >= c.out.len(),
                None => false,
            };
            if idle {
                self.close_conn(slot);
            }
        }
        self.conns.iter().all(Option::is_none)
    }

    fn accept_ready(&mut self) {
        if !self.accepting {
            return;
        }
        let nio = self.handles.len();
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let target = self.rr % nio;
                    self.rr = self.rr.wrapping_add(1);
                    if target == self.idx {
                        self.add_conn(stream);
                    } else {
                        self.handles[target].send(Inbound::Conn(stream));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        // During drain, late handoffs are turned away unserved.
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let gen = self.next_gen;
        self.next_gen = self.next_gen.wrapping_add(1);
        let token = token_of(slot, gen);
        if self.poller.register(stream.as_raw_fd(), token, Interest::READ).is_err() {
            self.free.push(slot);
            return;
        }
        let client = self.shared.next_client.fetch_add(1, Ordering::Relaxed);
        self.conns[slot] = Some(Conn {
            stream,
            gen,
            client,
            buf: Vec::new(),
            buf_pos: 0,
            read_started: None,
            out: Vec::new(),
            out_pos: 0,
            flushed: 0,
            write_track: VecDeque::new(),
            pending: VecDeque::new(),
            next_seq: 0,
            interest: Interest::READ,
            read_closed: false,
            close_after_flush: false,
            broken: false,
        });
    }

    /// Look up a live connection by token (slot + generation); stale
    /// tokens — events or completions for a connection that died and
    /// whose slot was reused — resolve to `None` and are dropped.
    fn live(&mut self, token: u64) -> Option<usize> {
        let slot = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        match self.conns.get(slot) {
            Some(Some(conn)) if conn.gen == gen => Some(slot),
            _ => None,
        }
    }

    fn conn_event(&mut self, token: u64, ev: Event) {
        let Some(slot) = self.live(token) else { return };
        if ev.readable && !self.readable(slot) {
            return;
        }
        if ev.writable {
            self.flush(slot);
        }
        if ev.error {
            // The peer is gone: readable data was drained above and any
            // response still pending is undeliverable (its completion
            // later dies on the generation check). Close unconditionally
            // — epoll reports ERR/HUP regardless of interest, so a
            // connection left registered here is re-reported on every
            // `wait`, and that hot loop starves the inbox mutex the
            // pending completion itself needs to arrive: a livelock.
            self.close_conn(slot);
        }
    }

    /// Pull everything the socket has, then parse and dispatch. Returns
    /// `false` iff the connection was closed.
    fn readable(&mut self, slot: usize) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let conn = self.conns[slot].as_mut().expect("live slot");
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    if conn.read_started.is_none() {
                        conn.read_started = Some(Instant::now());
                    }
                    conn.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return false;
                }
            }
        }
        self.parse_and_dispatch(slot);
        let finished = self.conns[slot].as_ref().is_some_and(|c| {
            c.read_closed && c.pending.is_empty() && c.out_pos >= c.out.len()
        });
        if finished {
            self.close_conn(slot);
            return false;
        }
        // EOF with a response still pending keeps the connection alive
        // until the worker finishes — but the closed read side stays
        // level-triggered-readable forever, so stop watching for reads
        // now or the poller spins until the completion lands.
        self.update_interest(slot);
        // Dispatch may have closed the connection on a failed flush.
        self.conns[slot].is_some()
    }

    fn parse_and_dispatch(&mut self, slot: usize) {
        loop {
            // dispatch() below can close the connection (a rejection
            // response whose flush fails), so re-check liveness.
            let Some(conn) = self.conns[slot].as_mut() else { return };
            if conn.broken {
                return;
            }
            // During drain, pipelined bytes beyond in-flight work are
            // not admitted — the PR 5 contract: finish what's running,
            // do not start new requests.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let unparsed = &conn.buf[conn.buf_pos..];
            if unparsed.is_empty() {
                conn.buf.clear();
                conn.buf_pos = 0;
                conn.read_started = None;
                return;
            }
            let parse_started = Instant::now();
            match parse_request_bytes(unparsed, self.shared.config.max_body) {
                Ok(Parsed::Complete { request, consumed }) => {
                    // The span starts when this request's first byte was
                    // noticed (pipelined successors: at parse time), ends
                    // Read at framing-complete, and Parse now.
                    let started = conn.read_started.take().unwrap_or(parse_started);
                    let mut span = RequestSpan::begin(started);
                    span.mark_at(Stage::Read, parse_started);
                    span.mark(Stage::Parse);
                    span.bytes_in = consumed as u64;
                    conn.buf_pos += consumed;
                    // Compact once the parsed prefix dominates, so a
                    // long-lived pipelining connection cannot grow the
                    // buffer without bound.
                    if conn.buf_pos == conn.buf.len() {
                        conn.buf.clear();
                        conn.buf_pos = 0;
                    } else if conn.buf_pos > 64 * 1024 {
                        conn.buf.drain(..conn.buf_pos);
                        conn.buf_pos = 0;
                    }
                    self.dispatch(slot, request, span);
                }
                Ok(Parsed::Partial) => return,
                Err(e) => {
                    // Framing is unreliable after a malformed request:
                    // answer 4xx (after any pipelined predecessors) and
                    // close, exactly like the blocking server.
                    self.shared.metrics.track_error(e.status);
                    let body = format!("error: {}\n", e.message);
                    let bytes =
                        render_response(e.status, "text/plain", body.as_bytes(), true, &[]);
                    let conn = self.conns[slot].as_mut().expect("live slot");
                    conn.broken = true;
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.pending.push_back(Slot { seq, response: Some((bytes, true)), span: None });
                    self.pump(slot);
                    return;
                }
            }
        }
    }

    /// Route one parsed request: admission control, batch coalescing,
    /// then the execution queue.
    fn dispatch(&mut self, slot: usize, request: Request, mut span: RequestSpan) {
        let shared = self.shared.clone();
        let arrived = Instant::now();
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        shared.metrics.inflight.fetch_add(1, Ordering::Relaxed);

        let deadline = request_deadline(&request, &shared.config, arrived);
        span.endpoint = endpoint_index(&request.path);
        span.queue_depth = shared.sched.depth() as u64;
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

        let conn = self.conns[slot].as_mut().expect("live slot");
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.pending.push_back(Slot { seq, response: None, span: None });
        let member = Member {
            dest: Destination {
                io_thread: self.idx,
                conn_token: token_of(slot, conn.gen),
                seq,
            },
            deadline,
            keep_alive: request.keep_alive,
            arrived,
            span,
        };
        let client = conn.client;

        if let Some((key, entry)) = batchable(&request, &shared) {
            // Coalesced members are answered by the in-flight leader's
            // evaluation; no queue slot consumed.
            if shared.batches.join_or_lead(&key, member) == Admission::Joined {
                return;
            }
            let job = Job::BatchLeader { request, key: key.clone(), entry };
            if shared.sched.push(client, job).is_err() {
                // Roll the batch back; anyone who joined since we took
                // the lead is rejected with us.
                for m in shared.batches.take(&key) {
                    self.reject(m);
                }
            }
        } else {
            let job = Job::Plain { request, member };
            if let Err(Job::Plain { member, .. }) = shared.sched.push(client, job) {
                self.reject(member);
            }
        }
    }

    /// Admission rejection: immediate 503 with `Retry-After`, no
    /// evaluation work spent.
    fn reject(&mut self, mut member: Member) {
        self.shared.metrics.admission_rejections.fetch_add(1, Ordering::Relaxed);
        member.span.mark(Stage::Queue);
        let id = member.span.id.to_string();
        let bytes = render_response(
            503,
            "text/plain",
            b"error: server overloaded, retry later\n",
            !member.keep_alive,
            &[("Retry-After", "1"), ("X-Request-Id", &id)],
        );
        member.span.finish_status(503);
        member.span.outcome = Outcome::Rejected;
        member.span.bytes_out = bytes.len() as u64;
        member.span.mark(Stage::Serialize);
        self.deliver(Completion {
            dest: member.dest,
            bytes,
            close: !member.keep_alive,
            span: Some(member.span),
        });
    }

    /// Route a completion to its owning I/O thread (possibly this one).
    fn deliver(&mut self, completion: Completion) {
        if completion.dest.io_thread == self.idx {
            self.complete(completion);
        } else {
            self.handles[completion.dest.io_thread].send(Inbound::Done(completion));
        }
    }

    /// Fill the pipeline slot a completion belongs to, then flush the
    /// in-order prefix.
    fn complete(&mut self, completion: Completion) {
        let Some(slot) = self.live(completion.dest.conn_token) else {
            // The connection died before its response came back: the
            // span still owes its metrics/log record, as a disconnect.
            if let Some(span) = completion.span {
                self.finish_disconnected(span);
            }
            return;
        };
        let conn = self.conns[slot].as_mut().expect("live slot");
        match conn.pending.iter_mut().find(|s| s.seq == completion.dest.seq) {
            Some(entry) => {
                entry.response = Some((completion.bytes, completion.close));
                entry.span = completion.span;
            }
            None => {
                if let Some(span) = completion.span {
                    self.finish_disconnected(span);
                }
            }
        }
        self.pump(slot);
    }

    /// Finalize a span whose response could not be delivered.
    fn finish_disconnected(&self, mut span: RequestSpan) {
        span.outcome = Outcome::Disconnect;
        span.mark(Stage::Write);
        self.shared.finish(span);
    }

    /// Move contiguous ready responses into the write buffer (request
    /// order — pipelining), then flush to the socket.
    fn pump(&mut self, slot: usize) {
        {
            let conn = self.conns[slot].as_mut().expect("live slot");
            while let Some(front) = conn.pending.front() {
                if front.response.is_none() {
                    break;
                }
                let entry = conn.pending.pop_front().expect("front exists");
                let (bytes, close) = entry.response.expect("checked");
                conn.out.extend_from_slice(&bytes);
                if let Some(span) = entry.span {
                    // The response's last byte leaves the socket at this
                    // absolute offset; flush() closes the Write lap then.
                    let end_abs = conn.flushed + (conn.out.len() - conn.out_pos) as u64;
                    conn.write_track.push_back((end_abs, span));
                }
                if close {
                    conn.close_after_flush = true;
                    conn.broken = true; // no further requests will be parsed
                }
            }
        }
        self.flush(slot);
    }

    /// Write as much pending output as the socket accepts; manage
    /// write-interest registration and post-flush close conditions.
    fn flush(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().expect("live slot");
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => break,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.flushed += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return;
                }
            }
        }
        // Responses fully accepted by the socket close their Write lap
        // and feed the span to metrics + the access log.
        let mut written: Vec<RequestSpan> = Vec::new();
        let conn = self.conns[slot].as_mut().expect("live slot");
        while conn.write_track.front().is_some_and(|(end, _)| *end <= conn.flushed) {
            written.push(conn.write_track.pop_front().expect("checked").1);
        }
        for mut span in written {
            span.mark(Stage::Write);
            self.shared.finish(span);
        }
        let conn = self.conns[slot].as_mut().expect("live slot");
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            if conn.close_after_flush
                || (conn.read_closed && conn.pending.is_empty())
                || (conn.pending.is_empty()
                    && self.shared.shutdown.load(Ordering::SeqCst))
            {
                self.close_conn(slot);
                return;
            }
        }
        self.update_interest(slot);
    }

    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        let want = Interest {
            readable: !conn.broken && !conn.read_closed,
            writable: conn.out_pos < conn.out.len(),
        };
        if want != conn.interest {
            let token = token_of(slot, conn.gen);
            if self.poller.modify(conn.stream.as_raw_fd(), token, want).is_ok() {
                let conn = self.conns[slot].as_mut().expect("live slot");
                conn.interest = want;
            }
        }
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.free.push(slot);
            // Spans whose responses never fully left the socket are
            // disconnects. Requests still executing finalize the same
            // way when their completion dies on the generation check;
            // pending slots without a span either never dispatched
            // (framing errors) or still own it in the worker.
            for (_, span) in conn.write_track {
                self.finish_disconnected(span);
            }
            for entry in conn.pending {
                if let Some(span) = entry.span {
                    self.finish_disconnected(span);
                }
            }
            // `conn.stream` drops here, closing the fd. Completions
            // still in flight for it die on the generation check.
        }
    }
}

/// Is this request eligible for shared-scan coalescing? Only plain
/// (unprofiled) `GET /query` over a cataloged document with a parseable
/// query and a valid strategy spelling. The key canonicalizes
/// the query through the parser's `Display` round-trip and the strategy
/// through its parsed form, so alias spellings (`ts` vs `twigstack`,
/// whitespace differences) coalesce too.
fn batchable(request: &Request, shared: &Shared) -> Option<(BatchKey, Arc<crate::catalog::DocEntry>)> {
    if !shared.config.batch || request.method != "GET" || request.path != "/query" {
        return None;
    }
    if request.param("profile") == Some("1") {
        // Profiled responses embed per-run timings; sharing them is
        // sound byte-wise but defeats the endpoint's purpose.
        return None;
    }
    let doc = request.param("doc")?;
    let q = request.param("q")?;
    let strategy = request.param("strategy").unwrap_or("auto").parse::<Strategy>().ok()?;
    let canonical = blossom_flwor::parse_query(q).ok()?.to_string();
    let entry = shared.catalog.get(doc)?;
    Some((
        BatchKey {
            doc_uid: entry.doc.uid(),
            query: canonical,
            strategy: strategy.to_string(),
        },
        entry,
    ))
}

/// Execution-pool worker body: run one job, deliver its completions.
fn execute(job: Job, shared: &Arc<Shared>, handles: &Arc<Vec<Arc<IoHandle>>>) {
    let deliver = |completion: Completion| {
        handles[completion.dest.io_thread].send(Inbound::Done(completion));
    };
    let closing = |keep_alive: bool| !keep_alive || shared.shutdown.load(Ordering::SeqCst);

    match job {
        Job::Plain { request, mut member } => {
            member.span.mark(Stage::Queue);
            let (status, content_type, body) =
                respond(&request, shared, member.deadline, &mut member.span);
            if status >= 400 {
                shared.metrics.track_error(status);
            }
            let close = closing(request.keep_alive);
            member.span.finish_status(status);
            member.span.mark(Stage::Execute);
            let id = member.span.id.to_string();
            let bytes =
                render_response(status, content_type, &body, close, &[("X-Request-Id", &id)]);
            member.span.bytes_out = bytes.len() as u64;
            member.span.mark(Stage::Serialize);
            deliver(Completion { dest: member.dest, bytes, close, span: Some(member.span) });
        }
        Job::BatchLeader { request, key, entry } => {
            // Claim the member set *before* evaluating: joins from here
            // on start a fresh batch, so nobody is bound to an
            // evaluation whose deadline budget predates them.
            let mut members = shared.batches.take(&key);
            let deadline = if members.iter().any(|m| m.deadline.is_none()) {
                None
            } else {
                members.iter().filter_map(|m| m.deadline).max()
            };
            let size = members.len() as u64;
            if members.len() > 1 {
                shared.metrics.batched_requests.fetch_add(size, Ordering::Relaxed);
                shared.metrics.evaluations_saved.fetch_add(size - 1, Ordering::Relaxed);
            }
            // The leader (first member) waited in the execution queue;
            // joiners waited on the leader's evaluation to start.
            let exec_started = Instant::now();
            for (i, m) in members.iter_mut().enumerate() {
                let stage = if i == 0 { Stage::Queue } else { Stage::Batch };
                m.span.mark_at(stage, exec_started);
                m.span.batch_size = size;
            }

            let q = request.param("q").unwrap_or_default();
            let strategy =
                key.strategy.parse::<Strategy>().expect("key strategy is canonical");
            let mut engine = entry.engine(
                shared.plans.clone(),
                EngineOptions { trace: true, ..EngineOptions::default() },
            );
            engine.set_deadline(deadline);

            let outcome = engine.eval_query_bytes(q, strategy);
            if let Ok((_, trace)) = &outcome {
                shared.metrics.record_strategy(&trace.executed.to_string());
            }
            let finished = Instant::now();
            for mut member in members {
                let (status, body): (u16, Vec<u8>) = match &outcome {
                    // A member whose own budget ran out mid-batch gets
                    // its deadline abort; the shared result still
                    // serves everyone else — no poisoning either way.
                    Ok(_) if member.deadline.is_some_and(|d| finished >= d) => {
                        (503, format!("error: {}\n", EngineError::Deadline).into_bytes())
                    }
                    Ok((bytes, _)) => (200, bytes.clone()),
                    Err(EngineError::Deadline) => {
                        (503, format!("error: {}\n", EngineError::Deadline).into_bytes())
                    }
                    Err(e) => (400, format!("error: {e}\n").into_bytes()),
                };
                if status >= 400 {
                    shared.metrics.track_error(status);
                }
                member.span.finish_status(status);
                member.span.mark_at(Stage::Execute, finished);
                let slow =
                    shared.log.slow_us().is_some_and(|t| member.span.elapsed_us() >= t);
                let force = member.span.force_log;
                if let (Some(log), Ok((_, trace))) = (member.span.log.as_deref_mut(), &outcome)
                {
                    log.strategy = Some(trace.executed.to_string());
                    if force || slow {
                        log.trace_json = Some(trace.to_json_compact());
                    }
                }
                let close = closing(member.keep_alive);
                let id = member.span.id.to_string();
                let bytes = render_response(
                    status,
                    "text/plain",
                    &body,
                    close,
                    &[("X-Request-Id", &id)],
                );
                member.span.bytes_out = bytes.len() as u64;
                member.span.mark(Stage::Serialize);
                deliver(Completion { dest: member.dest, bytes, close, span: Some(member.span) });
            }
        }
    }

    // POST /shutdown (or an external flag flip) must rouse every I/O
    // thread so the drain starts immediately, not at the next tick.
    if shared.shutdown.load(Ordering::SeqCst) {
        for h in handles.iter() {
            h.wake();
        }
    }
}
