//! `serve-mixed`: a real `blossom serve` child at its default flags with
//! d1–d5 at 10k nodes — small documents, so the server's stages rather
//! than `core` dominate a request.
//!
//! Phase A is an **open loop**: two pipelined keep-alive connections,
//! arrivals on a fixed schedule at `RATE_RPS`, latency timed from the due
//! time. 98% are `GET /query`, one seeded Zipf(1.0) draw over the 30 cells
//! (so some requests in flight are identical and batching has something
//! to coalesce); 2% are `POST /update`, alternating insert and delete so
//! every document ends as it began. Writes run beside reads: an update
//! path that gets faster but evicts plans or stalls readers shows as
//! `alt_p50_us` down and `p99_us` up in the same run. Phase B is a
//! **closed loop** on the same two connections, reads only, for capacity.

use super::{metric, peak_rss_mb, Config, Outcome};
use crate::docset::{oracle_mismatches, DocSet};
use crate::http::{encode, parse_prometheus, Connection};
use crate::inputs::{fnv64, Rng, Zipf, CELLS};
use crate::json::Json;
use crate::loadgen::{check, closed_loop, open_loop, schedule, Done, Request};
use crate::proc::Server;
use crate::span::Probe;
use crate::stats;
use crate::sut;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const NODES: usize = 10_000;
/// Connections, and load-generator sender threads: never above `nproc` (2).
pub const CONNS: usize = 2;
/// Phase A's arrival rate. Frozen: about 40% of the closed-loop capacity
/// measured on the 2-core container when the benchmark was defined (see
/// README, "Calibration"), never derived at run time.
pub const RATE_RPS: f64 = 1600.0;
/// Phase A's latency limit on p99: nearly twice the calibrated p99, ten
/// times the calibrated p50 (README, "Calibration").
pub const LIMIT_US: f64 = 5000.0;
/// One request in 50 is an update.
const UPDATE_EVERY: usize = 50;
/// Share of the window given to phase A; phase B gets the rest.
const OPEN_SHARE: f64 = 0.6;
/// The traced pass's rate ladder, as multiples of `RATE_RPS`.
const LADDER: [f64; 3] = [0.5, 1.0, 2.0];

/// The cell of popularity rank `rank`; the stride spreads popularity
/// across the five documents.
fn cell_of_rank(rank: usize) -> usize {
    (7 * rank) % CELLS.len()
}

/// The connection a read travels on. WORKAROUND, to be replaced by
/// round-robin once the server is fixed: at the commit that defined the
/// benchmark the server's batch registry loses a response when two I/O
/// threads dispatch identical queries in the same instant (`join` then
/// `lead` is not atomic; see README, "Found while building"). This change
/// may not touch the product and a workload must be one on which no
/// operation fails, so a query always travels on the same connection and
/// is never in flight on both. Identical requests still meet inside one
/// connection's pipeline, which batching coalesces; batching *across*
/// connections is not exercised, and the `serve-mixed` baseline is
/// provisional until it is.
fn conn_of(cell: usize) -> usize {
    cell % CONNS
}

pub struct State {
    server: Server,
    set: DocSet,
    /// FNV of each whole document as the server returns it for `/*`.
    whole: Vec<u64>,
    setup_checked: u64,
    setup_failed: u64,
}

fn query_target(doc: &str, query: &str) -> String {
    format!("/query?doc={doc}&q={}", encode(query))
}

fn read_request(due_us: u64, cell: usize, expected: &[u64]) -> Request {
    Request {
        due_us,
        method: "GET",
        target: query_target(CELLS[cell].dataset, CELLS[cell].query),
        body: String::new(),
        update: false,
        expect: Some(expected[cell]),
        after: None,
    }
}

pub fn setup(cfg: &Config, probe: &mut Probe) -> State {
    let set = DocSet::build(cfg, cfg.nodes(NODES), probe);
    let loads: Vec<(String, String)> = set
        .names
        .iter()
        .zip(set.write_xml(&cfg.work))
        .map(|(name, path)| (name.to_string(), path.to_string_lossy().into_owned()))
        .collect();
    let server = probe
        .call("setup.server_start", || Server::start(&cfg.blossom, &loads))
        .unwrap_or_else(|e| panic!("{e}"));
    let mut state = State {
        server,
        set,
        whole: Vec::new(),
        setup_checked: 0,
        setup_failed: 0,
    };
    state.setup_checked += CELLS.len() as u64;
    state.setup_failed += probe.call("setup.oracle", || oracle_mismatches(cfg));
    // Warm-up: every cell once (fills the shared plan cache, checks the
    // bytes), then each whole document, remembered for the final check.
    probe.call("setup.warm", || {
        let mut conn = Connection::open(&state.server.addr).unwrap_or_else(|e| panic!("{e}"));
        for cell in 0..CELLS.len() {
            let r = read_request(0, cell, &state.set.expected);
            let ok = conn
                .request(r.method, &r.target, b"")
                .is_ok_and(|resp| check(r.expect, resp.status, &resp.body));
            state.setup_checked += 1;
            state.setup_failed += u64::from(!ok);
        }
        state.whole = whole_documents(&state.server.addr, &state.set);
    });
    state
}

fn whole_documents(addr: &str, set: &DocSet) -> Vec<u64> {
    let mut conn = Connection::open(addr).unwrap_or_else(|e| panic!("{e}"));
    set.names
        .iter()
        .map(|name| {
            conn.request("GET", &query_target(name, "/*"), b"")
                .map_or(0, |r| fnv64(&r.body))
        })
        .collect()
}

/// Phase A's request lists, one per connection, from the seed alone: one
/// arrival schedule and one Zipf draw, each read routed by `conn_of`.
/// Updates come in pairs on one connection, an insert under the root of a
/// document whose root no cell returns and then the delete of what it
/// inserted; pairs never overlap, and an insert whose delete would fall
/// past the end becomes a read.
pub fn open_loop_lists(seed: u64, rate: f64, seconds: f64, set: &DocSet) -> Vec<Vec<Request>> {
    let zipf = Zipf::new(CELLS.len(), 1.0);
    let mut rng = Rng::new(seed ^ 0x5e_77e);
    let updatable: Vec<usize> = (0..set.names.len())
        .filter(|&d| !set.root_returned[d])
        .collect();
    let mut lists: Vec<Vec<Request>> = vec![Vec::new(); CONNS];
    // The unanswered insert: its connection, its index there, its position.
    let mut open_insert: Option<(usize, usize, u32)> = None;
    let mut pairs = 0usize;
    for (i, due_us) in schedule(rate, seconds).into_iter().enumerate() {
        let cell = cell_of_rank(zipf.sample(&mut rng));
        if i % UPDATE_EVERY != UPDATE_EVERY - 1 {
            lists[conn_of(cell)].push(read_request(due_us, cell, &set.expected));
            continue;
        }
        let doc = updatable[pairs % updatable.len()];
        let conn = pairs % CONNS;
        let (body, after) = match open_insert.take() {
            Some((_, insert_at, pos)) => {
                pairs += 1;
                (format!("delete 1.{}", pos + 1), Some(insert_at))
            }
            None => {
                let pos = rng.below(set.parts[doc].root_arity() + 1) as u32;
                open_insert = Some((conn, lists[conn].len(), pos));
                (
                    format!(
                        "insert 1 {pos} <bench_probe><v>{}</v></bench_probe>",
                        rng.below(1_000_000)
                    ),
                    None,
                )
            }
        };
        lists[conn].push(Request {
            due_us,
            method: "POST",
            target: format!("/update?doc={}", set.names[doc]),
            body,
            update: true,
            expect: None,
            after,
        });
    }
    if let Some((conn, insert_at, _)) = open_insert {
        let cell = std::iter::repeat_with(|| cell_of_rank(zipf.sample(&mut rng)))
            .find(|&cell| conn_of(cell) == conn)
            .expect("every connection carries some cell");
        let due_us = lists[conn][insert_at].due_us;
        lists[conn][insert_at] = read_request(due_us, cell, &set.expected);
    }
    lists
}

pub fn op_list_hash(lists: &[Vec<Request>]) -> u64 {
    let mut text = String::new();
    for r in lists.iter().flatten() {
        text.push_str(&format!(
            "{} {} {} {} {:?}\n",
            r.due_us, r.method, r.target, r.body, r.expect
        ));
    }
    fnv64(text.as_bytes()) >> 12
}

/// What phase A's results say.
pub struct OpenLoop {
    pub reads: Vec<f64>,
    pub updates: Vec<f64>,
    pub late: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Mean lateness of the first and of the last quarter of the phase.
    pub late_first: f64,
    pub late_last: f64,
}

impl OpenLoop {
    pub fn of(done: &[Vec<Done>]) -> OpenLoop {
        let mut all: Vec<&Done> = done.iter().flatten().collect();
        all.sort_by_key(|d| d.due_ns);
        let ok = |d: &&&Done| d.ok;
        let quarter = (all.len() / 4).max(1);
        let mean_late = |part: &[&Done]| {
            part.iter().map(|d| d.late_us()).sum::<f64>() / part.len().max(1) as f64
        };
        OpenLoop {
            reads: stats::sorted(
                all.iter()
                    .filter(ok)
                    .filter(|d| !d.update)
                    .map(|d| d.latency_us())
                    .collect(),
            ),
            updates: stats::sorted(
                all.iter()
                    .filter(ok)
                    .filter(|d| d.update)
                    .map(|d| d.latency_us())
                    .collect(),
            ),
            late: stats::sorted(all.iter().map(|d| d.late_us()).collect()),
            attempted: all.len() as u64,
            failed: all.iter().filter(|d| !d.ok).count() as u64,
            late_first: mean_late(&all[..quarter]),
            late_last: mean_late(&all[all.len() - quarter..]),
        }
    }

    /// p99 within the limit, nothing failed, and no growing backlog: the
    /// generator ran no later in the last quarter of the phase than in the
    /// first (10% and a millisecond of slack; a backlog that grows runs
    /// tens of milliseconds late within seconds).
    pub fn limit_met(&self) -> bool {
        self.failed == 0
            && stats::percentile(&self.reads, 99.0) <= LIMIT_US
            && self.late_last <= self.late_first * 1.1 + 1000.0
    }
}

fn closed_reads(state: &State, cfg: &Config, seconds: f64) -> (Vec<Vec<Done>>, f64) {
    let zipf = Zipf::new(CELLS.len(), 1.0);
    // One seeded draw sequence, routed like phase A's reads; each
    // connection replays its part.
    let mut rng = Rng::new(cfg.seed ^ 0xc105ed);
    let mut draws: Vec<Vec<usize>> = vec![Vec::new(); CONNS];
    for _ in 0..8192 {
        let cell = cell_of_rank(zipf.sample(&mut rng));
        draws[conn_of(cell)].push(cell);
    }
    closed_loop(&state.server.addr, CONNS, seconds, |c, i| {
        read_request(0, draws[c][i % draws[c].len()], &state.set.expected)
    })
    .unwrap_or_else(|e| panic!("{e}"))
}

pub fn measure(state: &State, cfg: &Config, seconds: f64, _probe: &mut Probe) -> Outcome {
    let lists = open_loop_lists(cfg.seed, RATE_RPS, seconds * OPEN_SHARE, &state.set);
    let open =
        OpenLoop::of(&open_loop(&state.server.addr, &lists).unwrap_or_else(|e| panic!("{e}")));
    let (closed, wall) = closed_reads(state, cfg, seconds * (1.0 - OPEN_SHARE));
    let closed_ok = closed.iter().flatten().filter(|d| d.ok).count() as u64;
    let closed_all = closed.iter().flatten().count() as u64;

    // Insert/delete pairs cancel: every document must read as before.
    let after = whole_documents(&state.server.addr, &state.set);
    let changed = after
        .iter()
        .zip(&state.whole)
        .filter(|(a, b)| a != b)
        .count() as u64;
    let resident = stats_json(&state.server.addr)
        .and_then(|s| s.at(&["catalog", "resident_bytes"]).and_then(Json::as_f64))
        .unwrap_or(0.0);
    Outcome {
        attempted: open.attempted + closed_all + state.setup_checked + after.len() as u64,
        failed: open.failed + (closed_all - closed_ok) + state.setup_failed + changed,
        metrics: vec![
            metric("ops_per_s", closed_ok as f64 / wall, "1/s"),
            metric("p50_us", stats::median(&open.reads), "us"),
            metric("p99_us", stats::percentile(&open.reads, 99.0), "us"),
            metric("alt_p50_us", stats::median(&open.updates), "us"),
            metric("peak_rss_mb", peak_rss_mb(&state.server.pid()), "MB"),
            metric(
                "stored_bytes_per_xml_byte",
                resident / state.set.xml_bytes() as f64,
                "ratio",
            ),
        ],
        notes: vec![
            ("samples".to_string(), open.reads.len() as f64),
            ("alt_samples".to_string(), open.updates.len() as f64),
            ("closed_loop_samples".to_string(), closed_all as f64),
            (
                "late_p99_us".to_string(),
                stats::percentile(&open.late, 99.0),
            ),
            (
                "limit_met".to_string(),
                f64::from(u8::from(open.limit_met())),
            ),
            ("rate_rps".to_string(), RATE_RPS),
            ("op_list_hash".to_string(), op_list_hash(&lists) as f64),
        ],
    }
}

fn stats_json(addr: &str) -> Option<Json> {
    let body = Connection::open(addr)
        .ok()?
        .request("GET", "/stats", b"")
        .ok()?
        .body;
    Json::parse(std::str::from_utf8(&body).ok()?).ok()
}

fn scrape(addr: &str) -> BTreeMap<String, f64> {
    Connection::open(addr)
        .and_then(|mut c| c.request("GET", "/metrics", b""))
        .map(|r| parse_prometheus(&String::from_utf8_lossy(&r.body)))
        .unwrap_or_default()
}

const STAGES: [&str; 7] = [
    "read",
    "parse",
    "queue",
    "batch",
    "execute",
    "serialize",
    "write",
];

/// The traced pass: phase A between two `/metrics` scrapes, so the
/// server's own stage clocks are read as deltas over exactly the requests
/// the harness sent; then the closed loop with and without span
/// recording, the rate ladder, and the update path in process.
pub fn layers(state: &State, cfg: &Config, budget: f64, probe: &mut Probe) -> Outcome {
    let mut out = Vec::new();
    let addr = state.server.addr.clone();
    let before = scrape(&addr);
    let lists = open_loop_lists(cfg.seed, RATE_RPS, budget * 0.35, &state.set);
    let phase_start = Instant::now();
    let done = open_loop(&addr, &lists).unwrap_or_else(|e| panic!("{e}"));
    let after = scrape(&addr);
    let open = OpenLoop::of(&done);
    // One span per request, from send to answer, with the generator's
    // wait before it; kept for the trace file.
    probe.tracer.clear();
    for d in done.iter().flatten() {
        let at = |ns: u64| phase_start + Duration::from_nanos(ns);
        probe.tracer.next_op();
        probe
            .tracer
            .record("loadgen.wait", at(d.due_ns), at(d.sent_ns));
        probe.tracer.record(
            if d.update {
                "server.update"
            } else {
                "server.query"
            },
            at(d.sent_ns),
            at(d.done_ns),
        );
    }
    let _ = probe
        .tracer
        .write_jsonl(&cfg.work.join("trace-serve-mixed.jsonl"));

    let delta = |series: &str| {
        after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
    };
    let queries = delta("blossomd_request_duration_seconds_count{endpoint=\"/query\"}").max(1.0);
    let wall_s = delta("blossomd_request_duration_seconds_sum{endpoint=\"/query\"}");
    let mut stage_sum = 0.0;
    for stage in STAGES {
        let s = delta(&format!(
            "blossomd_request_stage_duration_seconds_sum{{endpoint=\"/query\",stage=\"{stage}\"}}"
        ));
        stage_sum += s;
        out.push(metric(
            &format!("server.stage.{stage}_us"),
            s * 1e6 / queries,
            "us",
        ));
    }
    out.push(metric(
        "server.stage_sum_over_wall",
        stage_sum / wall_s.max(1e-12),
        "ratio",
    ));
    out.push(metric(
        "server.sched.rejected_503",
        delta("blossomd_admission_rejections_total"),
        "count",
    ));
    out.push(metric(
        "server.sched.batched_requests",
        delta("blossomd_batched_requests_total"),
        "count",
    ));
    out.push(metric(
        "server.sched.evaluations_saved",
        delta("blossomd_evaluations_saved_total"),
        "count",
    ));
    let requests = delta("blossomd_requests_total").max(1.0);
    out.push(metric(
        "server.eventloop.wakeups_per_req",
        delta("blossomd_io_wakeups_total") / requests,
        "ratio",
    ));
    out.push(metric(
        "server.eventloop.io_cpu_us_per_req",
        delta("blossomd_io_cpu_seconds_total") * 1e6 / requests,
        "us",
    ));
    out.push(metric(
        "server.catalog.plans_invalidated",
        delta("blossomd_plans_invalidated_total"),
        "count",
    ));
    out.push(metric(
        "server.catalog.resident_bytes",
        after.get("blossomd_catalog_bytes").copied().unwrap_or(0.0),
        "count",
    ));
    let updates = delta("blossomd_request_duration_seconds_count{endpoint=\"/update\"}").max(1.0);
    out.push(metric(
        "server.update.mean_us",
        delta("blossomd_request_duration_seconds_sum{endpoint=\"/update\"}") * 1e6 / updates,
        "us",
    ));
    // Client-observed time the server's own clock does not cover: the
    // kernel's socket path, the generator's threads, and time on the wire.
    let client_mean = done
        .iter()
        .flatten()
        .filter(|d| d.ok && !d.update)
        .map(Done::service_us)
        .sum::<f64>()
        / open.reads.len().max(1) as f64;
    let server_mean = wall_s * 1e6 / queries;
    out.push(metric(
        "server.client_overhead_us",
        client_mean - server_mean,
        "us",
    ));
    out.push(metric(
        "trace.unattributed_ratio.serve-mixed",
        (client_mean - server_mean) / client_mean.max(1e-9),
        "ratio",
    ));
    out.push(metric(
        "server.update_p50_us",
        stats::median(&open.updates),
        "us",
    ));
    out.push(metric(
        "server.limit_met",
        f64::from(u8::from(open.limit_met())),
        "count",
    ));
    out.push(metric(
        "loadgen.late_p99_us",
        stats::percentile(&open.late, 99.0),
        "us",
    ));
    out.push(metric("loadgen.sent", open.attempted as f64, "count"));

    // Closed loop, spans recorded against not recorded, alternating so
    // that neither side always runs on the colder server.
    let (mut plain_s, mut plain_n, mut spanned_s, mut spanned_n) = (0.0, 0usize, 0.0, 0usize);
    for _ in 0..2 {
        let (plain, wall) = closed_reads(state, cfg, budget * 0.05);
        plain_s += wall;
        plain_n += plain.iter().flatten().count();
        let start = Instant::now();
        let (spanned, wall) = closed_reads(state, cfg, budget * 0.05);
        for d in spanned.iter().flatten() {
            probe.tracer.next_op();
            let at = |ns: u64| start + Duration::from_nanos(ns);
            probe
                .tracer
                .record("server.query", at(d.sent_ns), at(d.done_ns));
        }
        spanned_s += wall;
        spanned_n += spanned.iter().flatten().count();
    }
    out.push(metric(
        "trace.overhead_ratio.serve-mixed",
        (spanned_s / spanned_n.max(1) as f64) / (plain_s / plain_n.max(1) as f64),
        "ratio",
    ));

    // The rate ladder: p99 at each fixed rate, and the highest rate that
    // meets the limit without a growing backlog.
    let mut max_ok = 0.0;
    let (mut ladder_attempted, mut ladder_failed) = (0, 0);
    for (i, factor) in LADDER.iter().enumerate() {
        let rate = RATE_RPS * factor;
        let lists = open_loop_lists(
            cfg.seed + 1 + i as u64,
            rate,
            budget * 0.45 / LADDER.len() as f64,
            &state.set,
        );
        let step = OpenLoop::of(&open_loop(&addr, &lists).unwrap_or_else(|e| panic!("{e}")));
        out.push(metric(
            &format!("server.ladder.p99_us_at_r{}", i + 1),
            stats::percentile(&step.reads, 99.0),
            "us",
        ));
        ladder_attempted += step.attempted;
        ladder_failed += step.failed;
        if step.limit_met() {
            max_ok = rate;
        }
    }
    out.push(metric("server.ladder.max_rate_ok_rps", max_ok, "1/s"));

    // The update path without the server around it: one insert and its
    // delete, in process, per mutation.
    let mut apply = Vec::new();
    for parts in &state.set.parts {
        for _ in 0..5 {
            let t = Instant::now();
            let inserted = probe
                .call("core.update", || {
                    sut::apply_update(parts, "insert 1 0 <bench_probe><v>1</v></bench_probe>")
                })
                .expect("insert applies");
            let restored = probe
                .call("core.update", || sut::apply_update(&inserted, "delete 1.1"))
                .expect("delete applies");
            apply.push(t.elapsed().as_secs_f64() * 1e6 / 2.0);
            std::hint::black_box(restored.nodes());
        }
    }
    out.push(metric(
        "core.update.apply_us",
        stats::median_of(&apply),
        "us",
    ));
    // Phase A and the ladder count; so does the final state of the documents.
    let after = whole_documents(&addr, &state.set);
    let changed = after
        .iter()
        .zip(&state.whole)
        .filter(|(a, b)| a != b)
        .count() as u64;
    Outcome {
        attempted: open.attempted + ladder_attempted + after.len() as u64,
        failed: open.failed + ladder_failed + changed + state.setup_failed,
        metrics: out,
        notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_set(seed: u64) -> DocSet {
        let cfg = crate::workload::test_config(seed, "sm");
        let set = DocSet::build(&cfg, 1500, &mut Probe::new(false, None));
        let _ = std::fs::remove_dir_all(&cfg.work);
        set
    }

    #[test]
    fn request_lists_are_fixed_by_the_seed() {
        let set = small_set(3);
        let a = open_loop_lists(3, 1000.0, 1.0, &set);
        let b = open_loop_lists(3, 1000.0, 1.0, &set);
        let c = open_loop_lists(4, 1000.0, 1.0, &set);
        assert_eq!(a, b);
        assert_eq!(op_list_hash(&a), op_list_hash(&b));
        assert_ne!(op_list_hash(&a), op_list_hash(&c));
        // The schedule itself does not depend on the seed.
        let due = |lists: &[Vec<Request>]| -> Vec<u64> {
            let mut due: Vec<u64> = lists.iter().flatten().map(|r| r.due_us).collect();
            due.sort_unstable();
            due
        };
        assert_eq!(due(&a), due(&c));
        assert_eq!(due(&a), schedule(1000.0, 1.0));
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 1000);
    }

    #[test]
    fn every_insert_is_followed_by_its_delete_and_documents_with_returned_roots_are_left_alone() {
        let set = small_set(3);
        assert!(
            set.root_returned.iter().any(|&r| r),
            "d2.Q2 returns the root of d2"
        );
        let lists = open_loop_lists(9, 2000.0, 2.0, &set);
        let mut updates = 0;
        for list in &lists {
            let mut open: BTreeMap<&str, usize> = BTreeMap::new();
            for (i, r) in list.iter().enumerate().filter(|(_, r)| r.update) {
                updates += 1;
                let doc = r.target.rsplit('=').next().unwrap();
                let d = set.names.iter().position(|n| *n == doc).unwrap();
                assert!(!set.root_returned[d], "{doc} must not be updated");
                if r.body.starts_with("insert") {
                    assert!(
                        open.insert(doc, i).is_none(),
                        "two inserts in a row on {doc}"
                    );
                    assert_eq!(r.after, None);
                } else {
                    let insert_at = open.remove(doc).expect("delete without insert");
                    assert_eq!(r.after, Some(insert_at));
                    // The delete addresses the child the insert created.
                    let pos: u32 = list[insert_at]
                        .body
                        .split(' ')
                        .nth(2)
                        .unwrap()
                        .parse()
                        .unwrap();
                    assert_eq!(r.body, format!("delete 1.{}", pos + 1));
                }
            }
            assert!(open.is_empty(), "an insert was left without its delete");
        }
        // One request in fifty, less at most one trimmed insert.
        assert!((79..=80).contains(&updates), "{updates}");
    }

    #[test]
    fn limit_needs_a_low_tail_no_failures_and_no_growing_backlog() {
        let done = |latency_us: u64, late_growth_us: u64, ok: bool| -> Vec<Vec<Done>> {
            vec![(0..400u64)
                .map(|k| {
                    let due_ns = k * 1_000_000;
                    let sent_ns = due_ns + 50_000 + k * late_growth_us * 1000 / 400;
                    Done {
                        due_ns,
                        sent_ns,
                        done_ns: sent_ns + latency_us * 1000,
                        ok,
                        update: false,
                    }
                })
                .collect()]
        };
        assert!(OpenLoop::of(&done(800, 0, true)).limit_met());
        assert!(!OpenLoop::of(&done(LIMIT_US as u64 + 100, 0, true)).limit_met());
        assert!(!OpenLoop::of(&done(800, 0, false)).limit_met());
        // Lateness that climbs by 3 ms over the phase is a growing backlog, even
        // though every latency still fits the limit.
        assert!(!OpenLoop::of(&done(800, 3_000, true)).limit_met());
    }
}
