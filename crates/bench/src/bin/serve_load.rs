//! Load generator for `blossomd`, in two phases, both landing in
//! `BENCH_server.json`:
//!
//! 1. **Closed-loop sweep** — N keep-alive connections each sweep the
//!    Table-2/3 query matrix (six queries × five paper datasets),
//!    byte-comparing every response body against a direct in-process
//!    evaluation. Measures peak sustainable throughput and exact
//!    p50/p95/p99 service latencies.
//! 2. **Open-loop latency-under-load curves** — requests arrive on a
//!    *fixed schedule* (arrival i is due at `t0 + i/rate`) regardless
//!    of how fast the server answers, the textbook open-loop model: a
//!    slow server cannot slow the arrival process down, so queueing
//!    delay shows up in the measured latency instead of being hidden
//!    by coordinated omission. Latency is measured **from the
//!    scheduled arrival**, not from the send. The sweep runs each
//!    offered rate against a fresh event-loop server, tracing its
//!    latency curve up to and past its overload knee; admission
//!    rejections (503) count as graceful degradation, not errors.
//!
//! ```text
//! cargo run --release -p blossom-bench --bin serve_load
//! cargo run --release -p blossom-bench --bin serve_load -- --rates 500,2000,8000
//! ```
//!
//! Flags:
//!
//! * `--addr A`             drive an already-running server instead of
//!                          spawning one per phase in-process (the
//!                          open-loop phase then measures that one
//!                          server, labeled `external`)
//! * `--connections N`      closed-loop connections (default 4)
//! * `--rounds N`           closed-loop sweeps of the 30-query matrix
//!                          per connection (default 2)
//! * `--nodes N`            approximate nodes per dataset document
//!                          (default 4000)
//! * `--rates A,B,C`        open-loop offered arrival rates in req/s
//!                          (default `500,2000,8000`)
//! * `--rate R`             shorthand for a single-rate open-loop run
//! * `--open-connections N` connection pool for the open-loop phase
//!                          (default 256 — far more than the execution
//!                          pool, so parked connections are cheap only
//!                          if the server's idle-connection cost is)
//! * `--open-seconds S`     scheduled arrival window per rate (default 2)
//! * `--no-open`            skip the open-loop phase
//! * `--out FILE`           report path (default `BENCH_server.json`)
//!
//! Besides the matrix sweep, the run sends one deliberately malformed
//! request (must get 4xx, and the server must keep serving) and one
//! `?profile=1` request (must embed the plain body unchanged plus the
//! `blossom_profile` trace). Any response mismatch fails the run.

use blossom_bench::queries::queries;
use blossom_bench::timing::{write_report, Json};
use blossom_bench::Args;
use blossom_core::{Engine, Strategy};
use blossom_server::span::STAGE_NAMES;
use blossom_server::{promtext, Client, Server, ServerConfig};
use blossom_xml::writer;
use blossom_xmlgen::{generate, Dataset};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Case {
    doc_name: String,
    query: &'static str,
    label: String,
    /// What `GET /query` must return, byte for byte.
    expected: String,
}

/// Sorted-percentile helper (rank method, matching the server's tests).
fn pct(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * sorted_us.len() as f64).ceil().max(1.0) as usize;
    sorted_us[rank.min(sorted_us.len()) - 1]
}

fn latency_json(sorted_us: &[u64]) -> Json {
    Json::obj([
        ("p50", Json::Num(pct(sorted_us, 50.0) as f64)),
        ("p95", Json::Num(pct(sorted_us, 95.0) as f64)),
        ("p99", Json::Num(pct(sorted_us, 99.0) as f64)),
        ("max", Json::Num(sorted_us.last().copied().unwrap_or(0) as f64)),
    ])
}

/// One open-loop run: `rate * seconds` arrivals on a fixed schedule,
/// drained by a pool of `connections` keep-alive clients.
struct OpenRun {
    offered_rps: f64,
    arrivals: usize,
    served: usize,
    rejected_503: usize,
    errors: usize,
    mismatches: usize,
    wall: Duration,
    /// Completion − scheduled arrival (includes time spent waiting for
    /// a free connection and in the server's queue).
    from_arrival_us: Vec<u64>,
    /// Completion − send (the server's service view).
    service_us: Vec<u64>,
}

fn open_loop(
    addr: &str,
    doc_name: &str,
    query: &'static str,
    expected: &str,
    rate: f64,
    connections: usize,
    seconds: f64,
) -> OpenRun {
    let arrivals = (rate * seconds).ceil().max(1.0) as usize;
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_conn: Vec<(Vec<u64>, Vec<u64>, usize, usize, usize, usize)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..connections)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).ok();
                        if let Some(c) = &client {
                            let _ = c.set_read_timeout(Some(Duration::from_secs(10)));
                        }
                        let mut from_arrival = Vec::new();
                        let mut service = Vec::new();
                        let (mut served, mut rejected, mut errors, mut mismatches) =
                            (0usize, 0usize, 0usize, 0usize);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= arrivals {
                                break;
                            }
                            // The schedule never adapts to the server:
                            // arrival i is due at t0 + i/rate even if
                            // every connection is still busy.
                            let due = Duration::from_secs_f64(i as f64 / rate);
                            let now = t0.elapsed();
                            if now < due {
                                std::thread::sleep(due - now);
                            }
                            let Some(c) = client.as_mut() else {
                                client = Client::connect(addr).ok();
                                errors += 1;
                                continue;
                            };
                            let sent = Instant::now();
                            match c.query(doc_name, query, &[]) {
                                Ok(response) => {
                                    let done = t0.elapsed();
                                    from_arrival
                                        .push(done.saturating_sub(due).as_micros() as u64);
                                    service.push(sent.elapsed().as_micros() as u64);
                                    match response.status {
                                        200 => {
                                            served += 1;
                                            if response.body_str() != expected {
                                                mismatches += 1;
                                            }
                                        }
                                        503 => rejected += 1,
                                        _ => errors += 1,
                                    }
                                    if response.closed {
                                        client = Client::connect(addr).ok();
                                        if let Some(c) = &client {
                                            let _ = c.set_read_timeout(Some(
                                                Duration::from_secs(10),
                                            ));
                                        }
                                    }
                                }
                                Err(_) => {
                                    errors += 1;
                                    client = Client::connect(addr).ok();
                                    if let Some(c) = &client {
                                        let _ = c
                                            .set_read_timeout(Some(Duration::from_secs(10)));
                                    }
                                }
                            }
                        }
                        (from_arrival, service, served, rejected, errors, mismatches)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("open-loop worker")).collect()
        });
    let wall = t0.elapsed();
    let mut from_arrival_us = Vec::new();
    let mut service_us = Vec::new();
    let (mut served, mut rejected_503, mut errors, mut mismatches) = (0, 0, 0, 0);
    for (fa, sv, s, r, e, m) in per_conn {
        from_arrival_us.extend(fa);
        service_us.extend(sv);
        served += s;
        rejected_503 += r;
        errors += e;
        mismatches += m;
    }
    from_arrival_us.sort_unstable();
    service_us.sort_unstable();
    OpenRun {
        offered_rps: rate,
        arrivals,
        served,
        rejected_503,
        errors,
        mismatches,
        wall,
        from_arrival_us,
        service_us,
    }
}

fn open_run_json(run: &OpenRun) -> Json {
    Json::obj([
        ("offered_rps", Json::Num(run.offered_rps)),
        ("arrivals", Json::Num(run.arrivals as f64)),
        (
            "achieved_rps",
            Json::Num((run.served + run.rejected_503) as f64 / run.wall.as_secs_f64()),
        ),
        ("served", Json::Num(run.served as f64)),
        ("rejected_503", Json::Num(run.rejected_503 as f64)),
        ("errors", Json::Num(run.errors as f64)),
        ("wall_s", Json::Num(run.wall.as_secs_f64())),
        ("latency_from_arrival_us", latency_json(&run.from_arrival_us)),
        ("service_us", latency_json(&run.service_us)),
    ])
}

fn main() {
    let args = Args::parse();
    let connections: usize = args.get("connections").unwrap_or(4);
    let rounds: usize = args.get("rounds").unwrap_or(2);
    let nodes: usize = args.get("nodes").unwrap_or(4000);
    let out: String = args.get("out").unwrap_or_else(|| "BENCH_server.json".into());
    let external: Option<String> = args.get("addr");
    let open_connections: usize = args.get("open-connections").unwrap_or(256);
    let open_seconds: f64 = args.get("open-seconds").unwrap_or(2.0);
    let rates: Vec<f64> = match args.get::<f64>("rate") {
        Some(r) => vec![r],
        None => args
            .get::<String>("rates")
            .unwrap_or_else(|| "500,2000,8000".into())
            .split(',')
            .map(|r| r.trim().parse().expect("bad --rates entry"))
            .collect(),
    };
    let run_open = !args.has("no-open");

    // Spawn in-process unless pointed at a live server.
    let (addr, handle) = match &external {
        Some(addr) => (addr.clone(), None),
        None => {
            let server = Server::bind(ServerConfig::default()).expect("bind ephemeral port");
            let handle = server.spawn();
            (handle.addr().to_string(), Some(handle))
        }
    };

    // Build the matrix: five paper datasets × six Table-2 queries, with
    // the ground truth evaluated directly in-process.
    let mut setup = Client::connect(&*addr).expect("connect for setup");
    let mut cases: Vec<Case> = Vec::new();
    let mut first_doc_xml = String::new();
    for dataset in Dataset::all() {
        let doc = generate(dataset, nodes, 42);
        let xml = writer::to_string(&doc);
        if first_doc_xml.is_empty() {
            first_doc_xml = xml.clone();
        }
        let loaded = setup.load(dataset.name(), xml.as_bytes()).expect("POST /load");
        assert_eq!(loaded.status, 200, "loading {}: {}", dataset.name(), loaded.body_str());
        let engine = Engine::new(doc);
        for q in queries(dataset) {
            let result = engine
                .eval_query_str(q.path, Strategy::Auto)
                .unwrap_or_else(|e| panic!("direct eval of {}: {e}", q.path));
            cases.push(Case {
                doc_name: dataset.name().to_string(),
                query: q.path,
                label: format!("{}/{}", dataset.name(), q.id),
                expected: format!("{}\n", writer::to_string(&result)),
            });
        }
    }
    let cases = Arc::new(cases);
    println!(
        "serve_load: {} cases x {rounds} round(s) x {connections} connection(s) against {addr}",
        cases.len()
    );

    // Robustness probes before the measured sweep: a malformed request
    // 4xxes without taking the server down, and a profiled request
    // embeds the plain body unchanged.
    let mut raw = Client::connect(&*addr).expect("connect for malformed probe");
    let garbage = raw.send_raw(b"NOT EVEN HTTP\r\n\r\n").expect("malformed response");
    assert!(
        (400..500).contains(&garbage.status),
        "malformed request got {} not 4xx",
        garbage.status
    );
    let first = &cases[0];
    let profiled = setup
        .query(&first.doc_name, first.query, &["profile=1"])
        .expect("profile=1 request");
    assert_eq!(profiled.status, 200, "{}", profiled.body_str());
    let profile_body = profiled.body_str();
    for key in ["\"blossom_profile\"", "\"result\"", "\"strategy\""] {
        assert!(profile_body.contains(key), "profile missing {key}: {profile_body}");
    }
    assert!(
        profile_body.contains(&blossom_server::json_str(&first.expected)),
        "profile envelope changed the result bytes"
    );

    // Baseline /metrics scrape: the sweep's request count is asserted
    // as a delta so setup traffic (loads, probes) doesn't blur it.
    let metrics_before = setup.get("/metrics").map(|r| r.body_str()).unwrap_or_default();
    let requests_before =
        promtext::value(&metrics_before, "blossomd_requests_total", &[]).unwrap_or(0.0);

    // Phase 1 — closed-loop sweep: every connection issues its next
    // request the moment the previous answer lands.
    let started = Instant::now();
    let worker_results: Vec<(Vec<u64>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let cases = cases.clone();
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&*addr).expect("connect worker");
                    let mut latencies_us: Vec<u64> = Vec::new();
                    let mut mismatches = 0usize;
                    for round in 0..rounds {
                        // Offset per connection so the server sees a mix
                        // of documents at any instant.
                        for i in 0..cases.len() {
                            let case = &cases[(i + c * 7 + round) % cases.len()];
                            let t = Instant::now();
                            let response = client
                                .query(&case.doc_name, case.query, &[])
                                .expect("GET /query");
                            latencies_us.push(t.elapsed().as_micros() as u64);
                            if response.status != 200 || response.body_str() != case.expected {
                                mismatches += 1;
                                if mismatches == 1 {
                                    eprintln!(
                                        "MISMATCH [{}] status {}: got {} bytes, want {} bytes",
                                        case.label,
                                        response.status,
                                        response.body.len(),
                                        case.expected.len()
                                    );
                                }
                            }
                        }
                    }
                    (latencies_us, mismatches)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let wall = started.elapsed();

    let mut latencies: Vec<u64> =
        worker_results.iter().flat_map(|(l, _)| l.iter().copied()).collect();
    let mut mismatches: usize = worker_results.iter().map(|(_, m)| m).sum();
    latencies.sort_unstable();
    let total = latencies.len();
    let throughput = total as f64 / wall.as_secs_f64();

    // The server's own view of the run.
    let stats_body = setup.get("/stats").map(|r| r.body_str()).unwrap_or_default();

    println!(
        "serve_load: closed-loop {total} requests in {:.2}s = {throughput:.0} req/s; \
         p50 {}us p95 {}us p99 {}us; {mismatches} mismatch(es)",
        wall.as_secs_f64(),
        pct(&latencies, 50.0),
        pct(&latencies, 95.0),
        pct(&latencies, 99.0)
    );

    // Post-sweep /metrics scrape: the exposition must parse cleanly,
    // and the per-stage histograms must conserve wall time — every
    // span attributes each elapsed microsecond to exactly one stage,
    // so summing `_sum` across the seven stages should reproduce the
    // request-duration `_sum` for the same endpoint (ratio within
    // [0.95, 1.05]; in practice it is exact up to float rounding).
    let metrics_after = setup.get("/metrics").map(|r| r.body_str()).unwrap_or_default();
    let expo = match promtext::check(&metrics_after) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("serve_load: /metrics exposition failed validation: {e}");
            mismatches += 1;
            promtext::ExpoStats { families: 0, samples: 0 }
        }
    };
    let requests_after =
        promtext::value(&metrics_after, "blossomd_requests_total", &[]).unwrap_or(0.0);
    let requests_delta = requests_after - requests_before;
    if (requests_delta as usize) < total {
        eprintln!(
            "serve_load: /metrics counted {requests_delta} requests across the sweep, \
             expected at least {total}"
        );
        mismatches += 1;
    }
    let query_wall_s =
        promtext::value(&metrics_after, "blossomd_request_duration_seconds_sum", &[(
            "endpoint", "/query",
        )])
        .unwrap_or(0.0);
    let query_stage_s: f64 = STAGE_NAMES
        .iter()
        .filter_map(|stage| {
            promtext::value(&metrics_after, "blossomd_request_stage_duration_seconds_sum", &[
                ("endpoint", "/query"),
                ("stage", stage),
            ])
        })
        .sum();
    let conservation = if query_wall_s > 0.0 { query_stage_s / query_wall_s } else { 0.0 };
    if !(0.95..=1.05).contains(&conservation) {
        eprintln!(
            "serve_load: stage-time conservation violated: stages sum {query_stage_s:.6}s \
             vs wall {query_wall_s:.6}s (ratio {conservation:.4})"
        );
        mismatches += 1;
    }
    println!(
        "serve_load: /metrics {} families / {} samples; {requests_delta:.0} requests counted; \
         stage/wall conservation {conservation:.4}",
        expo.families, expo.samples
    );

    if let Some(handle) = handle {
        let mut shut = Client::connect(&*addr).expect("connect for shutdown");
        let response = shut.request("POST", "/shutdown", &[]).expect("POST /shutdown");
        assert_eq!(response.status, 200);
        handle.shutdown();
    }

    // Phase 2 — open-loop curves: one cheap query fired on a fixed
    // arrival schedule through a big connection pool, per rate.
    // Identical queries are deliberate: under overload they are exactly
    // what the shared-scan batcher coalesces.
    let open_case = &cases[0];
    let label = if external.is_some() { "external" } else { "event-loop" };
    let mut rate_rows: Vec<Json> = Vec::new();
    if run_open {
        for &rate in &rates {
            // A fresh server per run so queue state and stats never
            // leak across measurements.
            let run_handle = external.is_none().then(|| {
                Server::bind(ServerConfig::default()).expect("bind ephemeral port").spawn()
            });
            let run_addr = run_handle.as_ref().map_or(addr.clone(), |h| h.addr().to_string());
            let mut loader = Client::connect(&*run_addr).expect("connect loader");
            let loaded =
                loader.load(&open_case.doc_name, first_doc_xml.as_bytes()).expect("POST /load");
            assert_eq!(loaded.status, 200, "{}", loaded.body_str());
            let run = open_loop(
                &run_addr,
                &open_case.doc_name,
                open_case.query,
                &open_case.expected,
                rate,
                open_connections,
                open_seconds,
            );
            println!(
                "serve_load: open-loop [{label}] offered {rate:.0} rps -> achieved \
                 {:.0} rps, served {} rejected {} errors {}, \
                 from-arrival p50 {}us p99 {}us",
                (run.served + run.rejected_503) as f64 / run.wall.as_secs_f64(),
                run.served,
                run.rejected_503,
                run.errors,
                pct(&run.from_arrival_us, 50.0),
                pct(&run.from_arrival_us, 99.0),
            );
            mismatches += run.mismatches;
            // Lost requests (neither answered nor rejected) mean the
            // run under-measured; surface them as mismatches too.
            if run.errors > run.arrivals / 10 {
                eprintln!(
                    "serve_load: [{label}] {} of {} open-loop requests errored",
                    run.errors, run.arrivals
                );
                mismatches += 1;
            }
            rate_rows.push(open_run_json(&run));
            if let Some(h) = run_handle {
                h.shutdown();
            }
        }
    }

    let report = Json::obj([
        ("bench", Json::str("server_load")),
        ("addr", Json::str(&addr)),
        ("in_process", Json::Bool(external.is_none())),
        (
            "closed_loop",
            Json::obj([
                ("connections", Json::Num(connections as f64)),
                ("rounds", Json::Num(rounds as f64)),
                ("nodes_per_dataset", Json::Num(nodes as f64)),
                ("query_matrix", Json::Num(cases.len() as f64)),
                ("requests", Json::Num(total as f64)),
                ("wall_s", Json::Num(wall.as_secs_f64())),
                ("throughput_rps", Json::Num(throughput)),
                (
                    "latency_us",
                    Json::obj([
                        ("p50", Json::Num(pct(&latencies, 50.0) as f64)),
                        ("p95", Json::Num(pct(&latencies, 95.0) as f64)),
                        ("p99", Json::Num(pct(&latencies, 99.0) as f64)),
                        ("min", Json::Num(latencies.first().copied().unwrap_or(0) as f64)),
                        ("max", Json::Num(latencies.last().copied().unwrap_or(0) as f64)),
                    ]),
                ),
                ("server_stats_raw", Json::str(stats_body.trim_end())),
                (
                    "metrics",
                    Json::obj([
                        ("families", Json::Num(expo.families as f64)),
                        ("samples", Json::Num(expo.samples as f64)),
                        ("requests_total_delta", Json::Num(requests_delta)),
                        ("query_wall_seconds_sum", Json::Num(query_wall_s)),
                        ("query_stage_seconds_sum", Json::Num(query_stage_s)),
                        ("stage_wall_conservation", Json::Num(conservation)),
                    ]),
                ),
            ]),
        ),
        (
            "open_loop",
            if run_open {
                Json::obj([
                    ("connections", Json::Num(open_connections as f64)),
                    ("seconds_per_rate", Json::Num(open_seconds)),
                    ("doc", Json::str(&open_case.doc_name)),
                    ("query", Json::str(open_case.query)),
                    ("server", Json::str(label)),
                    ("rates", Json::arr(rate_rows)),
                ])
            } else {
                Json::Null
            },
        ),
        ("response_mismatches", Json::Num(mismatches as f64)),
    ]);
    write_report(&out, &report).expect("write report");
    println!("serve_load: report written to {out}");

    if mismatches > 0 {
        eprintln!("serve_load: {mismatches} response mismatch(es)");
        std::process::exit(1);
    }
}
