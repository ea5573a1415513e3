//! Server-wide counters for `/stats` and `GET /metrics`: request/error
//! tallies, log-scaled latency histograms (global, per endpoint, and
//! per pipeline stage), 60-second rolling windows, batching and
//! admission counters, event-loop activity gauges, and per-strategy
//! execution counts fed from each request's query trace.
//!
//! Everything is lock-free atomics except the strategy tally (a small
//! mutex-guarded map touched once per query). The histogram buckets are
//! powers of two in microseconds — enough resolution for p50/p95/p99
//! estimates server-side; the load harness computes exact percentiles
//! from its own samples. Percentile estimates interpolate linearly
//! *within* the resolved bucket (midpoint rule), so they are accurate
//! to a fraction of a bucket instead of snapping to a power of two.
//!
//! Two histogram families coexist per (endpoint, stage):
//!
//! * cumulative [`Hist`]s — monotone counters, the correct shape for
//!   Prometheus `_bucket/_sum/_count` exposition (scrapers window them
//!   with `rate()`), and what the concurrency hammer test checks for
//!   lost counts (pure `fetch_add`, nothing is ever reset);
//! * [`Rolling`] 60×1s rings — the "last minute" view rendered in
//!   `/stats` under `window_60s`. Slot reuse is a CAS race by design;
//!   a recorder that loses the race against a reset may drop that one
//!   observation from the *window* (never from the cumulative family).

use crate::span::{RequestSpan, STAGE_COUNT, STAGE_NAMES};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of log2 latency buckets: bucket `i` counts requests with
/// `2^i <= µs < 2^(i+1)` (bucket 0 is `< 2µs`, the last is open-ended).
pub const BUCKETS: usize = 32;

/// Seconds covered by the rolling windows.
pub const WINDOW_SECS: usize = 60;

fn bucket_of(us: u64) -> usize {
    (64 - us.leading_zeros() as usize).saturating_sub(1).min(BUCKETS - 1)
}

/// Interpolated percentile over log2 bucket counts: resolve the bucket
/// holding the `q`-th rank, then place the rank linearly within the
/// bucket's `[2^i, 2^(i+1))` span under the midpoint rule. `None` while
/// empty.
fn percentile_from_buckets(counts: &[u64; BUCKETS], q: f64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if seen + c >= rank && c > 0 {
            let lo = if i == 0 { 0 } else { 1u64 << i };
            let hi = 1u64 << (i + 1).min(63);
            let pos = (rank - seen) as f64 - 0.5;
            let est = lo as f64 + (hi - lo) as f64 * (pos / c as f64).clamp(0.0, 1.0);
            return Some(est.round() as u64);
        }
        seen += c;
    }
    None
}

fn stats_json(count: u64, total_us: u64, counts: &[u64; BUCKETS]) -> String {
    format!(
        "{{\"count\": {count}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
        if count > 0 { total_us / count } else { 0 },
        percentile_from_buckets(counts, 50.0).unwrap_or(0),
        percentile_from_buckets(counts, 95.0).unwrap_or(0),
        percentile_from_buckets(counts, 99.0).unwrap_or(0),
    )
}

/// A lock-free log2-microsecond latency histogram (cumulative:
/// observations are only ever added, never reset).
#[derive(Default)]
pub struct Hist {
    buckets: [AtomicU64; BUCKETS],
    total_us: AtomicU64,
}

impl Hist {
    pub fn record(&self, elapsed: Duration) {
        self.record_us(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// A consistent-enough copy of the bucket counts and the µs sum
    /// (each load is atomic; the tuple is not, which exposition
    /// tolerates).
    pub fn snapshot(&self) -> ([u64; BUCKETS], u64) {
        let mut counts = [0u64; BUCKETS];
        for (i, c) in self.buckets.iter().enumerate() {
            counts[i] = c.load(Ordering::Relaxed);
        }
        (counts, self.total_us.load(Ordering::Relaxed))
    }

    /// Estimate the `q`-th percentile (0..=100) by interpolating within
    /// the bucket holding that rank; `None` until something is
    /// recorded.
    pub fn percentile_us(&self, q: f64) -> Option<u64> {
        let (counts, _) = self.snapshot();
        percentile_from_buckets(&counts, q)
    }

    /// `{"count": …, "mean": …, "p50": …, "p95": …, "p99": …}`.
    pub fn render_json(&self) -> String {
        let (counts, total) = self.snapshot();
        stats_json(counts.iter().sum(), total, &counts)
    }
}

/// One second of a rolling window.
struct RollSlot {
    /// Which absolute second this slot currently holds; `u64::MAX`
    /// means never used.
    sec: AtomicU64,
    count: AtomicU64,
    total_us: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// A 60-second ring of one-second histogram slots. Writers CAS the
/// slot's second label forward and zero it on reuse; readers sum the
/// slots whose label falls inside the window. Used for the `/stats`
/// `window_60s` view only — cumulative accounting lives in [`Hist`].
pub struct Rolling {
    slots: Box<[RollSlot]>,
}

impl Rolling {
    fn new() -> Rolling {
        let slots = (0..WINDOW_SECS)
            .map(|_| RollSlot {
                sec: AtomicU64::new(u64::MAX),
                count: AtomicU64::new(0),
                total_us: AtomicU64::new(0),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Rolling { slots }
    }

    /// Record one observation against absolute second `sec`.
    pub fn record_us(&self, sec: u64, us: u64) {
        let slot = &self.slots[(sec as usize) % WINDOW_SECS];
        loop {
            let cur = slot.sec.load(Ordering::Acquire);
            if cur == sec {
                break;
            }
            if cur != u64::MAX && cur > sec {
                // A newer second already claimed the slot (reader clock
                // raced backwards across threads); drop from the window.
                return;
            }
            if slot
                .sec
                .compare_exchange(cur, sec, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                slot.count.store(0, Ordering::Relaxed);
                slot.total_us.store(0, Ordering::Relaxed);
                for b in &slot.buckets {
                    b.store(0, Ordering::Relaxed);
                }
                break;
            }
        }
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.total_us.fetch_add(us, Ordering::Relaxed);
        slot.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Sum the slots covering `(now_sec - 59) ..= now_sec`.
    pub fn window(&self, now_sec: u64) -> WindowStats {
        let mut stats = WindowStats::default();
        for slot in self.slots.iter() {
            let sec = slot.sec.load(Ordering::Acquire);
            if sec == u64::MAX || sec > now_sec || now_sec - sec >= WINDOW_SECS as u64 {
                continue;
            }
            stats.count += slot.count.load(Ordering::Relaxed);
            stats.total_us += slot.total_us.load(Ordering::Relaxed);
            for (i, b) in slot.buckets.iter().enumerate() {
                stats.buckets[i] += b.load(Ordering::Relaxed);
            }
        }
        stats
    }
}

/// Aggregated view of a rolling window.
pub struct WindowStats {
    pub count: u64,
    pub total_us: u64,
    pub buckets: [u64; BUCKETS],
}

impl Default for WindowStats {
    fn default() -> WindowStats {
        WindowStats { count: 0, total_us: 0, buckets: [0; BUCKETS] }
    }
}

impl WindowStats {
    pub fn percentile_us(&self, q: f64) -> Option<u64> {
        percentile_from_buckets(&self.buckets, q)
    }

    pub fn render_json(&self) -> String {
        stats_json(self.count, self.total_us, &self.buckets)
    }
}

/// The endpoints with dedicated latency histograms; anything else lands
/// in the trailing `other` bucket.
pub const ENDPOINTS: [&str; 8] =
    ["/query", "/load", "/update", "/stats", "/healthz", "/shutdown", "/metrics", "other"];

/// Resolve a request path to its [`ENDPOINTS`] index. Matching is
/// normalized: a query string (defensive — the HTTP layer already
/// splits it off) and any run of trailing slashes are ignored, so
/// `/healthz/` and `/shutdown//` land in their own histograms instead
/// of `other`.
pub fn endpoint_index(path: &str) -> usize {
    let mut p = path.split('?').next().unwrap_or(path);
    while p.len() > 1 && p.ends_with('/') {
        p = &p[..p.len() - 1];
    }
    ENDPOINTS.iter().position(|e| *e == p).unwrap_or(ENDPOINTS.len() - 1)
}

/// Gauges owned by other subsystems, handed in for one `/metrics`
/// render.
pub struct PromGauges {
    pub uptime_seconds: f64,
    pub queue_depth: u64,
    pub queue_peak: u64,
    pub queue_capacity: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_entries: u64,
    pub cache_capacity: u64,
    pub catalog_documents: u64,
    pub catalog_bytes: u64,
    pub catalog_evictions: u64,
    /// Entries spilled to the store directory (disk only, no mapping).
    pub catalog_spilled_documents: u64,
    /// Generation-file bytes behind resident mapped entries (page
    /// cache, reclaimable — distinct from heap `catalog_bytes`).
    pub catalog_mapped_bytes: u64,
    /// Generation-file bytes of spilled entries.
    pub catalog_spilled_bytes: u64,
    /// Lifetime resident→disk spills.
    pub catalog_spills: u64,
    /// Lifetime disk→resident remaps.
    pub catalog_remaps: u64,
}

pub struct Metrics {
    pub requests: AtomicU64,
    /// 4xx responses (client errors: bad queries, unknown documents).
    pub client_errors: AtomicU64,
    /// 5xx responses other than deadline aborts and admission 503s.
    pub server_errors: AtomicU64,
    pub deadline_aborts: AtomicU64,
    /// 503s from the bounded execution queue (event-loop admission
    /// control), distinct from deadline aborts.
    pub admission_rejections: AtomicU64,
    /// Requests served by an evaluation shared with at least one other
    /// request (leaders of multi-member batches count too).
    pub batched_requests: AtomicU64,
    /// Evaluations the coalescer avoided: Σ (batch size − 1).
    pub evaluations_saved: AtomicU64,
    /// Returns from the I/O threads' readiness waits. Idle keep-alive
    /// connections contribute nothing — the regression tests pin this.
    pub io_wakeups: AtomicU64,
    /// CPU microseconds consumed by the I/O threads (thread-CPU clock,
    /// self-sampled each loop iteration).
    pub io_cpu_us: AtomicU64,
    /// Successful `POST /update` requests (snapshot swaps).
    pub updates: AtomicU64,
    /// Total mutations applied across successful updates.
    pub mutations_applied: AtomicU64,
    /// Plan-cache entries dropped by update-scoped invalidation.
    pub plans_invalidated: AtomicU64,
    /// Requests admitted but not yet fully written back (span open).
    /// Signed so that direct `observe_span` callers (tests) cannot
    /// wrap it; rendered clamped at zero.
    pub inflight: AtomicI64,
    /// Zero point of the rolling windows' second labels.
    epoch: Instant,
    /// Request latency (arrival to response completion), all endpoints.
    latency: Hist,
    /// Per-endpoint request latency, indexed like [`ENDPOINTS`].
    endpoints: [Hist; ENDPOINTS.len()],
    /// Cumulative per-(endpoint, stage) lap histograms.
    stage_hists: Box<[[Hist; STAGE_COUNT]]>,
    /// Rolling 60s windows per endpoint: one ring per stage plus a
    /// trailing ring (index [`STAGE_COUNT`]) for total wall time.
    rolling: Box<[[Rolling; STAGE_COUNT + 1]]>,
    strategies: Mutex<BTreeMap<String, u64>>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics {
            requests: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            server_errors: AtomicU64::new(0),
            deadline_aborts: AtomicU64::new(0),
            admission_rejections: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            evaluations_saved: AtomicU64::new(0),
            io_wakeups: AtomicU64::new(0),
            io_cpu_us: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            mutations_applied: AtomicU64::new(0),
            plans_invalidated: AtomicU64::new(0),
            inflight: AtomicI64::new(0),
            epoch: Instant::now(),
            latency: Hist::default(),
            endpoints: Default::default(),
            stage_hists: (0..ENDPOINTS.len())
                .map(|_| std::array::from_fn(|_| Hist::default()))
                .collect(),
            rolling: (0..ENDPOINTS.len())
                .map(|_| std::array::from_fn(|_| Rolling::new()))
                .collect(),
            strategies: Mutex::new(BTreeMap::new()),
        }
    }

    /// The current second label for rolling-window records.
    pub fn now_sec(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    /// Fold one finished request span into every surface: the global
    /// and per-endpoint wall-latency histograms, the cumulative
    /// per-stage histograms, the rolling windows, and the inflight
    /// gauge. All seven stages are recorded per request (absent stages
    /// as 0µs laps), so each stage family's count equals the endpoint's
    /// request count and stage sums add up to the wall sum exactly.
    pub fn observe_span(&self, span: &RequestSpan) {
        let e = span.endpoint.min(ENDPOINTS.len() - 1);
        let sec = self.now_sec();
        let wall = span.total_us();
        self.latency.record_us(wall);
        self.endpoints[e].record_us(wall);
        self.rolling[e][STAGE_COUNT].record_us(sec, wall);
        for (s, &us) in span.stages_us().iter().enumerate() {
            self.stage_hists[e][s].record_us(us);
            self.rolling[e][s].record_us(sec, us);
        }
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record one served request's latency under its endpoint path
    /// (normalized via [`endpoint_index`]).
    pub fn record_latency(&self, path: &str, elapsed: Duration) {
        self.latency.record(elapsed);
        self.endpoints[endpoint_index(path)].record(elapsed);
    }

    /// Record which strategy a query evaluation actually executed with.
    pub fn record_strategy(&self, strategy: &str) {
        *self.strategies.lock().unwrap().entry(strategy.to_string()).or_default() += 1;
    }

    /// Tally an error response by status class.
    pub fn track_error(&self, status: u16) {
        if status >= 500 {
            if status == 503 {
                self.deadline_aborts.fetch_add(1, Ordering::Relaxed);
            } else {
                self.server_errors.fetch_add(1, Ordering::Relaxed);
            }
        } else if status >= 400 {
            self.client_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Estimate the `q`-th percentile of the global latency histogram.
    pub fn percentile_us(&self, q: f64) -> Option<u64> {
        self.latency.percentile_us(q)
    }

    fn inflight_now(&self) -> i64 {
        self.inflight.load(Ordering::Relaxed).max(0)
    }

    /// The `window_60s` object: per endpoint with traffic in the last
    /// minute, total wall-time stats plus per-stage stats.
    fn render_window_json(&self) -> String {
        let sec = self.now_sec();
        let fields = ENDPOINTS
            .iter()
            .enumerate()
            .filter_map(|(e, name)| {
                let total = self.rolling[e][STAGE_COUNT].window(sec);
                if total.count == 0 {
                    return None;
                }
                let stages = STAGE_NAMES
                    .iter()
                    .enumerate()
                    .map(|(s, stage)| {
                        format!(
                            "{}: {}",
                            crate::json_str(stage),
                            self.rolling[e][s].window(sec).render_json()
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                Some(format!(
                    "{}: {{\"total\": {}, \"stages\": {{{stages}}}}}",
                    crate::json_str(name),
                    total.render_json()
                ))
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!("{{{fields}}}")
    }

    /// Render the `/stats` fields this struct owns as JSON object
    /// entries (no surrounding braces). Queue facts live on the
    /// scheduler and are rendered by the caller.
    pub fn render_json_fields(&self) -> String {
        let requests = self.requests.load(Ordering::Relaxed);
        let strategies = self.strategies.lock().unwrap();
        let strategy_fields = strategies
            .iter()
            .map(|(s, n)| format!("{}: {n}", crate::json_str(s)))
            .collect::<Vec<_>>()
            .join(", ");
        let endpoint_fields = ENDPOINTS
            .iter()
            .zip(&self.endpoints)
            .map(|(name, hist)| format!("{}: {}", crate::json_str(name), hist.render_json()))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "\"requests\": {requests}, \
             \"inflight\": {}, \
             \"client_errors\": {}, \
             \"server_errors\": {}, \
             \"deadline_aborts\": {}, \
             \"admission_rejections\": {}, \
             \"batching\": {{\"batched_requests\": {}, \"evaluations_saved\": {}}}, \
             \"io\": {{\"wakeups\": {}, \"cpu_us\": {}}}, \
             \"updates\": {{\"count\": {}, \"mutations_applied\": {}, \"plans_invalidated\": {}}}, \
             \"latency_us\": {}, \
             \"endpoints\": {{{endpoint_fields}}}, \
             \"window_60s\": {}, \
             \"strategies\": {{{strategy_fields}}}",
            self.inflight_now(),
            self.client_errors.load(Ordering::Relaxed),
            self.server_errors.load(Ordering::Relaxed),
            self.deadline_aborts.load(Ordering::Relaxed),
            self.admission_rejections.load(Ordering::Relaxed),
            self.batched_requests.load(Ordering::Relaxed),
            self.evaluations_saved.load(Ordering::Relaxed),
            self.io_wakeups.load(Ordering::Relaxed),
            self.io_cpu_us.load(Ordering::Relaxed),
            self.updates.load(Ordering::Relaxed),
            self.mutations_applied.load(Ordering::Relaxed),
            self.plans_invalidated.load(Ordering::Relaxed),
            self.latency.render_json(),
            self.render_window_json(),
        )
    }

    /// Render the full Prometheus text exposition (format 0.0.4) from
    /// this struct's counters/histograms plus the caller-owned gauges.
    pub fn render_prometheus(&self, g: &PromGauges) -> String {
        use crate::promtext::{header, histogram, sample};
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        let mut out = String::with_capacity(16 * 1024);

        header(&mut out, "blossomd_uptime_seconds", "Seconds since the server started.", "gauge");
        sample(&mut out, "blossomd_uptime_seconds", &[], g.uptime_seconds);

        header(&mut out, "blossomd_requests_total", "Requests admitted (all endpoints).", "counter");
        sample(&mut out, "blossomd_requests_total", &[], c(&self.requests));
        header(
            &mut out,
            "blossomd_inflight_requests",
            "Requests admitted but not yet fully written back.",
            "gauge",
        );
        sample(&mut out, "blossomd_inflight_requests", &[], self.inflight_now() as f64);
        header(&mut out, "blossomd_errors_total", "Error responses by status class.", "counter");
        sample(&mut out, "blossomd_errors_total", &[("class", "client")], c(&self.client_errors));
        sample(&mut out, "blossomd_errors_total", &[("class", "server")], c(&self.server_errors));
        header(
            &mut out,
            "blossomd_deadline_aborts_total",
            "503s from cooperative deadline aborts.",
            "counter",
        );
        sample(&mut out, "blossomd_deadline_aborts_total", &[], c(&self.deadline_aborts));
        header(
            &mut out,
            "blossomd_admission_rejections_total",
            "503s from the bounded execution queue.",
            "counter",
        );
        sample(&mut out, "blossomd_admission_rejections_total", &[], c(&self.admission_rejections));
        header(
            &mut out,
            "blossomd_batched_requests_total",
            "Requests served by a shared-scan evaluation.",
            "counter",
        );
        sample(&mut out, "blossomd_batched_requests_total", &[], c(&self.batched_requests));
        header(
            &mut out,
            "blossomd_evaluations_saved_total",
            "Evaluations avoided by coalescing.",
            "counter",
        );
        sample(&mut out, "blossomd_evaluations_saved_total", &[], c(&self.evaluations_saved));
        header(&mut out, "blossomd_io_wakeups_total", "I/O thread readiness-wait returns.", "counter");
        sample(&mut out, "blossomd_io_wakeups_total", &[], c(&self.io_wakeups));
        header(
            &mut out,
            "blossomd_io_cpu_seconds_total",
            "CPU seconds consumed by the I/O threads.",
            "counter",
        );
        sample(&mut out, "blossomd_io_cpu_seconds_total", &[], c(&self.io_cpu_us) / 1e6);
        header(&mut out, "blossomd_updates_total", "Successful POST /update snapshot swaps.", "counter");
        sample(&mut out, "blossomd_updates_total", &[], c(&self.updates));
        header(
            &mut out,
            "blossomd_mutations_applied_total",
            "Mutations applied across successful updates.",
            "counter",
        );
        sample(&mut out, "blossomd_mutations_applied_total", &[], c(&self.mutations_applied));
        header(
            &mut out,
            "blossomd_plans_invalidated_total",
            "Plan-cache entries dropped by update invalidation.",
            "counter",
        );
        sample(&mut out, "blossomd_plans_invalidated_total", &[], c(&self.plans_invalidated));

        header(&mut out, "blossomd_queue_depth", "Execution-queue depth.", "gauge");
        sample(&mut out, "blossomd_queue_depth", &[], g.queue_depth as f64);
        header(&mut out, "blossomd_queue_depth_peak", "Execution-queue high-water mark.", "gauge");
        sample(&mut out, "blossomd_queue_depth_peak", &[], g.queue_peak as f64);
        header(&mut out, "blossomd_queue_capacity", "Execution-queue admission bound.", "gauge");
        sample(&mut out, "blossomd_queue_capacity", &[], g.queue_capacity as f64);

        header(&mut out, "blossomd_plan_cache_hits_total", "Shared plan-cache hits.", "counter");
        sample(&mut out, "blossomd_plan_cache_hits_total", &[], g.cache_hits as f64);
        header(&mut out, "blossomd_plan_cache_misses_total", "Shared plan-cache misses.", "counter");
        sample(&mut out, "blossomd_plan_cache_misses_total", &[], g.cache_misses as f64);
        header(&mut out, "blossomd_plan_cache_entries", "Shared plan-cache entries.", "gauge");
        sample(&mut out, "blossomd_plan_cache_entries", &[], g.cache_entries as f64);
        header(&mut out, "blossomd_plan_cache_capacity", "Shared plan-cache capacity.", "gauge");
        sample(&mut out, "blossomd_plan_cache_capacity", &[], g.cache_capacity as f64);

        header(&mut out, "blossomd_catalog_documents", "Documents resident in the catalog.", "gauge");
        sample(&mut out, "blossomd_catalog_documents", &[], g.catalog_documents as f64);
        header(&mut out, "blossomd_catalog_bytes", "Approximate catalog heap bytes.", "gauge");
        sample(&mut out, "blossomd_catalog_bytes", &[], g.catalog_bytes as f64);
        header(&mut out, "blossomd_catalog_evictions_total", "Catalog LRU evictions.", "counter");
        sample(&mut out, "blossomd_catalog_evictions_total", &[], g.catalog_evictions as f64);
        header(
            &mut out,
            "blossomd_catalog_spilled_documents",
            "Catalog entries spilled to the store directory (disk only).",
            "gauge",
        );
        sample(&mut out, "blossomd_catalog_spilled_documents", &[], g.catalog_spilled_documents as f64);
        header(
            &mut out,
            "blossomd_catalog_mapped_bytes",
            "Generation-file bytes behind resident mapped entries (page cache, not heap).",
            "gauge",
        );
        sample(&mut out, "blossomd_catalog_mapped_bytes", &[], g.catalog_mapped_bytes as f64);
        header(
            &mut out,
            "blossomd_catalog_spilled_bytes",
            "Generation-file bytes of spilled catalog entries.",
            "gauge",
        );
        sample(&mut out, "blossomd_catalog_spilled_bytes", &[], g.catalog_spilled_bytes as f64);
        header(&mut out, "blossomd_catalog_spills_total", "Resident-to-disk catalog spills.", "counter");
        sample(&mut out, "blossomd_catalog_spills_total", &[], g.catalog_spills as f64);
        header(&mut out, "blossomd_catalog_remaps_total", "Disk-to-resident catalog remaps.", "counter");
        sample(&mut out, "blossomd_catalog_remaps_total", &[], g.catalog_remaps as f64);

        header(
            &mut out,
            "blossomd_queries_by_strategy_total",
            "Query evaluations by executed strategy.",
            "counter",
        );
        for (strategy, n) in self.strategies.lock().unwrap().iter() {
            sample(&mut out, "blossomd_queries_by_strategy_total", &[("strategy", strategy)], *n as f64);
        }

        header(
            &mut out,
            "blossomd_request_duration_seconds",
            "Request wall time (first byte noticed to last byte written), per endpoint.",
            "histogram",
        );
        for (e, name) in ENDPOINTS.iter().enumerate() {
            let (counts, total_us) = self.endpoints[e].snapshot();
            if counts.iter().sum::<u64>() == 0 {
                continue;
            }
            histogram(
                &mut out,
                "blossomd_request_duration_seconds",
                &[("endpoint", name)],
                &counts,
                total_us,
            );
        }

        header(
            &mut out,
            "blossomd_request_stage_duration_seconds",
            "Per-stage lap time within request lifecycles; stage sums per endpoint add up to the wall-time sum.",
            "histogram",
        );
        for (e, name) in ENDPOINTS.iter().enumerate() {
            for (s, stage) in STAGE_NAMES.iter().enumerate() {
                let (counts, total_us) = self.stage_hists[e][s].snapshot();
                if counts.iter().sum::<u64>() == 0 {
                    continue;
                }
                histogram(
                    &mut out,
                    "blossomd_request_stage_duration_seconds",
                    &[("endpoint", name), ("stage", stage)],
                    &counts,
                    total_us,
                );
            }
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Stage;
    use std::sync::Arc;

    fn gauges() -> PromGauges {
        PromGauges {
            uptime_seconds: 1.5,
            queue_depth: 0,
            queue_peak: 3,
            queue_capacity: 1024,
            cache_hits: 10,
            cache_misses: 2,
            cache_entries: 2,
            cache_capacity: 1024,
            catalog_documents: 1,
            catalog_bytes: 12345,
            catalog_evictions: 0,
            catalog_spilled_documents: 2,
            catalog_mapped_bytes: 4096,
            catalog_spilled_bytes: 8192,
            catalog_spills: 3,
            catalog_remaps: 1,
        }
    }

    fn span(endpoint: usize, laps_us: [u64; STAGE_COUNT]) -> RequestSpan {
        let t0 = Instant::now();
        let mut s = RequestSpan::begin(t0);
        s.endpoint = endpoint;
        let mut at = t0;
        for (i, us) in laps_us.iter().enumerate() {
            at += Duration::from_micros(*us);
            s.mark_at(
                match i {
                    0 => Stage::Read,
                    1 => Stage::Parse,
                    2 => Stage::Queue,
                    3 => Stage::Batch,
                    4 => Stage::Execute,
                    5 => Stage::Serialize,
                    _ => Stage::Write,
                },
                at,
            );
        }
        s
    }

    #[test]
    fn percentiles_track_the_histogram() {
        let m = Metrics::new();
        assert_eq!(m.percentile_us(50.0), None);
        for _ in 0..99 {
            m.record_latency("/query", Duration::from_micros(100));
        }
        m.record_latency("/query", Duration::from_millis(50));
        // 100µs lands in the 64..128 bucket; interpolation places the
        // median rank (50 of 99 in-bucket) just past the bucket middle.
        // The p50 must not be dragged up by the one 50ms outlier.
        assert_eq!(m.percentile_us(50.0), Some(96));
        assert!(m.percentile_us(99.9).unwrap() > 10_000);
    }

    /// Satellite: the interpolated estimator against an exact
    /// sorted-sample reference. Uniform samples over [0, 2^17) fill
    /// every log2 bucket uniformly, so interpolation should land within
    /// a few percent of the exact percentile — where the old
    /// bucket-bound estimator was off by up to 2x at p50.
    #[test]
    fn interpolated_percentiles_match_an_exact_sorted_reference() {
        let h = Hist::default();
        let mut samples = Vec::new();
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for _ in 0..10_000 {
            // SplitMix64 step (same generator family as xmlgen).
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let us = z % (1 << 17);
            samples.push(us);
            h.record_us(us);
        }
        samples.sort_unstable();
        for q in [50.0f64, 90.0, 95.0, 99.0] {
            let rank = ((q / 100.0) * samples.len() as f64).ceil() as usize;
            let exact = samples[rank - 1].max(1) as f64;
            let est = h.percentile_us(q).expect("non-empty") as f64;
            let rel = (est - exact).abs() / exact;
            assert!(
                rel < 0.10,
                "p{q}: interpolated {est} vs exact {exact} (rel err {rel:.3})"
            );
        }
    }

    /// Satellite: trailing slashes and query strings must not banish
    /// real endpoints to the `other` histogram.
    #[test]
    fn endpoint_matching_normalizes_slashes_and_query_strings() {
        let other = ENDPOINTS.len() - 1;
        for (i, name) in ENDPOINTS.iter().enumerate().take(other) {
            assert_eq!(endpoint_index(name), i, "{name}");
            assert_eq!(endpoint_index(&format!("{name}/")), i, "{name}/");
            assert_eq!(endpoint_index(&format!("{name}//")), i, "{name}//");
            assert_eq!(endpoint_index(&format!("{name}?x=1")), i, "{name}?x=1");
            assert_eq!(endpoint_index(&format!("{name}/?x=1")), i, "{name}/?x=1");
        }
        assert_eq!(endpoint_index("/"), other);
        assert_eq!(endpoint_index("/healthzz"), other);
        assert_eq!(endpoint_index("/made/up/route"), other);
        assert_eq!(endpoint_index(""), other);

        let m = Metrics::new();
        m.record_latency("/shutdown/", Duration::from_micros(10));
        m.record_latency("/healthz?probe=1", Duration::from_micros(10));
        let json = m.render_json_fields();
        assert!(json.contains("\"/shutdown\": {\"count\": 1"), "{json}");
        assert!(json.contains("\"/healthz\": {\"count\": 1"), "{json}");
        assert!(json.contains("\"other\": {\"count\": 0"), "{json}");
    }

    #[test]
    fn stats_json_includes_strategy_tallies() {
        let m = Metrics::new();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.record_strategy("pipelined");
        m.record_strategy("pipelined");
        m.record_strategy("navigational");
        let json = m.render_json_fields();
        assert!(json.contains("\"pipelined\": 2"), "{json}");
        assert!(json.contains("\"navigational\": 1"), "{json}");
        assert!(json.contains("\"requests\": 3"), "{json}");
    }

    #[test]
    fn endpoint_histograms_are_separate() {
        let m = Metrics::new();
        m.record_latency("/query", Duration::from_micros(100));
        m.record_latency("/query", Duration::from_micros(100));
        m.record_latency("/load", Duration::from_micros(100));
        m.record_latency("/made/up/route", Duration::from_micros(100));
        let json = m.render_json_fields();
        assert!(json.contains("\"endpoints\""), "{json}");
        assert!(json.contains("\"/query\": {\"count\": 2"), "{json}");
        assert!(json.contains("\"/load\": {\"count\": 1"), "{json}");
        assert!(json.contains("\"other\": {\"count\": 1"), "{json}");
        assert!(json.contains("\"/stats\": {\"count\": 0"), "{json}");
    }

    #[test]
    fn batching_and_admission_fields_render() {
        let m = Metrics::new();
        m.batched_requests.fetch_add(5, Ordering::Relaxed);
        m.evaluations_saved.fetch_add(3, Ordering::Relaxed);
        m.admission_rejections.fetch_add(2, Ordering::Relaxed);
        let json = m.render_json_fields();
        assert!(json.contains("\"batching\": {\"batched_requests\": 5, \"evaluations_saved\": 3}"), "{json}");
        assert!(json.contains("\"admission_rejections\": 2"), "{json}");
        assert!(json.contains("\"io\": {\"wakeups\": 0, \"cpu_us\": 0}"), "{json}");
    }

    #[test]
    fn update_counters_render() {
        let m = Metrics::new();
        m.updates.fetch_add(2, Ordering::Relaxed);
        m.mutations_applied.fetch_add(7, Ordering::Relaxed);
        m.plans_invalidated.fetch_add(3, Ordering::Relaxed);
        m.record_latency("/update", Duration::from_micros(100));
        let json = m.render_json_fields();
        assert!(
            json.contains("\"updates\": {\"count\": 2, \"mutations_applied\": 7, \"plans_invalidated\": 3}"),
            "{json}"
        );
        assert!(json.contains("\"/update\": {\"count\": 1"), "{json}");
    }

    #[test]
    fn track_error_classifies_statuses() {
        let m = Metrics::new();
        m.track_error(404);
        m.track_error(400);
        m.track_error(503);
        m.track_error(500);
        assert_eq!(m.client_errors.load(Ordering::Relaxed), 2);
        assert_eq!(m.deadline_aborts.load(Ordering::Relaxed), 1);
        assert_eq!(m.server_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn observe_span_feeds_stage_histograms_and_windows() {
        let m = Metrics::new();
        m.inflight.fetch_add(1, Ordering::Relaxed);
        let s = span(0, [5, 1, 10, 0, 500, 3, 7]);
        m.observe_span(&s);
        assert_eq!(m.inflight.load(Ordering::Relaxed), 0);
        assert_eq!(m.endpoints[0].count(), 1);
        for hist in m.stage_hists[0].iter() {
            assert_eq!(hist.count(), 1, "every stage records once per request");
        }
        // Stage sums conserve the wall sum exactly.
        let wall: u64 = m.endpoints[0].snapshot().1;
        let stage_sum: u64 = (0..STAGE_COUNT).map(|i| m.stage_hists[0][i].snapshot().1).sum();
        assert_eq!(wall, 526);
        assert_eq!(stage_sum, wall);
        let json = m.render_json_fields();
        assert!(json.contains("\"window_60s\": {\"/query\""), "{json}");
        assert!(json.contains("\"execute\": {\"count\": 1"), "{json}");
    }

    #[test]
    fn rolling_window_expires_old_seconds() {
        let r = Rolling::new();
        r.record_us(10, 100);
        r.record_us(10, 100);
        r.record_us(30, 100);
        assert_eq!(r.window(30).count, 3);
        assert_eq!(r.window(70).count, 1, "second 10 fell out of [11..=70]");
        assert_eq!(r.window(200).count, 0);
        // Slot reuse: second 70 reclaims second 10's slot.
        r.record_us(70, 50);
        assert_eq!(r.window(70).count, 2);
        assert_eq!(r.window(70).total_us, 150);
    }

    /// Satellite: 8-thread hammer — the lock-free cumulative histograms
    /// must never lose a count (sum of bucket counts == observations),
    /// and the exposition they feed must parse.
    #[test]
    fn concurrent_observations_never_lose_counts_and_exposition_parses() {
        const THREADS: usize = 8;
        const PER: usize = 4_000;
        let m = Arc::new(Metrics::new());
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..PER {
                        let e = (t + i) % ENDPOINTS.len();
                        let us = ((i * 37 + t * 11) % 5_000) as u64;
                        let s = span(e, [us / 8, 1, us / 4, 0, us, 2, us / 16]);
                        m.observe_span(&s);
                        if i % 64 == 0 {
                            m.record_strategy(if t % 2 == 0 { "twigstack" } else { "navigational" });
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }

        let total: u64 = (0..ENDPOINTS.len()).map(|e| m.endpoints[e].count()).sum();
        assert_eq!(total, (THREADS * PER) as u64, "wall histogram lost counts");
        assert_eq!(m.latency.count(), (THREADS * PER) as u64);
        for e in 0..ENDPOINTS.len() {
            let requests = m.endpoints[e].count();
            for (s, hist) in m.stage_hists[e].iter().enumerate() {
                assert_eq!(
                    hist.count(),
                    requests,
                    "stage {} of {} lost counts",
                    STAGE_NAMES[s],
                    ENDPOINTS[e]
                );
            }
        }

        let expo = m.render_prometheus(&gauges());
        let stats = crate::promtext::check(&expo).expect("exposition parses");
        assert!(stats.families > 20, "{stats:?}");
        let scraped =
            crate::promtext::value(&expo, "blossomd_request_duration_seconds_count", &[("endpoint", "/query")]);
        assert_eq!(scraped, Some(m.endpoints[0].count() as f64));
    }

    #[test]
    fn prometheus_exposition_has_counters_gauges_and_histograms() {
        let m = Metrics::new();
        m.requests.fetch_add(7, Ordering::Relaxed);
        m.record_strategy("twigstack");
        let s = span(0, [1, 1, 1, 0, 100, 1, 1]);
        m.observe_span(&s);
        let expo = m.render_prometheus(&gauges());
        crate::promtext::check(&expo).expect("well-formed");
        assert!(expo.contains("blossomd_requests_total 7"), "{expo}");
        assert!(expo.contains("blossomd_queue_capacity 1024"), "{expo}");
        assert!(
            expo.contains("blossomd_queries_by_strategy_total{strategy=\"twigstack\"} 1"),
            "{expo}"
        );
        assert!(
            expo.contains("blossomd_request_stage_duration_seconds_count{endpoint=\"/query\",stage=\"execute\"} 1"),
            "{expo}"
        );
        // Endpoints with no traffic render no histogram series.
        assert!(!expo.contains("endpoint=\"/load\""), "{expo}");
    }
}
