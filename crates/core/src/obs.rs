//! Query-engine observability: per-operator counters, strategy-decision
//! traces, and `EXPLAIN ANALYZE`-style profiles.
//!
//! The paper's evaluation (Section 6) argues by operator behavior —
//! elements scanned, joins avoided, strategy chosen per query shape.
//! This module makes that visible at runtime:
//!
//! * [`OpCounters`] / [`Meter`] — cheap per-operator work counters
//!   (elements scanned, elements galloped past by `skip_to`/`skip_past`,
//!   stack pushes, intermediate matches, output items). A disabled meter
//!   compiles to an `#[inline]` branch on a bool, so the unprofiled hot
//!   path pays a predictable never-taken branch and nothing else.
//! * [`TraceSink`] — the `Sync` collection point operators and the
//!   planner report into (a `Mutex` over plain vectors, so an engine
//!   shared across threads stays `Sync`). The engine
//!   owns one and hands it out only when `EngineOptions::trace` is set.
//! * [`QueryTrace`] — the per-query report: the resolved plan and every
//!   strategy decision (requested strategy, `twigstack_compatible`
//!   verdict, Auto fallback events with reasons), merged operator
//!   counters, monotonic per-phase timings, and the plan-cache stats.
//!   Renders as an annotated text profile ([`QueryTrace::render`]) or a
//!   stable machine-readable JSON document ([`QueryTrace::to_json`],
//!   schema version [`PROFILE_SCHEMA_VERSION`]).
//!
//! Tracing never changes results: every instrumented operator produces
//! byte-identical output with counters on or off (asserted in tests and
//! by the differential harness).

use crate::engine::CacheStats;
use crate::plan::Strategy;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Duration;

/// Version stamp of the `--profile-json` schema. Bump only when a key is
/// renamed or removed; additions are backward-compatible. Version 2
/// dropped `threads` and `skip_joins`, the two engine knobs that no
/// longer exist.
pub const PROFILE_SCHEMA_VERSION: u32 = 2;

/// Work counters for one physical operator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpCounters {
    /// Elements examined one at a time (stream advances, anchor
    /// candidates offered to a pattern match, axis candidates walked).
    pub scanned: u64,
    /// Elements galloped past *without examination* via
    /// `skip_to`/`skip_past`/`skip_to_end` or a range probe.
    pub skipped: u64,
    /// Stack/buffer pushes (the holistic joins' memory measure).
    pub pushes: u64,
    /// Intermediate matches (path-solution participants, per-anchor NoK
    /// matches, join candidates admitted).
    pub matches: u64,
    /// Items the operator produced (nodes or tuples).
    pub output: u64,
}

impl OpCounters {
    /// Accumulate `other` into `self` (label-merge and totals).
    pub fn add(&mut self, other: &OpCounters) {
        self.scanned += other.scanned;
        self.skipped += other.skipped;
        self.pushes += other.pushes;
        self.matches += other.matches;
        self.output += other.output;
    }

    /// All counters zero?
    pub fn is_zero(&self) -> bool {
        *self == OpCounters::default()
    }
}

/// A per-operator counter bundle behind an on/off flag. Every bump is an
/// `#[inline]` method that branches on the flag, so operators embed a
/// meter unconditionally and pay nothing when tracing is disabled.
#[derive(Debug, Clone, Copy)]
pub struct Meter {
    on: bool,
    c: OpCounters,
}

impl Meter {
    /// A meter that counts iff `on`.
    pub fn new(on: bool) -> Meter {
        Meter { on, c: OpCounters::default() }
    }

    /// A disabled meter: every bump is a no-op.
    pub fn off() -> Meter {
        Meter::new(false)
    }

    /// Is this meter counting?
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// The counters accumulated so far (zeros when disabled).
    pub fn counters(&self) -> OpCounters {
        self.c
    }

    /// Count `n` elements examined.
    #[inline]
    pub fn scanned(&mut self, n: u64) {
        if self.on {
            self.c.scanned += n;
        }
    }

    /// Count `n` elements galloped past unexamined.
    #[inline]
    pub fn skipped(&mut self, n: u64) {
        if self.on {
            self.c.skipped += n;
        }
    }

    /// Count `n` stack/buffer pushes.
    #[inline]
    pub fn pushes(&mut self, n: u64) {
        if self.on {
            self.c.pushes += n;
        }
    }

    /// Count `n` intermediate matches.
    #[inline]
    pub fn matches(&mut self, n: u64) {
        if self.on {
            self.c.matches += n;
        }
    }

    /// Count `n` output items.
    #[inline]
    pub fn output(&mut self, n: u64) {
        if self.on {
            self.c.output += n;
        }
    }
}

/// One operator's merged counters in a [`QueryTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// Operator label (`"twigstack"`, `"nok-scan"`, `"pipelined-join"`,
    /// `"03 anc-semijoin/merge"` …). Counters recorded under the same
    /// label merge; flat operators carry their plan position, so each
    /// keeps its own row.
    pub op: String,
    /// Merged counters.
    pub counters: OpCounters,
}

/// A strategy deviation: the engine ran `to` although `from` was planned
/// (Auto capability fallbacks, naive-FLWOR fallbacks, the pipelined →
/// nested-loop downgrade on non-`//` cut edges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FallbackEvent {
    /// The strategy that was planned or requested.
    pub from: Strategy,
    /// The strategy that actually ran.
    pub to: Strategy,
    /// Why (the capability error or planner rule).
    pub reason: String,
}

/// One component's estimated vs. actual cardinalities — the cost-based
/// planner's ledger (Section 5's deferred optimizer, closed in v2).
/// Estimates are recorded at plan time; `actual_output` is filled in by
/// the engine when the component finishes, so `EXPLAIN ANALYZE` can show
/// estimated-vs-actual rows and the bench harness can score the
/// estimator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstimateRecord {
    /// Cut-component id (index into the decomposition's roots).
    pub component: usize,
    /// Strategy the planner priced this component at.
    pub strategy: Strategy,
    /// Estimated anchors of the component root NoK.
    pub est_anchors: u64,
    /// Estimated output cardinality.
    pub est_output: u64,
    /// Estimated cost in elements touched.
    pub est_cost: u64,
    /// Observed output cardinality (`None` when the component was not
    /// executed individually, e.g. under a holistic whole-query join).
    pub actual_output: Option<u64>,
    /// Did the component trip its work budget and re-enter with the
    /// runner-up strategy?
    pub replanned: bool,
}

/// The planner's verdict for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDecision {
    /// What the caller asked for.
    pub requested: Strategy,
    /// What planning resolved it to (equals `requested` unless `Auto`).
    pub resolved: Strategy,
    /// Human-readable justification.
    pub reason: String,
    /// The `twigstack_compatible` verdict over the decomposition, when a
    /// decomposition exists (`None` for queries outside the pattern
    /// algebra).
    pub twigstack_compatible: Option<bool>,
}

#[derive(Default)]
struct SinkInner {
    plan: Option<PlanDecision>,
    executed: Option<Strategy>,
    fallbacks: Vec<FallbackEvent>,
    estimates: Vec<EstimateRecord>,
    ops: Vec<OpTrace>,
}

/// The `Sync` collection point for one query's trace data. Operators and
/// the planner record into it from any worker thread; the engine drains
/// it into a [`QueryTrace`] when the query finishes.
#[derive(Default)]
pub struct TraceSink {
    inner: Mutex<SinkInner>,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Forget everything recorded so far (called at query start).
    pub fn reset(&self) {
        *self.inner.lock().unwrap() = SinkInner::default();
    }

    /// Record the planner's verdict. First write wins: the top-level
    /// query's decision is not overwritten by paths evaluated inside a
    /// FLWOR return clause.
    pub fn record_plan(&self, decision: PlanDecision) {
        let mut inner = self.inner.lock().unwrap();
        if inner.plan.is_none() {
            inner.plan = Some(decision);
        }
    }

    /// Record the strategy that actually drove evaluation (first write
    /// wins, like [`TraceSink::record_plan`]; later fallback events
    /// override it in the assembled trace).
    pub fn record_executed(&self, strategy: Strategy) {
        let mut inner = self.inner.lock().unwrap();
        if inner.executed.is_none() {
            inner.executed = Some(strategy);
        }
    }

    /// Record a strategy deviation with its reason.
    pub fn record_fallback(&self, from: Strategy, to: Strategy, reason: impl Into<String>) {
        self.inner
            .lock()
            .unwrap()
            .fallbacks
            .push(FallbackEvent { from, to, reason: reason.into() });
    }

    /// Record one operator's counters; counters under the same label
    /// merge (repeated scans and probes).
    pub fn record_op(&self, op: &str, counters: OpCounters) {
        let mut inner = self.inner.lock().unwrap();
        match inner.ops.iter_mut().find(|t| t.op == op) {
            Some(t) => t.counters.add(&counters),
            None => inner.ops.push(OpTrace { op: op.to_string(), counters }),
        }
    }

    /// [`TraceSink::record_op`] from a [`Meter`]; no-op when the meter is
    /// disabled.
    pub fn record_meter(&self, op: &str, meter: &Meter) {
        if meter.enabled() {
            self.record_op(op, meter.counters());
        }
    }

    /// Record the cost-based planner's per-component ledger. First write
    /// wins, like [`TraceSink::record_plan`]: estimates from paths
    /// evaluated inside a FLWOR return clause do not overwrite the
    /// top-level query's.
    pub fn record_estimates(&self, estimates: Vec<EstimateRecord>) {
        let mut inner = self.inner.lock().unwrap();
        if inner.estimates.is_empty() {
            inner.estimates = estimates;
        }
    }

    /// Drain everything recorded:
    /// `(plan, executed, fallbacks, estimates, ops)`. Operators come out
    /// sorted by label so traces do not depend on recording order.
    #[allow(clippy::type_complexity)]
    pub fn take(
        &self,
    ) -> (
        Option<PlanDecision>,
        Option<Strategy>,
        Vec<FallbackEvent>,
        Vec<EstimateRecord>,
        Vec<OpTrace>,
    ) {
        let mut inner = self.inner.lock().unwrap();
        let inner = std::mem::take(&mut *inner);
        let mut ops = inner.ops;
        ops.sort_by(|a, b| a.op.cmp(&b.op));
        (inner.plan, inner.executed, inner.fallbacks, inner.estimates, ops)
    }
}

/// Monotonic wall-clock time per evaluation phase
/// ([`std::time::Instant`]). Phases that do not apply to a query shape
/// read zero (e.g. `parse` on a plan-cache hit, `merge` for holistic
/// joins that assemble inside the match phase).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Query-text parsing.
    pub parse: Duration,
    /// BlossomTree construction + NoK decomposition + strategy choice.
    pub plan: Duration,
    /// Plan-cache probe.
    pub cache_lookup: Duration,
    /// Pattern matching and joins.
    pub matching: Duration,
    /// Result assembly: projection, sort, dedup.
    pub merge: Duration,
    /// Result serialization: the time [`crate::Engine::eval_query_bytes`]'s
    /// byte sink spends writing source subtrees (not counted in
    /// `matching`), or the CLI's `--pretty` writer. Zero when the engine
    /// returns a document rather than bytes.
    pub serialize: Duration,
}

/// The per-query profile: plan decisions, operator counters, phase
/// timings, and cache stats.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// The query text.
    pub query: String,
    /// Strategy the caller requested.
    pub requested: Strategy,
    /// Strategy planning resolved it to.
    pub resolved: Strategy,
    /// Strategy that actually ran (differs from `resolved` exactly when
    /// `fallbacks` is non-empty).
    pub executed: Strategy,
    /// The planner's justification.
    pub plan_reason: String,
    /// `twigstack_compatible` verdict, when a decomposition exists.
    pub twigstack_compatible: Option<bool>,
    /// Every strategy deviation, in occurrence order.
    pub fallbacks: Vec<FallbackEvent>,
    /// The cost-based planner's per-component estimated-vs-actual
    /// ledger (empty under the static planner or explicit strategies).
    pub estimates: Vec<EstimateRecord>,
    /// Per-operator merged counters, sorted by label.
    pub ops: Vec<OpTrace>,
    /// Per-phase wall-clock timings.
    pub phases: PhaseTimings,
    /// Plan-cache stats at trace time.
    pub cache: CacheStats,
    /// Whether operator counters were collected (`EngineOptions::trace`);
    /// plan decisions and timings are recorded either way.
    pub counters_enabled: bool,
}

impl QueryTrace {
    /// Counters summed over all operators.
    pub fn totals(&self) -> OpCounters {
        let mut total = OpCounters::default();
        for op in &self.ops {
            total.add(&op.counters);
        }
        total
    }

    /// The `EXPLAIN ANALYZE`-style text profile.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "EXPLAIN ANALYZE {}", self.query);
        let _ = writeln!(
            out,
            "strategy: {} (requested: {}; executed: {})",
            self.resolved, self.requested, self.executed
        );
        if !self.plan_reason.is_empty() {
            let _ = writeln!(out, "  reason: {}", self.plan_reason);
        }
        if let Some(ok) = self.twigstack_compatible {
            let _ = writeln!(out, "  twigstack-compatible: {ok}");
        }
        for f in &self.fallbacks {
            let _ = writeln!(out, "  fallback: {} -> {} ({})", f.from, f.to, f.reason);
        }
        for e in &self.estimates {
            let actual = match e.actual_output {
                Some(a) => a.to_string(),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  component {}: {} est-anchors={} est-output={} actual-output={} \
                 est-cost={}{}",
                e.component,
                e.strategy,
                e.est_anchors,
                e.est_output,
                actual,
                e.est_cost,
                if e.replanned { " (re-planned)" } else { "" },
            );
        }
        if self.ops.is_empty() {
            let _ = writeln!(out, "operators: (none recorded)");
        } else {
            let _ = writeln!(out, "operators:");
            let width = self.ops.iter().map(|o| o.op.len()).max().unwrap_or(0).max(6);
            for op in &self.ops {
                let _ = writeln!(
                    out,
                    "  {:<width$}  {}",
                    op.op,
                    fmt_counters(&op.counters),
                    width = width
                );
            }
            let _ = writeln!(
                out,
                "  {:<width$}  {}",
                "totals",
                fmt_counters(&self.totals()),
                width = width
            );
        }
        let p = &self.phases;
        let _ = writeln!(
            out,
            "phases: parse={} plan={} cache-lookup={} match={} merge={} serialize={}",
            fmt_dur(p.parse),
            fmt_dur(p.plan),
            fmt_dur(p.cache_lookup),
            fmt_dur(p.matching),
            fmt_dur(p.merge),
            fmt_dur(p.serialize),
        );
        let _ = writeln!(
            out,
            "plan cache: {} hits / {} misses ({}/{} entries)",
            self.cache.hits, self.cache.misses, self.cache.len, self.cache.capacity
        );
        let _ = writeln!(
            out,
            "counters: {}",
            if self.counters_enabled { "on" } else { "off" },
        );
        out
    }

    /// [`QueryTrace::to_json`] on a single line, for embedding in
    /// structured log records (the server's slow-query log attaches it
    /// to `/query` entries). Same fields, formatting whitespace removed
    /// — sound because `json_str` escapes newlines inside string values,
    /// so every raw newline in `to_json` output is formatting.
    pub fn to_json_compact(&self) -> String {
        self.to_json().lines().map(str::trim_start).collect()
    }

    /// The stable machine-readable profile (schema version
    /// [`PROFILE_SCHEMA_VERSION`]; keys only ever get added, never
    /// renamed, within a version).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"blossom_profile\": {},", PROFILE_SCHEMA_VERSION);
        let _ = writeln!(out, "  \"query\": {},", json_str(&self.query));
        let _ = writeln!(out, "  \"strategy\": {{");
        let _ = writeln!(out, "    \"requested\": {},", json_str(&self.requested.to_string()));
        let _ = writeln!(out, "    \"resolved\": {},", json_str(&self.resolved.to_string()));
        let _ = writeln!(out, "    \"executed\": {},", json_str(&self.executed.to_string()));
        let _ = writeln!(out, "    \"reason\": {},", json_str(&self.plan_reason));
        let _ = writeln!(
            out,
            "    \"twigstack_compatible\": {}",
            match self.twigstack_compatible {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            }
        );
        out.push_str("  },\n");
        out.push_str("  \"fallbacks\": [");
        for (i, f) in self.fallbacks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"from\": {}, \"to\": {}, \"reason\": {}}}",
                json_str(&f.from.to_string()),
                json_str(&f.to.to_string()),
                json_str(&f.reason)
            );
        }
        out.push_str(if self.fallbacks.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"estimates\": [");
        for (i, e) in self.estimates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"component\": {}, \"strategy\": {}, \"est_anchors\": {}, \
                 \"est_output\": {}, \"est_cost\": {}, \"actual_output\": {}, \
                 \"replanned\": {}}}",
                e.component,
                json_str(&e.strategy.to_string()),
                e.est_anchors,
                e.est_output,
                e.est_cost,
                match e.actual_output {
                    Some(a) => a.to_string(),
                    None => "null".to_string(),
                },
                e.replanned,
            );
        }
        out.push_str(if self.estimates.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"operators\": [");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {{\"op\": {}, {}}}", json_str(&op.op), json_counters(&op.counters));
        }
        out.push_str(if self.ops.is_empty() { "],\n" } else { "\n  ],\n" });
        let _ = writeln!(out, "  \"totals\": {{{}}},", json_counters(&self.totals()));
        let p = &self.phases;
        let _ = writeln!(
            out,
            "  \"phases_us\": {{\"parse\": {}, \"plan\": {}, \"cache_lookup\": {}, \
             \"match\": {}, \"merge\": {}, \"serialize\": {}}},",
            p.parse.as_micros(),
            p.plan.as_micros(),
            p.cache_lookup.as_micros(),
            p.matching.as_micros(),
            p.merge.as_micros(),
            p.serialize.as_micros(),
        );
        let _ = writeln!(
            out,
            "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"len\": {}, \"capacity\": {}}},",
            self.cache.hits, self.cache.misses, self.cache.len, self.cache.capacity
        );
        let _ = writeln!(out, "  \"counters_enabled\": {}", self.counters_enabled);
        out.push_str("}\n");
        out
    }
}

fn fmt_counters(c: &OpCounters) -> String {
    format!(
        "scanned={} skipped={} pushes={} matches={} output={}",
        c.scanned, c.skipped, c.pushes, c.matches, c.output
    )
}

fn json_counters(c: &OpCounters) -> String {
    format!(
        "\"scanned\": {}, \"skipped\": {}, \"pushes\": {}, \"matches\": {}, \"output\": {}",
        c.scanned, c.skipped, c.pushes, c.matches, c.output
    )
}

fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1000.0)
    } else {
        format!("{us}\u{b5}s")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
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
    fn disabled_meter_counts_nothing() {
        let mut m = Meter::off();
        m.scanned(10);
        m.skipped(5);
        m.pushes(1);
        m.matches(1);
        m.output(1);
        assert!(m.counters().is_zero());
        assert!(!m.enabled());
    }

    #[test]
    fn enabled_meter_accumulates() {
        let mut m = Meter::new(true);
        m.scanned(10);
        m.scanned(5);
        m.skipped(3);
        m.output(2);
        let c = m.counters();
        assert_eq!((c.scanned, c.skipped, c.output), (15, 3, 2));
    }

    #[test]
    fn sink_merges_by_label_and_sorts() {
        let sink = TraceSink::new();
        sink.record_op("b-op", OpCounters { scanned: 1, ..Default::default() });
        sink.record_op("a-op", OpCounters { output: 2, ..Default::default() });
        sink.record_op("b-op", OpCounters { scanned: 4, ..Default::default() });
        let (_, _, _, _, ops) = sink.take();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].op, "a-op");
        assert_eq!(ops[1].op, "b-op");
        assert_eq!(ops[1].counters.scanned, 5);
    }

    #[test]
    fn sink_plan_and_executed_are_first_write_wins() {
        let sink = TraceSink::new();
        sink.record_plan(PlanDecision {
            requested: Strategy::Auto,
            resolved: Strategy::Pipelined,
            reason: "outer".into(),
            twigstack_compatible: Some(true),
        });
        sink.record_plan(PlanDecision {
            requested: Strategy::Auto,
            resolved: Strategy::Navigational,
            reason: "inner".into(),
            twigstack_compatible: None,
        });
        sink.record_executed(Strategy::Pipelined);
        sink.record_executed(Strategy::Navigational);
        let (plan, executed, _, _, _) = sink.take();
        assert_eq!(plan.unwrap().reason, "outer");
        assert_eq!(executed, Some(Strategy::Pipelined));
    }

    #[test]
    fn sink_is_shared_across_threads() {
        let sink = TraceSink::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    sink.record_op("par", OpCounters { scanned: 1, ..Default::default() })
                });
            }
        });
        let (_, _, _, _, ops) = sink.take();
        assert_eq!(ops[0].counters.scanned, 4);
    }

    fn sample_trace() -> QueryTrace {
        QueryTrace {
            query: "//a//b".into(),
            requested: Strategy::Auto,
            resolved: Strategy::TwigStack,
            executed: Strategy::Navigational,
            plan_reason: "recursive document".into(),
            twigstack_compatible: Some(true),
            fallbacks: vec![FallbackEvent {
                from: Strategy::TwigStack,
                to: Strategy::Navigational,
                reason: "wildcard node tests are not supported by TwigStack".into(),
            }],
            estimates: vec![EstimateRecord {
                component: 0,
                strategy: Strategy::Pipelined,
                est_anchors: 3,
                est_output: 2,
                est_cost: 9,
                actual_output: Some(2),
                replanned: false,
            }],
            ops: vec![OpTrace {
                op: "navigational".into(),
                counters: OpCounters { scanned: 7, output: 2, ..Default::default() },
            }],
            phases: PhaseTimings {
                parse: Duration::from_micros(12),
                matching: Duration::from_micros(450),
                ..Default::default()
            },
            cache: CacheStats { hits: 1, misses: 1, len: 1, capacity: 256 },
            counters_enabled: true,
        }
    }

    #[test]
    fn render_mentions_every_section() {
        let text = sample_trace().render();
        for needle in [
            "EXPLAIN ANALYZE //a//b",
            "strategy: twigstack (requested: auto; executed: navigational)",
            "twigstack-compatible: true",
            "fallback: twigstack -> navigational",
            "component 0: pipelined est-anchors=3 est-output=2 actual-output=2 est-cost=9",
            "navigational",
            "scanned=7",
            "totals",
            "phases:",
            "plan cache: 1 hits / 1 misses",
            "counters: on",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn json_has_stable_schema_keys() {
        let text = sample_trace().to_json();
        for key in [
            "\"blossom_profile\": 2",
            "\"query\"",
            "\"strategy\"",
            "\"requested\"",
            "\"resolved\"",
            "\"executed\"",
            "\"reason\"",
            "\"twigstack_compatible\"",
            "\"fallbacks\"",
            "\"estimates\"",
            "\"est_anchors\": 3",
            "\"est_output\": 2",
            "\"est_cost\": 9",
            "\"actual_output\": 2",
            "\"replanned\": false",
            "\"operators\"",
            "\"totals\"",
            "\"scanned\"",
            "\"skipped\"",
            "\"pushes\"",
            "\"matches\"",
            "\"output\"",
            "\"phases_us\"",
            "\"parse\"",
            "\"match\"",
            "\"serialize\"",
            "\"cache\"",
            "\"counters_enabled\"",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
    }

    #[test]
    fn json_escapes_query_text() {
        let mut t = sample_trace();
        t.query = "//a[x = \"q\nz\"]".into();
        let text = t.to_json();
        assert!(text.contains(r#"\"q\nz\""#), "{text}");
    }

    #[test]
    fn totals_sum_operators() {
        let mut t = sample_trace();
        t.ops.push(OpTrace {
            op: "nok-scan".into(),
            counters: OpCounters { scanned: 3, skipped: 9, ..Default::default() },
        });
        let total = t.totals();
        assert_eq!((total.scanned, total.skipped, total.output), (10, 9, 2));
    }
}
