//! The query engine: end-to-end evaluation of path and FLWOR queries.
//!
//! `Engine` owns one loaded document (tree + region labels + tag index +
//! statistics) and evaluates queries under a chosen [`Strategy`]:
//!
//! * **Navigational** — AST tree-walking ([`crate::navigational`]); also
//!   the naive FLWOR evaluation that re-runs path expressions per
//!   iteration (the "straightforward approach" of the paper's
//!   introduction).
//! * **TwigStack** — holistic twig join per component (path queries).
//! * **Pipelined / nested-loop** — the BlossomTree pipeline: decompose
//!   into NoKs, match NoKs, reassemble with structural joins, apply
//!   crossing-edge joins, extract tuples, construct results. A path
//!   query has one returning node, so its pipeline runs projected onto
//!   flat node lists ([`crate::flat`]); under `Auto` a FLWOR runs on flat
//!   binding tables ([`crate::flwor`]); the forced FLWOR strategies and
//!   the naive nested loop build NestedLists.

use crate::decompose::{CutEdge, Decomposition};
use crate::env::{self, EnvError, Tuple};
use crate::exec::Executor;
use crate::flat::{FlatPlan, Kernel};
use crate::flwor::FlworPlan;
use crate::join::nested_loop::{bounded_nlj, naive_nlj};
use crate::join::pipelined::{PipelinedJoin, StreamItem};
use crate::join::twigstack::{TwigError, TwigMatcher};
use crate::navigational;
use crate::nestedlist::NestedList;
use crate::nok::NokMatcher;
use crate::obs::{
    EstimateRecord, Meter, OpCounters, PhaseTimings, PlanDecision, QueryTrace, TraceSink,
};
use crate::ops::{self, CrossPred};
use crate::plan::{self, ComponentPlan, Plan, Strategy};
use crate::shape::ShapeId;
use blossom_flwor::{BlossomError, BlossomTree, BoolExpr, Comparison, Expr, Flwor, ValueOperand};
use blossom_xml::fxhash::FxHashSet;
use blossom_xml::{Axis, DocStats, Document, NodeId, TagIndex};
use blossom_xpath::ast::{PathExpr, PathStart};
use blossom_xpath::SyntaxError;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Anything that can go wrong while evaluating a query.
#[derive(Debug)]
pub enum EngineError {
    /// Lexing/parsing failed.
    Syntax(SyntaxError),
    /// BlossomTree construction failed.
    Blossom(BlossomError),
    /// TwigStack cannot evaluate this pattern.
    Twig(TwigError),
    /// Tuple extraction / construction failed.
    Env(EnvError),
    /// The query ran past its wall-clock deadline
    /// ([`EngineOptions::deadline`]) and was aborted cooperatively.
    Deadline,
    /// Anything else outside the supported subset.
    Unsupported(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Syntax(e) => write!(f, "syntax error: {e}"),
            EngineError::Blossom(e) => write!(f, "blossom error: {e}"),
            EngineError::Twig(e) => write!(f, "twigstack error: {e}"),
            EngineError::Env(e) => write!(f, "environment error: {e}"),
            EngineError::Deadline => write!(f, "deadline exceeded: query aborted"),
            EngineError::Unsupported(s) => write!(f, "unsupported: {s}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SyntaxError> for EngineError {
    fn from(e: SyntaxError) -> Self {
        EngineError::Syntax(e)
    }
}

impl From<BlossomError> for EngineError {
    fn from(e: BlossomError) -> Self {
        EngineError::Blossom(e)
    }
}

impl From<TwigError> for EngineError {
    fn from(e: TwigError) -> Self {
        EngineError::Twig(e)
    }
}

impl From<EnvError> for EngineError {
    fn from(e: EnvError) -> Self {
        EngineError::Env(e)
    }
}

/// A naive-evaluator variable environment: bindings in scope order.
type NaiveEnv = Vec<(String, Vec<NodeId>)>;

/// A compiled path query: its BlossomTree, decomposition, resolved plan
/// and flat operator plan, cached per `(document identity, query text)`
/// so repeated evaluations skip parsing, planning *and* compiling.
///
/// The parse and decomposition depend only on the query text, but the
/// estimates price the decomposition against one document's statistics
/// and the flat plan holds that document's symbols and posting-list
/// lengths — so entries are keyed by [`Document::uid`] as well (see
/// [`Engine::plan_key`]), and one shared cache still safely serves
/// engines over different documents.
struct PathPlan {
    path: PathExpr,
    bt: BlossomTree,
    decomposition: Decomposition,
    /// The resolved `Auto` plan with the cost model's ledger, estimated
    /// against the statistics of the document this entry is keyed by.
    /// Engines running with [`EngineOptions::cost_based_planner`] off
    /// take the strategy (it is structural) and ignore the ledger.
    cost_plan: Plan,
    /// The flat operator plan `Pipelined` / `BoundedNestedLoop` run, with
    /// this document's symbols resolved; `Err` says why the query is
    /// outside the flat pipeline (forced onto it, those run the NestedList
    /// pipeline as a recorded plan rewrite).
    flat: Result<FlatPlan, String>,
}

/// A constructor or FLWOR query compiled against one document: its
/// expression tree with each FLWOR's flat plan held at the FLWOR — `Err`
/// says why it is outside the flat algebra (under `Auto` it then runs the
/// NestedList pipeline as a recorded fallback).
enum QueryPlan {
    Text(String),
    Seq(Vec<QueryPlan>),
    Elem { name: String, attrs: Vec<(String, String)>, children: Vec<QueryPlan> },
    Path(PathExpr),
    Flwor(Box<Flwor>, Result<FlworPlan, String>),
}

impl QueryPlan {
    fn compile(expr: &Expr, doc: &Document, stats: &DocStats) -> QueryPlan {
        let all = |items: &[Expr]| items.iter().map(|e| QueryPlan::compile(e, doc, stats)).collect();
        match expr {
            Expr::Text(t) => QueryPlan::Text(t.clone()),
            Expr::Sequence(items) => QueryPlan::Seq(all(items)),
            Expr::Constructor(c) => QueryPlan::Elem {
                name: c.name.clone(),
                attrs: c.attrs.clone(),
                children: all(&c.children),
            },
            Expr::Path(p) => QueryPlan::Path(p.clone()),
            Expr::Flwor(f) => QueryPlan::Flwor(f.clone(), FlworPlan::compile(f, doc, stats)),
        }
    }
}

/// One plan-cache entry, keyed `"{uid}#{query text}"`.
enum CachedPlan {
    Path(Box<PathPlan>),
    Query(QueryPlan),
}

/// Tuning knobs for an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Worker threads for data-parallel NoK scans and FLWOR iteration.
    /// `1` (the default) keeps evaluation fully sequential; use
    /// [`crate::exec::available_parallelism`] for the hardware width.
    /// Results are identical at any thread count.
    pub threads: usize,
    /// Upper bound on cached query plans; the least-recently-used plan
    /// is evicted when a new query would exceed it.
    pub plan_cache_capacity: usize,
    /// Let the structural operators gallop past provably joinless input
    /// (posting-list `skip_to` and NoK stream `skip_past`). `false` forces
    /// the one-element-at-a-time scans; results are identical either way.
    /// On by default — this knob exists for benchmarking the skips. A path
    /// query's flat semi-joins ([`crate::flat`]) do not consult it: each
    /// gallops or sweeps as its two list lengths say.
    pub skip_joins: bool,
    /// Collect execution traces: per-operator work counters, strategy
    /// decisions and fallback events, drained per query by
    /// [`Engine::eval_path_traced`] / [`Engine::eval_query_traced`]. Off
    /// by default; when off, every instrumentation point is an inlined
    /// never-taken branch and nothing is recorded. Results are
    /// byte-identical either way.
    pub trace: bool,
    /// Cooperative wall-clock deadline. When set, the evaluation loops
    /// check the monotonic clock at operator boundaries (per naive-FLWOR
    /// binding iteration, per component / cut-edge join, per constructed
    /// tuple) and abort with [`EngineError::Deadline`] once it has
    /// passed. `None` (the default) never aborts. Deadline aborts are
    /// *not* capability errors: `Auto` does not fall back to another
    /// strategy on one — the request is over.
    pub deadline: Option<Instant>,
    /// Resolve `Auto` with the selectivity-driven cost model
    /// ([`crate::cost`]): per-component strategy choices for a FLWOR that
    /// falls back to the NestedList pipeline, overriding the structural
    /// rules only on a decisive estimated gap, and the estimated-vs-actual
    /// ledger of every path trace. `false` falls back to the structural
    /// rules alone (which is all a path query's strategy ever depends
    /// on). Results are byte-identical either way — only the physical
    /// plan changes.
    pub cost_based_planner: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            threads: 1,
            plan_cache_capacity: 256,
            skip_joins: true,
            trace: false,
            deadline: None,
            cost_based_planner: true,
        }
    }
}

/// Plan-cache behavior counters (see [`Engine::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to plan from scratch.
    pub misses: u64,
    /// Plans currently cached.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// The bounded LRU plan cache. Recency is a monotonically increasing
/// stamp per entry; eviction scans for the minimum, which is O(n) but
/// the capacity is small and eviction rare — no external LRU crate, no
/// intrusive list.
struct PlanCache {
    map: blossom_xml::fxhash::FxHashMap<String, (Arc<CachedPlan>, u64)>,
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    fn new(capacity: usize) -> PlanCache {
        PlanCache {
            map: Default::default(),
            tick: 0,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    fn get(&mut self, query: &str) -> Option<Arc<CachedPlan>> {
        self.tick += 1;
        match self.map.get_mut(query) {
            Some((plan, stamp)) => {
                *stamp = self.tick;
                self.hits += 1;
                Some(plan.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, query: String, plan: Arc<CachedPlan>) {
        // Capacity 0 disables caching entirely.
        if self.capacity == 0 {
            return;
        }
        if self.map.len() >= self.capacity && !self.map.contains_key(&query) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(q, _)| q.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.tick += 1;
        self.map.insert(query, (plan, self.tick));
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            len: self.map.len(),
            capacity: self.capacity,
        }
    }
}

/// A thread-safe, shareable plan cache: the [`PlanCache`] LRU behind a
/// mutex, handed around as an `Arc`. One instance can back any number of
/// engines — over the same document or different ones — so a process
/// (e.g. the `blossomd` query server) plans each distinct query text
/// once, no matter which request or worker thread evaluates it.
pub struct SharedPlanCache {
    inner: std::sync::Mutex<PlanCache>,
}

impl SharedPlanCache {
    /// An empty cache holding at most `capacity` plans (`0` disables
    /// caching).
    pub fn new(capacity: usize) -> SharedPlanCache {
        SharedPlanCache { inner: std::sync::Mutex::new(PlanCache::new(capacity)) }
    }

    /// Hit/miss counters, occupancy and capacity.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().unwrap().stats()
    }

    /// Drop every cached plan for the document with identity `uid`,
    /// returning how many entries were removed. Plans are keyed
    /// `"{uid}#{query}"` (see [`Engine::plan_key`]), so invalidation
    /// after a document mutation is scoped to the one mutated document —
    /// entries for every other document survive untouched, keeping their
    /// hit counters warm. (The mutated document gets a *fresh* uid, so
    /// this is belt-and-braces against stale-plan reuse: even without
    /// it, no new engine could ever look the dropped keys up again; the
    /// sweep reclaims their cache slots.)
    pub fn invalidate_doc(&self, uid: u64) -> usize {
        let prefix = format!("{uid}#");
        let mut cache = self.inner.lock().unwrap();
        let before = cache.map.len();
        cache.map.retain(|key, _| !key.starts_with(&prefix));
        before - cache.map.len()
    }

    fn get(&self, query: &str) -> Option<Arc<CachedPlan>> {
        self.inner.lock().unwrap().get(query)
    }

    fn insert(&self, query: String, plan: Arc<CachedPlan>) {
        self.inner.lock().unwrap().insert(query, plan)
    }
}

/// A loaded document plus its access paths.
///
/// The document, tag index and statistics are `Arc`-shared: engines built
/// with [`Engine::with_shared`] are cheap per-request views over the same
/// immutable loaded document, each with its own thread width, deadline and
/// trace sink.
pub struct Engine {
    doc: Arc<Document>,
    index: Arc<TagIndex>,
    stats: Arc<DocStats>,
    /// Worker pool configuration for data-parallel evaluation.
    exec: Executor,
    /// Bounded plan cache for [`Engine::eval_path_str`]; possibly shared
    /// with other engines (see [`SharedPlanCache`]).
    plans: Arc<SharedPlanCache>,
    /// [`EngineOptions::skip_joins`], threaded to every operator.
    skip_joins: bool,
    /// The trace collection point; operators record into it only when
    /// `trace` is set (see [`Engine::sink`]).
    obs: TraceSink,
    /// [`EngineOptions::trace`].
    trace: bool,
    /// [`EngineOptions::deadline`], checked cooperatively by
    /// [`Engine::check_deadline`].
    deadline: Option<Instant>,
    /// [`EngineOptions::cost_based_planner`].
    cost_based: bool,
}

impl Engine {
    /// Load `doc` with default options (sequential evaluation): builds
    /// the tag index and statistics.
    pub fn new(doc: Document) -> Engine {
        Engine::with_options(doc, EngineOptions::default())
    }

    /// Load `doc` with explicit [`EngineOptions`].
    pub fn with_options(doc: Document, options: EngineOptions) -> Engine {
        let index = Arc::new(TagIndex::build(&doc));
        let stats = Arc::new(doc.stats());
        Engine::with_shared(
            Arc::new(doc),
            index,
            stats,
            Arc::new(SharedPlanCache::new(options.plan_cache_capacity)),
            options,
        )
    }

    /// Build an engine over already-shared parts: an immutable document,
    /// its prebuilt index and statistics, and a (possibly process-wide)
    /// plan cache. This is the cheap per-request constructor — nothing is
    /// parsed, indexed or copied — used by the concurrent query server to
    /// give every request its own deadline and trace sink over one shared
    /// catalog entry. `options.plan_cache_capacity` is ignored: the
    /// capacity belongs to `plans`.
    pub fn with_shared(
        doc: Arc<Document>,
        index: Arc<TagIndex>,
        stats: Arc<DocStats>,
        plans: Arc<SharedPlanCache>,
        options: EngineOptions,
    ) -> Engine {
        Engine {
            doc,
            index,
            stats,
            exec: Executor::new(options.threads),
            plans,
            skip_joins: options.skip_joins,
            obs: TraceSink::new(),
            trace: options.trace,
            deadline: options.deadline,
            cost_based: options.cost_based_planner,
        }
    }

    /// Parse and load XML text.
    pub fn from_xml(xml: &str) -> Result<Engine, blossom_xml::ParseError> {
        Ok(Engine::new(Document::parse_str(xml)?))
    }

    /// The shared parts of this engine — `(document, index, stats)` —
    /// for building further engines over the same document with
    /// [`Engine::with_shared`].
    pub fn shared_parts(&self) -> (Arc<Document>, Arc<TagIndex>, Arc<DocStats>) {
        (self.doc.clone(), self.index.clone(), self.stats.clone())
    }

    /// The plan cache backing this engine (shareable across engines).
    pub fn plan_cache(&self) -> Arc<SharedPlanCache> {
        self.plans.clone()
    }

    /// Abort with [`EngineError::Deadline`] iff the configured deadline
    /// has passed. Called at operator boundaries — cheap enough for
    /// per-iteration use (one monotonic clock read), a no-op branch when
    /// no deadline is set.
    #[inline]
    fn check_deadline(&self) -> Result<(), EngineError> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(EngineError::Deadline),
            _ => Ok(()),
        }
    }

    /// Worker-thread count this engine evaluates with.
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }

    /// Is execution tracing ([`EngineOptions::trace`]) on?
    pub fn trace_enabled(&self) -> bool {
        self.trace
    }

    /// The trace sink, iff tracing is on. Every instrumentation point
    /// goes through this gate, so an untraced engine records nothing.
    #[inline]
    fn sink(&self) -> Option<&TraceSink> {
        if self.trace {
            Some(&self.obs)
        } else {
            None
        }
    }

    /// Plan-cache key: document identity plus query text. Cached entries
    /// carry a cost-based plan priced against one document's statistics,
    /// so entries from engines over *other* documents must never alias.
    fn plan_key(&self, query: &str) -> String {
        format!("{}#{query}", self.doc.uid())
    }

    /// Navigational evaluation with counters recorded when tracing.
    fn eval_nav(&self, path: &PathExpr) -> Vec<NodeId> {
        match self.sink() {
            Some(sink) => {
                let mut m = Meter::new(true);
                let out = navigational::eval_path_counted(&self.doc, path, &[], &mut m);
                let mut c = m.counters();
                c.output = out.len() as u64;
                sink.record_op("navigational", c);
                out
            }
            None => navigational::eval_path(&self.doc, path, &[]),
        }
    }

    /// The executor driving data-parallel evaluation.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// The underlying document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// The tag index.
    pub fn index(&self) -> &TagIndex {
        &self.index
    }

    /// Document statistics.
    pub fn stats(&self) -> &DocStats {
        &self.stats
    }

    /// The plan `Auto` resolves to for a path query, with the flat
    /// pipeline's operator list when that is what it runs.
    pub fn explain_path(&self, query: &str) -> Result<Plan, EngineError> {
        let path = blossom_xpath::parse_path(query)?;
        if path.has_positional() || path.has_disjunction() {
            let stripped = BlossomTree::from_path(&strip(&path))?;
            return Ok(plan::choose_static(&path, &Decomposition::decompose(&stripped)));
        }
        let compiled = self.compile_path(&path)?;
        let mut plan = compiled.cost_plan;
        if let (Strategy::Pipelined, Ok(flat)) = (plan.strategy, &compiled.flat) {
            plan.operators = flat.to_string().lines().map(str::to_string).collect();
        }
        Ok(plan)
    }

    /// Evaluate a path query whose result is a *value* sequence: the
    /// string values of the matched nodes, or — when the final step is an
    /// attribute test like `//book/@year` — the attribute values. (Node
    /// queries return ids via [`Engine::eval_path_str`]; attributes are
    /// not nodes in this store, so they surface here as strings.)
    pub fn eval_path_values(
        &self,
        query: &str,
        strategy: Strategy,
    ) -> Result<Vec<String>, EngineError> {
        let path = blossom_xpath::parse_path(query)?;
        if let Some((last, prefix)) = path.steps.split_last() {
            if let blossom_xpath::ast::NodeTest::Attribute(name) = &last.test {
                if last.axis != Axis::Child {
                    return Err(EngineError::Unsupported(
                        "attribute steps use the child axis".into(),
                    ));
                }
                if !last.predicates.is_empty() {
                    return Err(EngineError::Unsupported(
                        "predicates on attribute steps".into(),
                    ));
                }
                let owner_path = PathExpr { start: path.start.clone(), steps: prefix.to_vec() };
                let owners = self.eval_path(&owner_path, strategy)?;
                return Ok(owners
                    .iter()
                    .filter_map(|&n| self.doc.attribute(n, name).map(str::to_string))
                    .collect());
            }
        }
        // Reject attribute tests in non-final positions (they would match
        // nothing and silently return empty).
        if path
            .steps
            .iter()
            .any(|s| matches!(s.test, blossom_xpath::ast::NodeTest::Attribute(_)))
        {
            return Err(EngineError::Unsupported(
                "attribute steps are only supported as the final step".into(),
            ));
        }
        Ok(self
            .eval_path(&path, strategy)?
            .iter()
            .map(|&n| self.doc.string_value(n))
            .collect())
    }

    /// Explain a full query (FLWOR or path): the BlossomTree, its NoK
    /// decomposition, the join edges and the chosen strategy — the
    /// "multiple plans for the optimizer" view of the paper's Section 6.
    pub fn explain_query(&self, query: &str) -> Result<String, EngineError> {
        use std::fmt::Write;
        let expr = blossom_flwor::parse_query(query)?;
        let flwor = match &expr {
            Expr::Flwor(f) => Some(f.as_ref().clone()),
            Expr::Constructor(c) => c.children.iter().find_map(|e| match e {
                Expr::Flwor(f) => Some(f.as_ref().clone()),
                _ => None,
            }),
            _ => None,
        };
        let flat = flwor.as_ref().map(|f| FlworPlan::compile(f, &self.doc, &self.stats));
        let bt = match &flwor {
            Some(f) => match BlossomTree::from_flwor(f) {
                Ok(bt) => bt,
                Err(BlossomError::Unsupported(what)) => {
                    return Ok(match flat {
                        Some(Ok(plan)) => format!("flat plan (auto):\n{plan}"),
                        _ => format!("plan: naive per-iteration evaluation\nreason: {what}\n"),
                    })
                }
                Err(e) => return Err(e.into()),
            },
            None => match &expr {
                Expr::Path(p) => {
                    return Ok(format!("{}\n", self.explain_path(&p.to_string())?));
                }
                _ => {
                    return Err(EngineError::Unsupported(
                        "explain for constructor-only queries".into(),
                    ))
                }
            },
        };
        let d = Decomposition::decompose(&bt);
        let mut out = String::new();
        let _ = writeln!(out, "BlossomTree ({} vertices):", bt.pattern.len());
        let _ = write!(out, "{}", bt.pattern);
        if !bt.crossing.is_empty() {
            let _ = writeln!(out, "crossing edges:");
            for edge in &bt.crossing {
                let l = bt.dewey_of(edge.left).map(|d| d.to_string());
                let r = bt.dewey_of(edge.right).map(|d| d.to_string());
                let _ = writeln!(
                    out,
                    "  {} {} {}",
                    l.unwrap_or_else(|| "?".into()),
                    edge.rel,
                    r.unwrap_or_else(|| "?".into())
                );
            }
        }
        let _ = writeln!(
            out,
            "decomposition: {} NoK tree(s), {} structural cut edge(s), pipelinable: {}",
            d.noks.len(),
            d.cut_edges.len(),
            d.pipelinable()
        );
        for cut in &d.cut_edges {
            let _ = writeln!(
                out,
                "  cut: NoK{} --{}--> NoK{} ({:?})",
                cut.parent_nok, cut.axis, cut.child_nok, cut.mode
            );
        }
        let (strategy, comps, reason) = if self.cost_based {
            plan::choose_flwor(&d, &self.stats)
        } else {
            let (s, r) = plan::choose_flwor_static(&d, &self.stats);
            (s, Vec::new(), r)
        };
        for c in &comps {
            let _ = writeln!(
                out,
                "  component {}: {} (est anchors {}, est output {}, est cost {})",
                c.component, c.strategy, c.est_anchors, c.est_output, c.est_cost
            );
        }
        let _ = writeln!(out, "strategy: {strategy}");
        let _ = writeln!(out, "reason: {reason}");
        match flat {
            Some(Ok(plan)) => {
                let _ = write!(out, "flat plan (auto):\n{plan}");
            }
            Some(Err(why)) => {
                let _ = writeln!(out, "flat plan: none ({why}); auto runs the strategy above");
            }
            None => {}
        }
        Ok(out)
    }

    /// Evaluate a path query; result nodes are distinct and in document
    /// order. Parsed queries and their decompositions are cached per
    /// query text, so repeated evaluations skip planning.
    pub fn eval_path_str(
        &self,
        query: &str,
        strategy: Strategy,
    ) -> Result<Vec<NodeId>, EngineError> {
        self.eval_path_str_timed(query, strategy, &mut PhaseTimings::default())
    }

    /// [`Engine::eval_path_str`] with per-phase wall-clock timing filled
    /// into `phases`. The result is identical; timing a phase costs two
    /// monotonic-clock reads.
    fn eval_path_str_timed(
        &self,
        query: &str,
        strategy: Strategy,
        phases: &mut PhaseTimings,
    ) -> Result<Vec<NodeId>, EngineError> {
        let t = Instant::now();
        let cached = self.plans.get(&self.plan_key(query));
        phases.cache_lookup = t.elapsed();
        if let Some(CachedPlan::Path(plan)) = cached.as_deref() {
            return self.eval_path_planned(plan, strategy, phases);
        }
        let t = Instant::now();
        let path = blossom_xpath::parse_path(query)?;
        phases.parse = t.elapsed();
        self.eval_path_parsed_cached(&path, query, strategy, phases)
    }

    /// Plan `path`, cache the plan under `query` (prefixed with the
    /// document identity, see [`Engine::plan_key`]), and evaluate it.
    /// Shared miss path of [`Engine::eval_path_str_timed`] and
    /// [`Engine::eval_query_timed`], both keyed by the raw query text.
    fn eval_path_parsed_cached(
        &self,
        path: &PathExpr,
        query: &str,
        strategy: Strategy,
        phases: &mut PhaseTimings,
    ) -> Result<Vec<NodeId>, EngineError> {
        let t = Instant::now();
        match self.compile_path(path) {
            Ok(plan) => {
                let plan = Arc::new(CachedPlan::Path(Box::new(plan)));
                self.plans.insert(self.plan_key(query), plan.clone());
                phases.plan = t.elapsed();
                let CachedPlan::Path(plan) = &*plan else { unreachable!("just built") };
                self.eval_path_planned(plan, strategy, phases)
            }
            // No plan to cache.
            Err(e) => {
                let result = self.eval_path_outside_algebra(path, strategy, e);
                phases.matching = t.elapsed();
                result
            }
        }
    }

    /// Plan a path query against this document: BlossomTree,
    /// decomposition, cost-based `Auto` resolution and the flat operator
    /// plan. `Err` means the path is outside the pattern algebra.
    fn compile_path(&self, path: &PathExpr) -> Result<PathPlan, EngineError> {
        let bt = BlossomTree::from_path(path)?;
        let decomposition = Decomposition::decompose(&bt);
        let cost_plan = plan::choose(path, &decomposition, &self.stats);
        let flat = FlatPlan::compile(&decomposition, bt.returning[0], &self.doc, &self.stats);
        Ok(PathPlan { path: path.clone(), bt, decomposition, cost_plan, flat })
    }

    /// A path outside the pattern algebra (positional predicates, `or`,
    /// `not`): the navigational evaluator covers the full AST, every
    /// other strategy rejects it with the reason `why`.
    fn eval_path_outside_algebra(
        &self,
        path: &PathExpr,
        strategy: Strategy,
        why: EngineError,
    ) -> Result<Vec<NodeId>, EngineError> {
        if !matches!(strategy, Strategy::Auto | Strategy::Navigational) {
            return Err(why);
        }
        if let Some(sink) = self.sink() {
            sink.record_plan(PlanDecision {
                requested: strategy,
                resolved: Strategy::Navigational,
                reason: format!("outside the pattern algebra: {why}"),
                twigstack_compatible: None,
            });
            sink.record_executed(Strategy::Navigational);
        }
        Ok(self.eval_nav(path))
    }

    /// Evaluate a path query and return its [`QueryTrace`] alongside the
    /// result nodes. The result is byte-identical to
    /// [`Engine::eval_path_str`]; operator counters are populated only
    /// when the engine was built with [`EngineOptions::trace`].
    pub fn eval_path_traced(
        &self,
        query: &str,
        strategy: Strategy,
    ) -> Result<(Vec<NodeId>, QueryTrace), EngineError> {
        self.obs.reset();
        let mut phases = PhaseTimings::default();
        let nodes = self.eval_path_str_timed(query, strategy, &mut phases)?;
        Ok((nodes, self.finish_trace(query, strategy, phases)))
    }

    /// Evaluate a full query (FLWOR / constructor / path) and return its
    /// [`QueryTrace`] alongside the result document. The document is
    /// byte-identical to [`Engine::eval_query_str`]; operator counters
    /// are populated only when the engine was built with
    /// [`EngineOptions::trace`].
    pub fn eval_query_traced(
        &self,
        query: &str,
        strategy: Strategy,
    ) -> Result<(Document, QueryTrace), EngineError> {
        self.obs.reset();
        let mut phases = PhaseTimings::default();
        let doc = self.eval_query_timed(query, strategy, &mut phases)?;
        Ok((doc, self.finish_trace(query, strategy, phases)))
    }

    /// Evaluate a full query through the plan cache, under its text: a
    /// path query as a [`PathPlan`] (shared with [`Engine::eval_path_str`]),
    /// a constructor or FLWOR query as a [`QueryPlan`], so a repeated
    /// evaluation skips parsing and compiling.
    fn eval_query_timed(
        &self,
        query: &str,
        strategy: Strategy,
        phases: &mut PhaseTimings,
    ) -> Result<Document, EngineError> {
        let t = Instant::now();
        let cached = self.plans.get(&self.plan_key(query));
        phases.cache_lookup = t.elapsed();
        let plan = match cached {
            Some(plan) => plan,
            None => {
                let t = Instant::now();
                let expr = blossom_flwor::parse_query(query)?;
                phases.parse = t.elapsed();
                match &expr {
                    Expr::Path(p) => {
                        let nodes = self.eval_path_parsed_cached(p, query, strategy, phases)?;
                        return Ok(self.result_of(&nodes));
                    }
                    Expr::Constructor(_) | Expr::Flwor(_) => {}
                    other => {
                        return Err(EngineError::Unsupported(format!(
                            "top-level expression {other:?}"
                        )))
                    }
                }
                let t = Instant::now();
                let plan = QueryPlan::compile(&expr, &self.doc, &self.stats);
                let plan = Arc::new(CachedPlan::Query(plan));
                self.plans.insert(self.plan_key(query), plan.clone());
                phases.plan = t.elapsed();
                plan
            }
        };
        let q = match &*plan {
            CachedPlan::Path(path) => {
                let nodes = self.eval_path_planned(path, strategy, phases)?;
                return Ok(self.result_of(&nodes));
            }
            CachedPlan::Query(q) => q,
        };
        let t = Instant::now();
        let mut builder = Document::builder();
        // A FLWOR's tuples are wrapped in one `<result>` element.
        let wrap = matches!(q, QueryPlan::Flwor(..));
        if wrap {
            builder.start_element("result");
        }
        self.construct(&mut builder, q, strategy)?;
        if wrap {
            builder.end_element();
        }
        phases.matching = t.elapsed();
        Ok(builder.finish())
    }

    /// A path query's result document: the nodes' subtrees under one
    /// `<result>` element.
    fn result_of(&self, nodes: &[NodeId]) -> Document {
        let mut builder = Document::builder();
        builder.start_element("result");
        for &n in nodes {
            env::copy_subtree(&mut builder, &self.doc, n);
        }
        builder.end_element();
        builder.finish()
    }

    /// Assemble the [`QueryTrace`] from whatever the sink collected.
    fn finish_trace(&self, query: &str, requested: Strategy, phases: PhaseTimings) -> QueryTrace {
        let (plan, executed, fallbacks, estimates, ops) = self.obs.take();
        let plan = plan.unwrap_or_else(|| PlanDecision {
            requested,
            resolved: requested,
            reason: String::new(),
            twigstack_compatible: None,
        });
        QueryTrace {
            query: query.to_string(),
            requested,
            resolved: plan.resolved,
            executed: executed.unwrap_or(plan.resolved),
            plan_reason: plan.reason,
            twigstack_compatible: plan.twigstack_compatible,
            fallbacks,
            estimates,
            ops,
            phases,
            cache: self.cache_stats(),
            threads: self.threads(),
            skip_joins: self.skip_joins,
            counters_enabled: self.trace,
        }
    }

    /// Replace the cooperative deadline on this engine view.
    ///
    /// Per-request engines over a shared document are cheap to build,
    /// but a *batched* evaluation serves several requests whose
    /// deadlines differ: the server coalesces them, evaluates once
    /// under the latest member deadline (set here after the member set
    /// is fixed), and applies each member's own deadline to its
    /// response. See `blossom-server`'s batching module.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Evaluate a full query and serialize the result to the exact
    /// bytes `blossom query` prints plus a trailing newline — the
    /// server's response-body contract, shared by its solo and batched
    /// paths so coalesced responses are byte-identical to solo ones by
    /// construction.
    pub fn eval_query_bytes(
        &self,
        query: &str,
        strategy: Strategy,
    ) -> Result<(Vec<u8>, QueryTrace), EngineError> {
        let (doc, trace) = self.eval_query_traced(query, strategy)?;
        let mut text = blossom_xml::writer::to_string(&doc);
        text.push('\n');
        Ok((text.into_bytes(), trace))
    }

    /// Number of cached plans (diagnostics).
    pub fn cached_plan_count(&self) -> usize {
        self.plans.stats().len
    }

    /// Plan-cache behavior: hit/miss counters, occupancy and capacity.
    pub fn cache_stats(&self) -> CacheStats {
        self.plans.stats()
    }

    /// Evaluate with a prebuilt plan.
    fn eval_path_planned(
        &self,
        cached: &PathPlan,
        strategy: Strategy,
        phases: &mut PhaseTimings,
    ) -> Result<Vec<NodeId>, EngineError> {
        self.check_deadline()?;
        let (path, bt, d) = (&cached.path, &cached.bt, &cached.decomposition);
        let requested = strategy;
        let auto = requested == Strategy::Auto;
        // Both planner modes resolve a path query by the same structural
        // rule; the cost model only adds the ledger of estimates, which an
        // engine with the cost planner off does not record.
        let mut ledger: &[ComponentPlan] = &[];
        let strategy = if auto {
            let chosen = &cached.cost_plan;
            if let Some(sink) = self.sink() {
                sink.record_plan(PlanDecision {
                    requested,
                    resolved: chosen.strategy,
                    reason: chosen.reason.clone(),
                    twigstack_compatible: Some(chosen.twigstack_compatible),
                });
            }
            if self.cost_based {
                ledger = &chosen.components;
            }
            chosen.strategy
        } else {
            if let Some(sink) = self.sink() {
                sink.record_plan(PlanDecision {
                    requested,
                    resolved: requested,
                    reason: "explicitly requested".into(),
                    twigstack_compatible: Some(plan::twigstack_compatible(d)),
                });
            }
            requested
        };
        let t = Instant::now();
        // Root anchors that survived every join: the component's output
        // cardinality in the planner's ledger (the holistic joins and the
        // navigational walk have no such intermediate).
        let mut anchors = None;
        let mut note = |(nodes, survivors): (Vec<NodeId>, u64)| {
            anchors = Some(survivors);
            nodes
        };
        let result = match strategy {
            Strategy::Navigational => Ok(self.eval_nav(path)),
            Strategy::TwigStack => self.eval_path_twigstack(bt),
            Strategy::PathStack => self.eval_path_pathstack(bt),
            Strategy::Pipelined | Strategy::BoundedNestedLoop => match &cached.flat {
                Ok(flat) => {
                    // A forced strategy forces its join on every cut edge;
                    // under `Auto` each picks from its input lengths.
                    let force = match strategy {
                        _ if auto => None,
                        Strategy::Pipelined => Some(Kernel::Merge),
                        _ => Some(Kernel::Probe),
                    };
                    flat.run(&self.doc, &self.index, force, self.sink(), &|| {
                        self.check_deadline()
                    })
                    .map(&mut note)
                }
                // Only reachable forced (`Auto` plans such a query as
                // navigational): the NestedList pipeline's bounded nested
                // loop joins any cut edge.
                Err(why) => {
                    let rewritten = Strategy::BoundedNestedLoop;
                    if let Some(sink) = self.sink() {
                        sink.record_fallback(
                            strategy,
                            rewritten,
                            format!("{why}: NestedList pipeline instead of the flat one"),
                        );
                        sink.record_executed(rewritten);
                    }
                    self.eval_path_nested(cached, rewritten, phases).map(&mut note)
                }
            },
            Strategy::NaiveNestedLoop => {
                self.eval_path_nested(cached, strategy, phases).map(&mut note)
            }
            Strategy::Auto => unreachable!("resolved above"),
        };
        phases.matching = t.elapsed() - phases.merge;
        if let Some(sink) = self.sink() {
            sink.record_estimates(
                ledger
                    .iter()
                    .map(|c| EstimateRecord {
                        component: c.component,
                        strategy: c.strategy,
                        est_anchors: c.est_anchors,
                        est_output: c.est_output,
                        est_cost: c.est_cost,
                        actual_output: anchors,
                        replanned: false,
                    })
                    .collect(),
            );
        }
        // `Auto` resolves to the navigational walk or the flat pipeline,
        // each total on what it is chosen for: the only error left is a
        // deadline abort, which must surface as-is
        // (falling back would re-run the query after its time is up).
        if result.is_ok() {
            if let Some(sink) = self.sink() {
                sink.record_executed(strategy);
            }
        }
        result
    }

    /// The NestedList pipeline on a path query: under naive nested loops
    /// the reference implementation of the flat pipeline, under bounded
    /// ones the plan rewrite for cut edges it has no semi-join for.
    /// Returns the result nodes and the number of per-anchor NestedLists
    /// they were projected from.
    fn eval_path_nested(
        &self,
        cached: &PathPlan,
        joins: Strategy,
        phases: &mut PhaseTimings,
    ) -> Result<(Vec<NodeId>, u64), EngineError> {
        let d = &cached.decomposition;
        let results = self.eval_decomposition(d, joins, None, None)?;
        let t = Instant::now();
        let out_shape =
            d.shape.by_pattern(cached.bt.returning[0]).expect("query output is returning");
        let mut nodes = ops::project_seq_shape(&results, out_shape);
        nodes.sort_unstable();
        nodes.dedup();
        phases.merge = t.elapsed();
        Ok((nodes, results.len() as u64))
    }

    /// Evaluate a parsed path query (planned afresh: only query *text*
    /// keys the plan cache).
    pub fn eval_path(
        &self,
        path: &PathExpr,
        strategy: Strategy,
    ) -> Result<Vec<NodeId>, EngineError> {
        match self.compile_path(path) {
            Ok(plan) => self.eval_path_planned(&plan, strategy, &mut PhaseTimings::default()),
            Err(e) => self.eval_path_outside_algebra(path, strategy, e),
        }
    }

    fn eval_path_pathstack(&self, bt: &BlossomTree) -> Result<Vec<NodeId>, EngineError> {
        use crate::join::pathstack::PathStackMatcher;
        let output = bt.returning[0];
        let roots = &bt.pattern.node(blossom_xpath::PatternNodeId::ROOT).children;
        if roots.len() != 1 {
            return Err(EngineError::Unsupported(
                "PathStack evaluates single-chain path queries".into(),
            ));
        }
        let root = roots[0];
        let root_axis = bt.pattern.node(root).axis;
        if !matches!(root_axis, Axis::Child | Axis::Descendant) {
            // Nothing is beside, before, after, or (for an element test)
            // equal to the document node: the anchor set is empty.
            return Ok(Vec::new());
        }
        let mut m = PathStackMatcher::with_skip(
            &self.doc,
            &self.index,
            &bt.pattern,
            root,
            root_axis,
            self.skip_joins,
        )?;
        m.enable_meter(self.trace);
        m.run();
        let nodes = m.solution_nodes(output);
        if let Some(sink) = self.sink() {
            let mut c = m.counters();
            c.output = nodes.len() as u64;
            sink.record_op("pathstack", c);
        }
        Ok(nodes)
    }

    fn eval_path_twigstack(&self, bt: &BlossomTree) -> Result<Vec<NodeId>, EngineError> {
        let output = bt.returning[0];
        let roots = &bt.pattern.node(blossom_xpath::PatternNodeId::ROOT).children;
        if roots.len() != 1 {
            return Err(EngineError::Unsupported(
                "TwigStack evaluates single-component path queries".into(),
            ));
        }
        let root = roots[0];
        let root_axis = bt.pattern.node(root).axis;
        if !matches!(root_axis, Axis::Child | Axis::Descendant) {
            // Same reasoning as PathStack: such a first step can match
            // nothing relative to the document node.
            return Ok(Vec::new());
        }
        let mut tm = TwigMatcher::with_skip(
            &self.doc,
            &self.index,
            &bt.pattern,
            root,
            root_axis,
            self.skip_joins,
        )?;
        tm.enable_meter(self.trace);
        tm.run();
        let nodes = tm.solution_nodes(output);
        if let Some(sink) = self.sink() {
            let mut c = tm.counters();
            c.output = nodes.len() as u64;
            sink.record_op("twigstack", c);
        }
        Ok(nodes)
    }

    /// Evaluate a full query (FLWOR / constructor / path) and return the
    /// result document.
    pub fn eval_query_str(
        &self,
        query: &str,
        strategy: Strategy,
    ) -> Result<Document, EngineError> {
        self.eval_query_timed(query, strategy, &mut PhaseTimings::default())
    }

    /// Append a compiled query's result to `builder`.
    fn construct(
        &self,
        builder: &mut blossom_xml::TreeBuilder,
        plan: &QueryPlan,
        strategy: Strategy,
    ) -> Result<(), EngineError> {
        match plan {
            QueryPlan::Text(t) => {
                builder.text(t);
                Ok(())
            }
            QueryPlan::Seq(items) => {
                for item in items {
                    self.construct(builder, item, strategy)?;
                }
                Ok(())
            }
            QueryPlan::Elem { name, attrs, children } => {
                builder.start_element(name);
                for (k, v) in attrs {
                    builder.attribute(k, v);
                }
                for child in children {
                    self.construct(builder, child, strategy)?;
                }
                builder.end_element();
                Ok(())
            }
            QueryPlan::Path(p) => {
                for n in self.eval_path(p, strategy)? {
                    env::copy_subtree(builder, &self.doc, n);
                }
                Ok(())
            }
            QueryPlan::Flwor(f, plan) => {
                match (strategy, plan) {
                    (Strategy::Auto, Ok(plan)) => self.eval_flwor_flat(builder, plan),
                    (Strategy::Auto, Err(why)) => {
                        if let Some(sink) = self.sink() {
                            sink.record_plan(PlanDecision {
                                requested: Strategy::Auto,
                                resolved: Strategy::Pipelined,
                                reason: "flat FLWOR plan".into(),
                                twigstack_compatible: None,
                            });
                            sink.record_fallback(
                                Strategy::Pipelined,
                                Strategy::BoundedNestedLoop,
                                format!("outside the flat FLWOR algebra: {why}"),
                            );
                        }
                        self.eval_flwor_into(builder, f, strategy)
                    }
                    _ => self.eval_flwor_into(builder, f, strategy),
                }
            }
        }
    }

    /// Evaluate a FLWOR's flat plan ([`crate::flwor`]), appending each
    /// tuple's constructed result.
    fn eval_flwor_flat(
        &self,
        builder: &mut blossom_xml::TreeBuilder,
        plan: &FlworPlan,
    ) -> Result<(), EngineError> {
        if let Some(sink) = self.sink() {
            sink.record_plan(PlanDecision {
                requested: Strategy::Auto,
                resolved: Strategy::Pipelined,
                reason: "flat FLWOR plan: binding tables, hash/order joins".into(),
                twigstack_compatible: None,
            });
            sink.record_executed(Strategy::Pipelined);
        }
        plan.run(&self.doc, &self.index, builder, self.sink(), &|| self.check_deadline())
    }

    /// Evaluate a FLWOR with the NestedList pipeline (or, navigationally,
    /// with nested loops) and append each tuple's constructed result.
    fn eval_flwor_into(
        &self,
        builder: &mut blossom_xml::TreeBuilder,
        flwor: &Flwor,
        strategy: Strategy,
    ) -> Result<(), EngineError> {
        if strategy == Strategy::Navigational {
            if let Some(sink) = self.sink() {
                sink.record_plan(PlanDecision {
                    requested: strategy,
                    resolved: Strategy::Navigational,
                    reason: "explicitly requested".into(),
                    twigstack_compatible: None,
                });
                sink.record_executed(Strategy::Navigational);
            }
            return self.naive_flwor(builder, flwor);
        }
        // A `path op literal` where-atom becomes a mandatory value
        // constraint in the pattern, filtering match-by-match. That equals
        // the tuple semantics only when the operand iterates with a `for`
        // binding; over a `let`-bound (or absolute) operand the atom is an
        // existential filter on the whole sequence, and folding it would
        // both narrow the bound sequence and stop filtering empty tuples.
        if !where_literal_atoms_iterate(flwor) {
            if let Some(sink) = self.sink() {
                sink.record_fallback(
                    strategy,
                    Strategy::Navigational,
                    "where-clause atoms over let-bound or absolute operands need \
                     per-tuple existential filtering",
                );
                sink.record_executed(Strategy::Navigational);
            }
            return self.naive_flwor(builder, flwor);
        }
        let bt = match BlossomTree::from_flwor(flwor) {
            Ok(bt) => bt,
            Err(BlossomError::Unsupported(what)) if strategy == Strategy::Auto => {
                // Outside the BlossomTree subset: fall back to the naive
                // evaluator.
                if let Some(sink) = self.sink() {
                    sink.record_fallback(
                        strategy,
                        Strategy::Navigational,
                        format!("outside the BlossomTree subset: {what}"),
                    );
                    sink.record_executed(Strategy::Navigational);
                }
                return self.naive_flwor(builder, flwor);
            }
            Err(e) => return Err(e.into()),
        };
        let d = Decomposition::decompose(&bt);
        let mut cplans: Option<Vec<ComponentPlan>> = None;
        let strategy = match strategy {
            Strategy::Auto => {
                let (resolved, comps, reason) = if self.cost_based {
                    plan::choose_flwor(&d, &self.stats)
                } else {
                    let (s, r) = plan::choose_flwor_static(&d, &self.stats);
                    (s, Vec::new(), r)
                };
                if let Some(sink) = self.sink() {
                    sink.record_plan(PlanDecision {
                        requested: Strategy::Auto,
                        resolved,
                        reason,
                        twigstack_compatible: Some(plan::twigstack_compatible(&d)),
                    });
                }
                if self.cost_based {
                    cplans = Some(comps);
                }
                resolved
            }
            s => {
                if let Some(sink) = self.sink() {
                    sink.record_plan(PlanDecision {
                        requested: s,
                        resolved: s,
                        reason: "explicitly requested".into(),
                        twigstack_compatible: Some(plan::twigstack_compatible(&d)),
                    });
                }
                s
            }
        };
        // Tuple extraction is per for-variable; a for-variable nested under
        // a let-bound (optional) position cannot be unnested from grouped
        // NestedLists — evaluate such queries with the naive engine.
        let mut for_positions: FxHashSet<ShapeId> = FxHashSet::default();
        for b in &flwor.bindings {
            if b.kind == blossom_flwor::BindingKind::For {
                if let Some(id) = d.shape.by_var(&b.var) {
                    for_positions.insert(id);
                }
            }
        }
        for &id in &for_positions {
            let mut cur = d.shape.node(id).parent;
            loop {
                if cur == 0 {
                    break;
                }
                let node = d.shape.node(cur);
                if node.optional {
                    if let Some(sink) = self.sink() {
                        sink.record_fallback(
                            strategy,
                            Strategy::Navigational,
                            "a for-variable nested under an optional (let-bound) \
                             position cannot be unnested from grouped NestedLists",
                        );
                        sink.record_executed(Strategy::Navigational);
                    }
                    return self.naive_flwor(builder, flwor);
                }
                cur = node.parent;
            }
        }
        if let Some(sink) = self.sink() {
            sink.record_executed(strategy);
        }
        let results =
            self.eval_decomposition(&d, strategy, Some(&for_positions), cplans.as_deref())?;
        self.check_deadline()?;
        // Parallel for-clause iteration, step 1: the per-anchor
        // NestedLists are chunked across workers, each unnesting its
        // chunk into tuples independently; ordered collection keeps the
        // tuple sequence identical to a sequential pass. Cross products
        // can explode combinatorially (one NestedList can expand to
        // |a|×|b|×|c| tuples), so the deadline is polled *inside* the
        // expansion — without it a runaway enumeration is uncancellable
        // (it allocates until memory runs out).
        let per_worker: Vec<Result<Vec<Tuple>, EngineError>> =
            self.exec.map_chunks(&results, |chunk| {
                let mut out = Vec::new();
                for nl in chunk {
                    match env::try_enumerate_tuples(nl, &for_positions, &|| {
                        self.check_deadline().is_ok()
                    }) {
                        Some(tuples) => out.extend(tuples),
                        None => return Err(EngineError::Deadline),
                    }
                }
                Ok(out)
            });
        let per_worker: Vec<Vec<Tuple>> = per_worker.into_iter().collect::<Result<_, _>>()?;
        if let Some(sink) = self.sink() {
            // Per-worker tuple counts, merged here at concat time.
            let mut c = OpCounters::default();
            c.scanned = results.len() as u64;
            c.output = per_worker.iter().map(|w| w.len() as u64).sum();
            sink.record_op("flwor-tuples", c);
        }
        let mut tuples: Vec<Tuple> = per_worker.into_iter().flatten().collect();
        // Joins and products combine components group by group, which is
        // not always the `for` nesting order (three components with a
        // predicate between the outer two, or a component's `for`
        // variables interleaved with another's). Nesting order is the
        // bound nodes compared binding by binding.
        let for_shapes: Vec<ShapeId> = flwor
            .bindings
            .iter()
            .filter(|b| b.kind == blossom_flwor::BindingKind::For)
            .filter_map(|b| d.shape.by_var(&b.var))
            .collect();
        tuples.sort_by(|x, y| {
            for_shapes
                .iter()
                .map(|&s| x.get(s).first().cmp(&y.get(s).first()))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if !bt.order_by.is_empty() {
            let keys: Vec<(ShapeId, blossom_flwor::SortOrder)> = bt
                .order_by
                .iter()
                .zip(&flwor.order_by)
                .map(|(&node, (_, direction))| {
                    (
                        d.shape.by_pattern(node).expect("order-by node is returning"),
                        *direction,
                    )
                })
                .collect();
            env::order_tuples(&self.doc, &mut tuples, &keys);
        }
        // Step 2: construction. Each worker builds its tuple chunk into a
        // private fragment document (evaluating the correlated inner
        // paths of the return clause independently); fragments are then
        // spliced into the result builder in tuple order, so the output
        // is byte-identical to sequential construction.
        if self.exec.threads() > 1 && tuples.len() > 1 {
            let fragments = self.exec.map_chunks(
                &tuples,
                |chunk: &[Tuple]| -> Result<Document, EngineError> {
                    let mut fragment = Document::builder();
                    fragment.start_element("fragment");
                    for tuple in chunk {
                        self.check_deadline()?;
                        env::construct(&mut fragment, &self.doc, &d.shape, tuple, &flwor.ret)?;
                    }
                    fragment.end_element();
                    Ok(fragment.finish())
                },
            );
            for fragment in fragments {
                let fragment = fragment?;
                let wrapper = fragment.root_element().expect("fragment wrapper element");
                for child in fragment.children(wrapper) {
                    env::copy_subtree(builder, &fragment, child);
                }
            }
        } else {
            for tuple in &tuples {
                self.check_deadline()?;
                env::construct(builder, &self.doc, &d.shape, tuple, &flwor.ret)?;
            }
        }
        Ok(())
    }

    /// Evaluate all NoKs + joins of a decomposition, returning the final
    /// sequence of NestedLists.
    ///
    /// `for_positions` (FLWOR callers only) names the shape positions
    /// bound by `for` clauses; components containing none of them are
    /// `let`-only and their matches collapse into a single grouped
    /// NestedList before any join, so they bind a whole sequence per
    /// tuple instead of multiplying the tuple count.
    ///
    /// `cplans` (cost-based `Auto` resolutions only) carries one
    /// [`ComponentPlan`] per component: each component runs its own
    /// strategy (overriding `strategy`), and its estimated-vs-actual
    /// cardinalities are recorded as the trace's estimate rows.
    fn eval_decomposition(
        &self,
        d: &Decomposition,
        strategy: Strategy,
        for_positions: Option<&FxHashSet<ShapeId>>,
        cplans: Option<&[ComponentPlan]>,
    ) -> Result<Vec<NestedList>, EngineError> {
        // Component id per NoK (roots start components; cut edges attach).
        let comp_of = d.components();
        // Defensive: per-component dispatch needs exactly one plan per
        // component; anything else degrades to uniform dispatch.
        let cplans = cplans.filter(|c| c.len() == d.roots.len());
        let matchers: Vec<NokMatcher<'_>> = d
            .noks
            .iter()
            .map(|nok| {
                NokMatcher::with_skip(
                    &self.doc,
                    nok,
                    d.shape.clone(),
                    Some(&self.index),
                    self.skip_joins,
                )
                .with_trace_sink(self.sink())
            })
            .collect();

        // Evaluate each component — in parallel when there are several
        // (Example 1's two //book iterations scan concurrently).
        let component_results: Vec<Result<Vec<NestedList>, EngineError>> =
            if d.roots.len() > 1 {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = d
                        .roots
                        .iter()
                        .enumerate()
                        .map(|(ci, &(root_nok, root_axis))| {
                            let cuts: Vec<&CutEdge> = d
                                .cut_edges
                                .iter()
                                .filter(|c| comp_of[c.child_nok] == ci)
                                .collect();
                            let matchers = &matchers;
                            scope.spawn(move || {
                                self.eval_component(
                                    d,
                                    matchers,
                                    root_nok,
                                    root_axis,
                                    &cuts,
                                    cplans.map_or(strategy, |c| c[ci].strategy),
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("component worker panicked"))
                        .collect()
                })
            } else {
                d.roots
                    .iter()
                    .enumerate()
                    .map(|(ci, &(root_nok, root_axis))| {
                        let cuts: Vec<&CutEdge> = d
                            .cut_edges
                            .iter()
                            .filter(|c| comp_of[c.child_nok] == ci)
                            .collect();
                        self.eval_component(
                            d,
                            &matchers,
                            root_nok,
                            root_axis,
                            &cuts,
                            cplans.map_or(strategy, |c| c[ci].strategy),
                        )
                    })
                    .collect()
            };
        let mut groups: Vec<(FxHashSet<usize>, Vec<NestedList>)> = Vec::new();
        let mut actuals: Vec<u64> = Vec::with_capacity(d.roots.len());
        for (ci, results) in component_results.into_iter().enumerate() {
            let results = results?;
            actuals.push(results.len() as u64);
            let mut set = FxHashSet::default();
            set.insert(ci);
            groups.push((set, results));
        }
        // Estimated vs actual, per component (first recording wins, so
        // inner evaluations never overwrite the top-level query's rows).
        if let (Some(cps), Some(sink)) = (cplans, self.sink()) {
            sink.record_estimates(
                cps.iter()
                    .zip(&actuals)
                    .map(|(cp, &actual)| EstimateRecord {
                        component: cp.component,
                        strategy: cp.strategy,
                        est_anchors: cp.est_anchors,
                        est_output: cp.est_output,
                        est_cost: cp.est_cost,
                        actual_output: Some(actual),
                        replanned: false,
                    })
                    .collect(),
            );
        }

        // Collapse `let`-only components: a `let` binds its entire match
        // sequence once per tuple, so such a component must contribute a
        // single (possibly empty) grouped NestedList. This also makes the
        // crossing-edge joins below existential over the sequence, which
        // is the `where` clause's comparison semantics.
        if let Some(fp) = for_positions {
            for (ci, (_, results)) in groups.iter_mut().enumerate() {
                let has_for = d
                    .noks
                    .iter()
                    .enumerate()
                    .filter(|&(ni, _)| comp_of[ni] == ci)
                    .flat_map(|(_, nok)| nok.shape_of.iter().flatten())
                    .any(|sid| fp.contains(sid));
                if !has_for {
                    let mut merged = NestedList::empty(d.shape.clone());
                    for nl in std::mem::take(results) {
                        for (gi, group) in nl.root.groups.into_iter().enumerate() {
                            merged.root.groups[gi]
                                .extend(group.into_iter().filter(|n| !n.is_placeholder()));
                        }
                    }
                    *results = vec![merged];
                }
            }
        }

        // Crossing-edge predicates.
        let mut pending: Vec<(usize, usize, CrossPred)> = d
            .crossing
            .iter()
            .map(|c| {
                (
                    comp_of[c.left.0],
                    comp_of[c.right.0],
                    CrossPred { left: c.left.1, rel: c.rel, right: c.right.1 },
                )
            })
            .collect();
        while !pending.is_empty() {
            let (lc, rc, _) = pending[0];
            let li = groups.iter().position(|(s, _)| s.contains(&lc)).unwrap();
            let ri = groups.iter().position(|(s, _)| s.contains(&rc)).unwrap();
            if li == ri {
                // Intra-group predicates: plain filters.
                let preds: Vec<CrossPred> = drain_matching(&mut pending, |(l, r, _)| {
                    let s = &groups[li].0;
                    s.contains(l) && s.contains(r)
                })
                .into_iter()
                .map(|(_, _, p)| p)
                .collect();
                for p in preds {
                    groups[li].1 = ops::filter_cross(
                        &self.doc,
                        std::mem::take(&mut groups[li].1),
                        &p,
                    );
                }
            } else {
                // Join the two groups on every predicate between them,
                // each operand projected from the group owning it.
                let between = drain_matching(&mut pending, |(l, r, _)| {
                    let (sl, sr) = (&groups[li].0, &groups[ri].0);
                    (sl.contains(l) && sr.contains(r)) || (sr.contains(l) && sl.contains(r))
                });
                let (hi, lo) = if li > ri { (li, ri) } else { (ri, li) };
                let (set_b, right) = groups.remove(hi);
                let (set_a, left) = groups.remove(lo);
                let preds: Vec<(CrossPred, bool)> =
                    between.into_iter().map(|(l, _, p)| (p, !set_a.contains(&l))).collect();
                let joined =
                    ops::try_theta_join(&self.doc, &left, &right, &preds, &|| {
                        self.check_deadline().is_ok()
                    })
                    .ok_or(EngineError::Deadline)?;
                let mut set = set_a;
                set.extend(set_b);
                groups.push((set, joined));
            }
        }

        // Remaining disconnected groups: Cartesian product. This is the
        // one join that *always* multiplies cardinalities, so it must be
        // interruptible from inside the pair loop.
        while groups.len() > 1 {
            let (set_b, right) = groups.pop().unwrap();
            let (set_a, left) = groups.pop().unwrap();
            let joined = ops::try_theta_join(&self.doc, &left, &right, &[], &|| {
                self.check_deadline().is_ok()
            })
            .ok_or(EngineError::Deadline)?;
            let mut set = set_a;
            set.extend(set_b);
            groups.push((set, joined));
        }
        Ok(groups.pop().map(|(_, r)| r).unwrap_or_default())
    }

    /// Evaluate one component under `strategy`: root NoK anchors, then
    /// one structural join per cut edge (in discovery order, so parents
    /// are always joined before their children).
    fn eval_component(
        &self,
        d: &Decomposition,
        matchers: &[NokMatcher<'_>],
        root_nok: usize,
        root_axis: Axis,
        cuts: &[&CutEdge],
        strategy: Strategy,
    ) -> Result<Vec<NestedList>, EngineError> {
        // The component root is matched relative to the document root, so
        // only `/` (depth-1 elements) and `//` (every element) admit
        // anchors: nothing is a sibling of, follows, precedes, or *is*
        // (for an element test) the document node.
        if !matches!(root_axis, Axis::Child | Axis::Descendant) {
            return Ok(Vec::new());
        }
        // Cost-based join ordering: selective children first, within the
        // topological constraint.
        let cuts = plan::order_cut_edges(d, root_nok, cuts, &self.index, &self.doc);
        let cuts = &cuts[..];
        // The pipelined join's discard rule assumes descendant containment;
        // `following`-joins are not order-preserving (Section 4.3), so a
        // component containing one is evaluated with nested loops instead.
        let strategy = if strategy == Strategy::Pipelined
            && cuts.iter().any(|c| c.axis != Axis::Descendant)
        {
            if let Some(sink) = self.sink() {
                sink.record_fallback(
                    Strategy::Pipelined,
                    Strategy::NaiveNestedLoop,
                    "a non-descendant cut edge breaks the pipelined join's \
                     order-preserving discard rule",
                );
            }
            Strategy::NaiveNestedLoop
        } else {
            strategy
        };
        let level_ok = |anchor: NodeId| -> bool {
            root_axis != Axis::Child || self.doc.level(anchor) == 1
        };
        self.check_deadline()?;
        match strategy {
            Strategy::Pipelined => {
                let mut current: Box<dyn Iterator<Item = StreamItem> + '_> = {
                    let mut stream = matchers[root_nok].stream();
                    Box::new(
                        std::iter::from_fn(move || stream.get_next())
                            .filter(move |&(a, _)| level_ok(a)),
                    )
                };
                for cut in cuts {
                    let right = matchers[cut.child_nok].stream();
                    let mut join = PipelinedJoin::with_skip(
                        &self.doc,
                        current,
                        right,
                        &d.noks,
                        cut,
                        self.skip_joins,
                    );
                    join.set_trace_sink(self.sink());
                    current = Box::new(join);
                }
                Ok(current.map(|(_, nl)| nl).collect())
            }
            Strategy::BoundedNestedLoop | Strategy::NaiveNestedLoop => {
                // The root anchors' scan is the data-parallel part:
                // partitioned over disjoint anchor ranges, concatenated
                // back in document order (identical to the sequential
                // stream at any thread count).
                let mut left: Vec<NestedList> = matchers[root_nok]
                    .par_scan_entries(&self.exec)
                    .into_iter()
                    .filter(|&(a, _)| level_ok(a))
                    .map(|(_, nl)| nl)
                    .collect();
                for cut in cuts {
                    self.check_deadline()?;
                    let inner = &matchers[cut.child_nok];
                    left = if strategy == Strategy::BoundedNestedLoop
                        && cut.axis == Axis::Descendant
                    {
                        bounded_nlj(&self.doc, left, inner, &d.noks, cut)
                    } else {
                        naive_nlj(&self.doc, left, inner, &d.noks, cut)
                    };
                }
                Ok(left)
            }
            other => Err(EngineError::Unsupported(format!(
                "strategy {other} cannot drive the NoK pipeline"
            ))),
        }
    }

    /// The naive FLWOR evaluation the paper's introduction warns about:
    /// nested loops over the bindings, re-evaluating every path
    /// navigationally per iteration. Serves as the oracle.
    pub fn naive_flwor(
        &self,
        builder: &mut blossom_xml::TreeBuilder,
        flwor: &Flwor,
    ) -> Result<(), EngineError> {
        for e in self.naive_envs(flwor, &[])? {
            self.naive_construct(builder, &flwor.ret, &e)?;
        }
        Ok(())
    }

    /// Produce the tuple environments of a FLWOR over a base environment
    /// (non-empty for correlated nested FLWORs), sorted by the order-by
    /// key when present.
    fn naive_envs(
        &self,
        flwor: &Flwor,
        base: &[(String, Vec<NodeId>)],
    ) -> Result<Vec<NaiveEnv>, EngineError> {
        let mut env: NaiveEnv = base.to_vec();
        let mut envs: Vec<NaiveEnv> = Vec::new();
        self.naive_bind(&mut envs, flwor, 0, &mut env)?;
        if !flwor.order_by.is_empty() {
            let mut keyed: Vec<(Vec<String>, NaiveEnv)> = Vec::new();
            for e in envs {
                let mut keys = Vec::with_capacity(flwor.order_by.len());
                for (ob, _) in &flwor.order_by {
                    keys.push(
                        self.resolve_path(ob, &e)?
                            .first()
                            .map(|&n| self.doc.string_value(n))
                            .unwrap_or_default(),
                    );
                }
                keyed.push((keys, e));
            }
            keyed.sort_by(|a, b| {
                for (i, (_, direction)) in flwor.order_by.iter().enumerate() {
                    let ord = a.0[i].cmp(&b.0[i]);
                    let ord = if *direction == blossom_flwor::SortOrder::Descending {
                        ord.reverse()
                    } else {
                        ord
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            envs = keyed.into_iter().map(|(_, e)| e).collect();
        }
        Ok(envs)
    }

    fn resolve_path(
        &self,
        path: &PathExpr,
        env: &[(String, Vec<NodeId>)],
    ) -> Result<Vec<NodeId>, EngineError> {
        match &path.start {
            PathStart::Variable(v) => {
                let bound = env
                    .iter()
                    .rev()
                    .find(|(name, _)| name == v)
                    .map(|(_, nodes)| nodes.clone())
                    .ok_or_else(|| EngineError::Env(EnvError::UnboundVariable(v.clone())))?;
                if path.steps.is_empty() {
                    Ok(bound)
                } else {
                    match self.sink() {
                        Some(sink) => {
                            let mut m = Meter::new(true);
                            let out = navigational::eval_from_counted(
                                &self.doc,
                                &path.steps,
                                &bound,
                                &mut m,
                            );
                            let mut c = m.counters();
                            c.output = out.len() as u64;
                            sink.record_op("navigational", c);
                            Ok(out)
                        }
                        None => Ok(navigational::eval_from(&self.doc, &path.steps, &bound)),
                    }
                }
            }
            _ => Ok(self.eval_nav(path)),
        }
    }

    fn naive_bind(
        &self,
        envs: &mut Vec<NaiveEnv>,
        flwor: &Flwor,
        binding_idx: usize,
        env: &mut Vec<(String, Vec<NodeId>)>,
    ) -> Result<(), EngineError> {
        // The recursion enumerates the Cartesian product of the for
        // bindings — the one place naive evaluation can blow up — so this
        // is the naive engine's cooperative abort point.
        self.check_deadline()?;
        if binding_idx == flwor.bindings.len() {
            if let Some(w) = &flwor.where_clause {
                if !self.naive_where(w, env)? {
                    return Ok(());
                }
            }
            envs.push(env.clone());
            return Ok(());
        }
        let binding = &flwor.bindings[binding_idx];
        let nodes = self.resolve_path(&binding.path, env)?;
        match binding.kind {
            blossom_flwor::BindingKind::For => {
                for n in nodes {
                    env.push((binding.var.clone(), vec![n]));
                    self.naive_bind(envs, flwor, binding_idx + 1, env)?;
                    env.pop();
                }
                Ok(())
            }
            blossom_flwor::BindingKind::Let => {
                env.push((binding.var.clone(), nodes));
                self.naive_bind(envs, flwor, binding_idx + 1, env)?;
                env.pop();
                Ok(())
            }
        }
    }

    fn naive_where(
        &self,
        expr: &BoolExpr,
        env: &[(String, Vec<NodeId>)],
    ) -> Result<bool, EngineError> {
        match expr {
            BoolExpr::And(a, b) => Ok(self.naive_where(a, env)? && self.naive_where(b, env)?),
            BoolExpr::Or(a, b) => Ok(self.naive_where(a, env)? || self.naive_where(b, env)?),
            BoolExpr::Not(e) => Ok(!self.naive_where(e, env)?),
            BoolExpr::Comparison(c) => match c {
                Comparison::NodeOrder { left, before, right } => {
                    let l = self.resolve_path(left, env)?;
                    let r = self.resolve_path(right, env)?;
                    match (l.first(), r.first()) {
                        (Some(&ln), Some(&rn)) => {
                            Ok(if *before {
                                self.doc.before(ln, rn)
                            } else {
                                self.doc.before(rn, ln)
                            })
                        }
                        _ => Ok(false),
                    }
                }
                Comparison::Value { left, op, right } => {
                    let l = self.resolve_path(left, env)?;
                    match right {
                        ValueOperand::Literal(lit) => Ok(l.iter().any(|&n| {
                            crate::value::node_vs_literal(&self.doc, n, *op, lit)
                        })),
                        ValueOperand::Path(rp) => {
                            let r = self.resolve_path(rp, env)?;
                            Ok(crate::value::sequences_compare(&self.doc, &l, *op, &r))
                        }
                    }
                }
                Comparison::DeepEqual { left, right } => {
                    let l = self.resolve_path(left, env)?;
                    let r = self.resolve_path(right, env)?;
                    Ok(crate::value::sequences_deep_equal(&self.doc, &l, &r))
                }
                Comparison::NodeIdentity { left, same, right } => {
                    let l = self.resolve_path(left, env)?;
                    let r = self.resolve_path(right, env)?;
                    Ok(match (l.first(), r.first()) {
                        (Some(&ln), Some(&rn)) => (ln == rn) == *same,
                        _ => false,
                    })
                }
                Comparison::Count { path, op, value } => {
                    let n = self.resolve_path(path, env)?.len() as f64;
                    Ok(op.eval(n.partial_cmp(value).unwrap_or(std::cmp::Ordering::Equal)))
                }
                Comparison::Exists { path, exists } => {
                    let n = self.resolve_path(path, env)?.len();
                    Ok((n > 0) == *exists)
                }
            },
        }
    }

    fn naive_construct(
        &self,
        builder: &mut blossom_xml::TreeBuilder,
        expr: &Expr,
        env: &[(String, Vec<NodeId>)],
    ) -> Result<(), EngineError> {
        match expr {
            Expr::Text(t) => {
                builder.text(t);
                Ok(())
            }
            Expr::Sequence(items) => {
                for i in items {
                    self.naive_construct(builder, i, env)?;
                }
                Ok(())
            }
            Expr::Constructor(c) => {
                builder.start_element(&c.name);
                for (k, v) in &c.attrs {
                    builder.attribute(k, v);
                }
                for child in &c.children {
                    self.naive_construct(builder, child, env)?;
                }
                builder.end_element();
                Ok(())
            }
            Expr::Path(p) => {
                for n in self.resolve_path(p, env)? {
                    env::copy_subtree(builder, &self.doc, n);
                }
                Ok(())
            }
            // A nested FLWOR is a correlated subquery: it sees the outer
            // environment (an extension beyond the paper's grammar, only
            // supported by the naive evaluator).
            Expr::Flwor(inner) => {
                for e in self.naive_envs(inner, env)? {
                    self.naive_construct(builder, &inner.ret, &e)?;
                }
                Ok(())
            }
        }
    }
}

/// Remove and return the elements of `v` matching `pred`.
fn drain_matching<T, F: Fn(&T) -> bool>(v: &mut Vec<T>, pred: F) -> Vec<T> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < v.len() {
        if pred(&v[i]) {
            out.push(v.remove(i));
        } else {
            i += 1;
        }
    }
    out
}

/// Does every `path op literal` atom of the where clause start at a
/// `for`-bound variable? Only those operands iterate per tuple, making
/// the BlossomTree's per-match value-constraint folding equivalent to
/// the existential where semantics.
fn where_literal_atoms_iterate(flwor: &Flwor) -> bool {
    let for_vars: FxHashSet<&str> = flwor
        .bindings
        .iter()
        .filter(|b| b.kind == blossom_flwor::BindingKind::For)
        .map(|b| b.var.as_str())
        .collect();
    fn walk(e: &BoolExpr, for_vars: &FxHashSet<&str>) -> bool {
        match e {
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                walk(a, for_vars) && walk(b, for_vars)
            }
            BoolExpr::Not(inner) => walk(inner, for_vars),
            BoolExpr::Comparison(Comparison::Value {
                left,
                right: ValueOperand::Literal(_),
                ..
            }) => matches!(&left.start, PathStart::Variable(v) if for_vars.contains(v.as_str())),
            BoolExpr::Comparison(_) => true,
        }
    }
    flwor.where_clause.as_ref().map_or(true, |w| walk(w, &for_vars))
}

/// Strip predicates from a path (used only to produce a plan explanation
/// for queries the pattern algebra rejects).
fn strip(path: &PathExpr) -> PathExpr {
    let mut p = path.clone();
    for s in &mut p.steps {
        s.predicates.clear();
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use blossom_xml::writer;

    const BIB: &str = r#"<bib>
        <book><title>Maximum Security</title></book>
        <book><title>The Art of Computer Programming</title>
              <author><last>Knuth</last><first>Donald</first></author></book>
        <book><title>Terrorist Hunter</title></book>
        <book><title>TeX Book</title>
              <author><last>Knuth</last><first>Donald</first></author></book>
    </bib>"#;

    const EXAMPLE1: &str = r#"<bib>{
        for $book1 in doc("bib.xml")//book,
            $book2 in doc("bib.xml")//book
        let $aut1 := $book1/author
        let $aut2 := $book2/author
        where $book1 << $book2
          and not($book1/title = $book2/title)
          and deep-equal($aut1, $aut2)
        return <book-pair>{ $book1/title }{ $book2/title }</book-pair>
    }</bib>"#;

    fn all_strategies() -> [Strategy; 4] {
        [
            Strategy::Navigational,
            Strategy::Pipelined,
            Strategy::BoundedNestedLoop,
            Strategy::NaiveNestedLoop,
        ]
    }

    #[test]
    fn example1_reproduces_example2_output() {
        let engine = Engine::from_xml(BIB).unwrap();
        // Both the naive evaluator and the BlossomTree pipeline must
        // produce the paper's Example 2 result (modulo the "Hunger" typo
        // in the paper's expected output, which we take as "Hunter").
        for strategy in [
            Strategy::Navigational,
            Strategy::Pipelined,
            Strategy::BoundedNestedLoop,
            Strategy::Auto,
        ] {
            let result = engine.eval_query_str(EXAMPLE1, strategy).unwrap();
            let text = writer::to_string(&result);
            assert_eq!(
                text,
                "<bib><book-pair><title>Maximum Security</title><title>Terrorist Hunter</title>\
                 </book-pair><book-pair><title>The Art of Computer Programming</title>\
                 <title>TeX Book</title></book-pair></bib>",
                "strategy {strategy}"
            );
        }
    }

    #[test]
    fn path_strategies_agree() {
        let engine = Engine::from_xml(BIB).unwrap();
        for q in [
            "//book/title",
            "//book[author]//last",
            "//book[//last]/title",
            "/bib/book/author",
            "//author//first",
        ] {
            let expected = engine.eval_path_str(q, Strategy::Navigational).unwrap();
            for s in [
                Strategy::Pipelined,
                Strategy::BoundedNestedLoop,
                Strategy::NaiveNestedLoop,
                Strategy::TwigStack,
                Strategy::Auto,
            ] {
                let got = engine.eval_path_str(q, s).unwrap();
                assert_eq!(got, expected, "query {q} strategy {s}");
            }
        }
    }

    #[test]
    fn path_strategies_agree_on_recursive_doc() {
        let engine =
            Engine::from_xml("<a><b/><a><b/><a><b/><c/></a></a><c/></a>").unwrap();
        for q in ["//a//b", "//a[//c]//b", "//a/b", "//a[//b][//c]"] {
            let expected = engine.eval_path_str(q, Strategy::Navigational).unwrap();
            for s in [
                Strategy::TwigStack,
                Strategy::BoundedNestedLoop,
                Strategy::NaiveNestedLoop,
                Strategy::Auto,
            ] {
                let got = engine.eval_path_str(q, s).unwrap();
                assert_eq!(got, expected, "query {q} strategy {s}");
            }
        }
    }

    #[test]
    fn auto_plan_explanations() {
        let flat = Engine::from_xml("<r><a><b/></a></r>").unwrap();
        assert_eq!(flat.explain_path("//a//b").unwrap().strategy, Strategy::Pipelined);
        // Same-tag nesting does not leave the flat pipeline.
        let rec = Engine::from_xml("<a><a><b/></a></a>").unwrap();
        let plan = rec.explain_path("//a//b").unwrap();
        assert_eq!(plan.strategy, Strategy::Pipelined);
        assert!(plan.to_string().contains("anc-semijoin/merge"), "{plan}");
        assert_eq!(
            rec.explain_path("//a[1]").unwrap().strategy,
            Strategy::Navigational
        );
        assert_eq!(
            rec.explain_path("//a/following::b").unwrap().strategy,
            Strategy::Navigational
        );
    }

    #[test]
    fn flwor_with_order_by() {
        let engine = Engine::from_xml(
            "<bib><book><title>zeta</title></book><book><title>alpha</title></book></bib>",
        )
        .unwrap();
        for s in all_strategies() {
            let out = engine
                .eval_query_str(
                    "for $b in //book order by $b/title return <t>{$b/title}</t>",
                    s,
                )
                .unwrap();
            let text = writer::to_string(&out);
            assert_eq!(
                text,
                "<result><t><title>alpha</title></t><t><title>zeta</title></t></result>",
                "strategy {s}"
            );
        }
    }

    #[test]
    fn flwor_nested_for() {
        let engine = Engine::from_xml(
            "<bib><book><title>A</title><author>x</author><author>y</author></book>\
             <book><title>B</title><author>z</author></book></bib>",
        )
        .unwrap();
        for s in all_strategies() {
            let out = engine
                .eval_query_str(
                    "for $b in //book for $a in $b/author return <p>{$a}</p>",
                    s,
                )
                .unwrap();
            let text = writer::to_string(&out);
            assert_eq!(
                text,
                "<result><p><author>x</author></p><p><author>y</author></p>\
                 <p><author>z</author></p></result>",
                "strategy {s}"
            );
        }
    }

    #[test]
    fn flwor_where_literal() {
        let engine = Engine::from_xml(
            "<bib><book><title>A</title><price>10</price></book>\
             <book><title>B</title><price>99</price></book></bib>",
        )
        .unwrap();
        for s in all_strategies() {
            let out = engine
                .eval_query_str(
                    "for $b in //book where $b/price < 50 return $b/title",
                    s,
                )
                .unwrap();
            assert_eq!(
                writer::to_string(&out),
                "<result><title>A</title></result>",
                "strategy {s}"
            );
        }
    }

    #[test]
    fn bare_path_query_wraps_results() {
        let engine = Engine::from_xml("<r><a>1</a><a>2</a></r>").unwrap();
        let out = engine.eval_query_str("//a", Strategy::Auto).unwrap();
        assert_eq!(writer::to_string(&out), "<result><a>1</a><a>2</a></result>");
    }

    #[test]
    fn errors_are_reported() {
        let engine = Engine::from_xml("<r/>").unwrap();
        assert!(engine.eval_path_str("//a[", Strategy::Auto).is_err());
        assert!(engine
            .eval_path_str("//a[2]", Strategy::TwigStack)
            .is_err());
        // An unbound variable only errors when an iteration reaches it.
        let engine2 = Engine::from_xml("<r><x/></r>").unwrap();
        assert!(engine2
            .eval_query_str("for $a in //x return $zzz", Strategy::Navigational)
            .is_err());
        assert!(engine
            .eval_query_str("for $a in //x return $zzz", Strategy::Navigational)
            .is_ok());
    }

    #[test]
    fn cartesian_product_of_unrelated_bindings() {
        let engine = Engine::from_xml("<r><a>1</a><a>2</a><b>3</b></r>").unwrap();
        for s in all_strategies() {
            let out = engine
                .eval_query_str(
                    "for $x in //a, $y in //b return <p>{$x}{$y}</p>",
                    s,
                )
                .unwrap();
            assert_eq!(
                writer::to_string(&out),
                "<result><p><a>1</a><b>3</b></p><p><a>2</a><b>3</b></p></result>",
                "strategy {s}"
            );
        }
    }
}

#[cfg(test)]
mod nested_flwor_tests {
    use super::*;
    use blossom_xml::writer;

    #[test]
    fn correlated_nested_flwor() {
        let engine = Engine::from_xml(
            "<bib><book><title>A</title><author>x</author><author>y</author></book>\
             <book><title>B</title><author>z</author></book></bib>",
        )
        .unwrap();
        // Inner FLWOR iterates the outer book's authors.
        let out = engine
            .eval_query_str(
                "for $b in //book return <entry>{$b/title}\
                 { for $a in $b/author order by $a return <by>{$a}</by> }</entry>",
                Strategy::Navigational,
            )
            .unwrap();
        assert_eq!(
            writer::to_string(&out),
            "<result><entry><title>A</title><by><author>x</author></by>\
             <by><author>y</author></by></entry>\
             <entry><title>B</title><by><author>z</author></by></entry></result>"
        );
    }

    #[test]
    fn auto_falls_back_to_naive_for_nested_flwor() {
        let engine =
            Engine::from_xml("<r><a><b>1</b></a><a><b>2</b></a></r>").unwrap();
        let out = engine
            .eval_query_str(
                "for $x in //a return <o>{ for $y in $x/b return <i>{$y}</i> }</o>",
                Strategy::Auto,
            )
            .unwrap();
        assert_eq!(
            writer::to_string(&out),
            "<result><o><i><b>1</b></i></o><o><i><b>2</b></i></o></result>"
        );
    }
}

#[cfg(test)]
mod for_under_let_tests {
    use super::*;
    use blossom_xml::writer;

    /// `for` over a let-bound sequence must iterate per item; the
    /// BlossomTree pipeline detects the nesting and delegates to the
    /// naive evaluator.
    #[test]
    fn for_under_let_matches_naive() {
        let engine = Engine::from_xml(
            "<r><a><b><c>1</c><c>2</c></b></a><a><b><c>3</c></b></a></r>",
        )
        .unwrap();
        let query =
            "for $x in //a let $y := $x/b for $z in $y/c return <i>{$z}</i>";
        let naive = engine.eval_query_str(query, Strategy::Navigational).unwrap();
        assert_eq!(
            writer::to_string(&naive),
            "<result><i><c>1</c></i><i><c>2</c></i><i><c>3</c></i></result>"
        );
        for strategy in [
            Strategy::Pipelined,
            Strategy::BoundedNestedLoop,
            Strategy::Auto,
        ] {
            let got = engine.eval_query_str(query, strategy).unwrap();
            assert_eq!(
                writer::to_string(&got),
                writer::to_string(&naive),
                "strategy {strategy}"
            );
        }
    }
}

#[cfg(test)]
mod plan_cache_tests {
    use super::*;

    #[test]
    fn repeated_queries_hit_the_cache() {
        let engine = Engine::from_xml("<r><a><b/></a><a/></r>").unwrap();
        assert_eq!(engine.cached_plan_count(), 0);
        let first = engine.eval_path_str("//a/b", Strategy::Auto).unwrap();
        assert_eq!(engine.cached_plan_count(), 1);
        let second = engine.eval_path_str("//a/b", Strategy::Auto).unwrap();
        assert_eq!(engine.cached_plan_count(), 1);
        assert_eq!(first, second);
        // A different strategy reuses the same cached plan.
        let third = engine.eval_path_str("//a/b", Strategy::Navigational).unwrap();
        assert_eq!(first, third);
        assert_eq!(engine.cached_plan_count(), 1);
        // Queries outside the pattern algebra are not cached.
        engine.eval_path_str("//a[1]", Strategy::Auto).unwrap();
        assert_eq!(engine.cached_plan_count(), 1);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let engine = Engine::from_xml("<r><a><b/></a></r>").unwrap();
        engine.eval_path_str("//a/b", Strategy::Auto).unwrap();
        engine.eval_path_str("//a/b", Strategy::Auto).unwrap();
        engine.eval_path_str("//a", Strategy::Auto).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.len, 2);
        assert_eq!(stats.capacity, EngineOptions::default().plan_cache_capacity);
    }

    #[test]
    fn cache_evicts_least_recently_used_plan() {
        let doc = Document::parse_str("<r><a/><b/><c/><d/></r>").unwrap();
        let engine = Engine::with_options(
            doc,
            EngineOptions { plan_cache_capacity: 2, ..EngineOptions::default() },
        );
        engine.eval_path_str("//a", Strategy::Auto).unwrap();
        engine.eval_path_str("//b", Strategy::Auto).unwrap();
        // Touch //a so //b becomes the least recently used entry.
        engine.eval_path_str("//a", Strategy::Auto).unwrap();
        engine.eval_path_str("//c", Strategy::Auto).unwrap();
        assert_eq!(engine.cached_plan_count(), 2);
        // //a survived the eviction, //b did not.
        let before = engine.cache_stats();
        engine.eval_path_str("//a", Strategy::Auto).unwrap();
        assert_eq!(engine.cache_stats().hits, before.hits + 1);
        engine.eval_path_str("//b", Strategy::Auto).unwrap();
        assert_eq!(engine.cache_stats().misses, before.misses + 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let doc = Document::parse_str("<r><a/></r>").unwrap();
        let engine = Engine::with_options(
            doc,
            EngineOptions { plan_cache_capacity: 0, ..EngineOptions::default() },
        );
        engine.eval_path_str("//a", Strategy::Auto).unwrap();
        engine.eval_path_str("//a", Strategy::Auto).unwrap();
        assert_eq!(engine.cached_plan_count(), 0);
        assert_eq!(engine.cache_stats().hits, 0);
    }

    #[test]
    fn one_shared_cache_serves_engines_over_different_documents() {
        // Cached entries carry a cost-based plan priced against one
        // document's statistics, so the cache keys on document identity:
        // the second engine's identical query text over a *different*
        // document is a miss (its own entry), never an aliased re-use.
        let a = Engine::from_xml("<r><a><b/></a></r>").unwrap();
        a.eval_path_str("//a/b", Strategy::Auto).unwrap();
        let cache = a.plan_cache();
        assert_eq!(cache.stats().misses, 1);

        let doc = Document::parse_str("<r><a><b/><b/></a><x/></r>").unwrap();
        let index = Arc::new(TagIndex::build(&doc));
        let stats = Arc::new(doc.stats());
        let b = Engine::with_shared(
            Arc::new(doc),
            index,
            stats,
            cache.clone(),
            EngineOptions::default(),
        );
        let nodes = b.eval_path_str("//a/b", Strategy::Auto).unwrap();
        assert_eq!(nodes.len(), 2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (0, 2, 2));
        // Re-evaluating on either engine hits that engine's own entry.
        a.eval_path_str("//a/b", Strategy::Auto).unwrap();
        b.eval_path_str("//a/b", Strategy::Auto).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (2, 2, 2));
    }

    fn skewed(commons: usize) -> String {
        let mut xml = String::from("<r><x><c/></x>");
        for _ in 0..commons {
            xml.push_str("<q><c/></q>");
        }
        xml.push_str("</r>");
        xml
    }

    #[test]
    fn per_document_keys_isolate_compiled_plans() {
        // Same query text, shared cache, two documents that intern `x`
        // and `c` in opposite order (and whose lists call for different
        // semi-join kernels): each engine must run the plan compiled for
        // its own document, or it joins the wrong posting lists.
        let kernel = |t: &QueryTrace| {
            let op = t.ops.iter().find(|o| o.op.contains("anc-semijoin")).expect("one cut edge");
            op.op.rsplit('/').next().unwrap().to_string()
        };
        let small = Engine::with_options(
            Document::parse_str("<r><c/><x><c/></x></r>").unwrap(),
            EngineOptions { trace: true, ..EngineOptions::default() },
        );
        let cache = small.plan_cache();
        let (nodes, t) = small.eval_path_traced("//x//c", Strategy::Auto).unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(kernel(&t), "merge", "{:?}", t.ops);

        let doc = Document::parse_str(&skewed(999)).unwrap();
        let index = Arc::new(TagIndex::build(&doc));
        let stats = Arc::new(doc.stats());
        let big = Engine::with_shared(
            Arc::new(doc),
            index,
            stats,
            cache.clone(),
            EngineOptions { trace: true, ..EngineOptions::default() },
        );
        let (nodes, t) = big.eval_path_traced("//x//c", Strategy::Auto).unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(kernel(&t), "probe", "{:?}", t.ops);
        // And the small engine still runs its own cached entry.
        let (nodes, t) = small.eval_path_traced("//x//c", Strategy::Auto).unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(kernel(&t), "merge", "{:?}", t.ops);
        assert!(t.cache.hits >= 1);
    }

    #[test]
    fn static_engines_ignore_the_cached_cost_plan() {
        // A cache entry holds the cost-based resolution with its ledger
        // of estimates; an engine with the cost planner off records none.
        let doc = Arc::new(Document::parse_str(&skewed(999)).unwrap());
        let index = Arc::new(TagIndex::build(&doc));
        let stats = Arc::new(doc.stats());
        let cost = Engine::with_shared(
            doc.clone(),
            index.clone(),
            stats.clone(),
            Arc::new(SharedPlanCache::new(8)),
            EngineOptions { trace: true, ..EngineOptions::default() },
        );
        let cache = cost.plan_cache();
        let (_, t) = cost.eval_path_traced("//x//c", Strategy::Auto).unwrap();
        assert_eq!(t.estimates.len(), 1, "{:?}", t.estimates);
        assert_eq!(t.estimates[0].actual_output, Some(1));
        assert!(t.plan_reason.contains("estimated"), "{}", t.plan_reason);
        let fixed = Engine::with_shared(
            doc,
            index,
            stats,
            cache,
            EngineOptions {
                trace: true,
                cost_based_planner: false,
                ..EngineOptions::default()
            },
        );
        // Same document, same cache entry: the strategy is structural,
        // the ledger stays behind.
        let (_, t) = fixed.eval_path_traced("//x//c", Strategy::Auto).unwrap();
        assert_eq!(t.resolved, Strategy::Pipelined, "{}", t.plan_reason);
        assert!(t.estimates.is_empty(), "{:?}", t.estimates);
    }
}

#[cfg(test)]
mod deadline_tests {
    use super::*;
    use std::time::Duration;

    /// A document whose three-way `for` product is large enough that the
    /// naive evaluator cannot finish before an already-expired deadline
    /// gets checked.
    fn cartesian_doc() -> String {
        let mut xml = String::from("<r>");
        for i in 0..60 {
            xml.push_str(&format!("<a>{i}</a>"));
        }
        xml.push_str("</r>");
        xml
    }

    fn expired_engine(xml: &str) -> Engine {
        Engine::with_options(
            Document::parse_str(xml).unwrap(),
            EngineOptions {
                deadline: Some(Instant::now() - Duration::from_millis(1)),
                ..EngineOptions::default()
            },
        )
    }

    #[test]
    fn expired_deadline_aborts_path_queries() {
        let engine = expired_engine("<r><a><b/></a></r>");
        let err = engine.eval_path_str("//a/b", Strategy::Auto).unwrap_err();
        assert!(matches!(err, EngineError::Deadline), "got {err}");
    }

    #[test]
    fn expired_deadline_aborts_the_naive_flwor_product() {
        let engine = expired_engine(&cartesian_doc());
        let err = engine
            .eval_query_str(
                "for $x in //a for $y in //a for $z in //a \
                 return <t>{$x}</t>",
                Strategy::Navigational,
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Deadline), "got {err}");
    }

    /// Under `Auto` the same product runs the flat FLWOR plan: an expired
    /// deadline aborts it without a fallback to the NestedList pipeline,
    /// and a deadline passing at any poll inside the run (between
    /// operators, per outer row of a join, per constructed tuple) aborts
    /// it there.
    #[test]
    fn expired_deadline_aborts_the_flat_flwor() {
        let query = "for $x in //a for $y in //a for $z in //a return <t>{$x}</t>";
        let engine = Engine::with_options(
            Document::parse_str(&cartesian_doc()).unwrap(),
            EngineOptions {
                trace: true,
                deadline: Some(Instant::now() - Duration::from_millis(1)),
                ..EngineOptions::default()
            },
        );
        let err = engine.eval_query_str(query, Strategy::Auto).unwrap_err();
        assert!(matches!(err, EngineError::Deadline), "got {err}");
        let (_, executed, fallbacks, _, _) = engine.obs.take();
        assert!(fallbacks.is_empty(), "{fallbacks:?}");
        assert_eq!(executed, Some(Strategy::Pipelined));

        let Expr::Flwor(flwor) = blossom_flwor::parse_query(query).unwrap() else {
            panic!("a FLWOR")
        };
        let plan = FlworPlan::compile(&flwor, &engine.doc, &engine.stats).unwrap();
        let polls = std::cell::Cell::new(0usize);
        let poll_until = |limit: usize| {
            polls.set(0);
            let poll = || {
                polls.set(polls.get() + 1);
                if polls.get() > limit {
                    Err(EngineError::Deadline)
                } else {
                    Ok(())
                }
            };
            plan.run(&engine.doc, &engine.index, &mut Document::builder(), None, &poll)
        };
        poll_until(usize::MAX).unwrap();
        let total = polls.get();
        assert!(total > 60 * 60 * 60, "one poll per constructed tuple: {total}");
        for limit in [0, 1, 60, 60 * 60, total / 2, total - 1] {
            let err = poll_until(limit).unwrap_err();
            assert!(matches!(err, EngineError::Deadline), "limit {limit}: {err}");
        }
    }

    #[test]
    fn auto_does_not_fall_back_on_a_deadline_abort() {
        // A capability error under Auto falls back to navigational; a
        // deadline abort must not — it would re-run the query after the
        // budget is spent.
        let engine = expired_engine("<r><a><b/></a></r>");
        let err = engine.eval_path_str("//a[b]", Strategy::Auto).unwrap_err();
        assert!(matches!(err, EngineError::Deadline), "got {err}");
    }

    #[test]
    fn no_deadline_never_aborts() {
        let engine = Engine::from_xml("<r><a><b/></a></r>").unwrap();
        assert!(engine.eval_path_str("//a/b", Strategy::Auto).is_ok());
    }

    #[test]
    fn future_deadline_lets_fast_queries_finish() {
        let engine = Engine::with_options(
            Document::parse_str("<r><a><b/></a></r>").unwrap(),
            EngineOptions {
                deadline: Some(Instant::now() + Duration::from_secs(60)),
                ..EngineOptions::default()
            },
        );
        assert_eq!(engine.eval_path_str("//a/b", Strategy::Auto).unwrap().len(), 1);
    }

    /// `set_deadline` re-arms a per-request view both ways: an engine
    /// built without a deadline aborts after one is installed, and
    /// clearing an expired deadline lets the same engine finish — the
    /// server's batch path relies on exactly this (member set fixed,
    /// then the evaluation deadline swapped to the latest member's).
    #[test]
    fn set_deadline_rearms_an_engine_view() {
        let mut engine = Engine::from_xml("<r><a><b/></a></r>").unwrap();
        assert!(engine.eval_path_str("//a/b", Strategy::Auto).is_ok());
        engine.set_deadline(Some(Instant::now() - Duration::from_millis(1)));
        let err = engine.eval_path_str("//a/b", Strategy::Auto).unwrap_err();
        assert!(matches!(err, EngineError::Deadline), "got {err}");
        engine.set_deadline(None);
        assert!(engine.eval_path_str("//a/b", Strategy::Auto).is_ok());
    }

    /// The serialized-bytes entry is exactly the CLI contract: the
    /// writer's rendering plus one newline, identical for path and
    /// FLWOR queries.
    #[test]
    fn eval_query_bytes_matches_the_serializer_contract() {
        let engine = Engine::from_xml("<bib><book><t>x</t></book></bib>").unwrap();
        for query in ["//book/t", "for $b in //book return <r>{$b/t}</r>"] {
            let (bytes, _trace) = engine.eval_query_bytes(query, Strategy::Auto).unwrap();
            let doc = engine.eval_query_str(query, Strategy::Auto).unwrap();
            let mut expected = blossom_xml::writer::to_string(&doc).into_bytes();
            expected.push(b'\n');
            assert_eq!(bytes, expected, "{query}");
        }
    }
}

#[cfg(test)]
mod parallel_engine_tests {
    use super::*;
    use blossom_xml::writer;

    /// A document big enough that every thread count actually splits the
    /// anchor stream into multiple partitions.
    fn wide_doc() -> String {
        let mut s = String::from("<bib>");
        for i in 0..200 {
            s.push_str(&format!(
                "<book><title>t{i}</title><author>a{}</author></book>",
                i % 7
            ));
        }
        s.push_str("</bib>");
        s
    }

    #[test]
    fn parallel_engine_matches_sequential_paths() {
        let xml = wide_doc();
        let seq = Engine::from_xml(&xml).unwrap();
        for threads in [2, 4, 8] {
            let par = Engine::with_options(
                Document::parse_str(&xml).unwrap(),
                EngineOptions { threads, ..EngineOptions::default() },
            );
            assert_eq!(par.threads(), threads);
            for q in ["//book/title", "//book[author]/title", "//book//author"] {
                for s in [Strategy::BoundedNestedLoop, Strategy::NaiveNestedLoop] {
                    let expected = seq.eval_path_str(q, s).unwrap();
                    let got = par.eval_path_str(q, s).unwrap();
                    assert_eq!(got, expected, "query {q} strategy {s} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn parallel_flwor_output_is_byte_identical() {
        let xml = wide_doc();
        let query = "for $b in //book where $b/author = \"a3\" \
                     return <hit>{$b/title}</hit>";
        let seq = Engine::from_xml(&xml).unwrap();
        let expected =
            writer::to_string(&seq.eval_query_str(query, Strategy::Auto).unwrap());
        assert!(expected.contains("<hit>"));
        for threads in [2, 4, 8] {
            let par = Engine::with_options(
                Document::parse_str(&xml).unwrap(),
                EngineOptions { threads, ..EngineOptions::default() },
            );
            let got =
                writer::to_string(&par.eval_query_str(query, Strategy::Auto).unwrap());
            assert_eq!(got, expected, "threads {threads}");
        }
    }
}

#[cfg(test)]
mod sort_order_tests {
    use super::*;
    use blossom_xml::writer;

    #[test]
    fn descending_order_by() {
        let engine = Engine::from_xml(
            "<bib><book><t>m</t></book><book><t>a</t></book><book><t>z</t></book></bib>",
        )
        .unwrap();
        let query = "for $b in //book order by $b/t descending return $b/t";
        for strategy in [
            Strategy::Navigational,
            Strategy::Pipelined,
            Strategy::BoundedNestedLoop,
        ] {
            let out = engine.eval_query_str(query, strategy).unwrap();
            assert_eq!(
                writer::to_string(&out),
                "<result><t>z</t><t>m</t><t>a</t></result>",
                "strategy {strategy}"
            );
        }
    }
}

#[cfg(test)]
mod estimate_tests {
    use super::*;

    const FLWOR: &str = "for $c in //x//c return $c";

    /// A document engineered to make the estimator underestimate: 33
    /// decoy tags outrank `x` in the frequent-tag set, so the `(x, c)`
    /// containment pair is untracked and priced by independence — tiny —
    /// while in reality every `c` lives under an `x`.
    fn underestimated_doc() -> String {
        let mut xml = String::from("<r>");
        for d in 0..33 {
            for _ in 0..6 {
                xml.push_str(&format!("<d{d}/>"));
            }
        }
        for _ in 0..5 {
            xml.push_str("<x>");
            for _ in 0..3000 {
                xml.push_str("<c/>");
            }
            xml.push_str("</x>");
        }
        xml.push_str("</r>");
        xml
    }

    /// The FLWOR runs its flat plan whatever the estimates say: no
    /// fallback, one counter row per operator, the navigational bytes.
    #[test]
    fn flwor_runs_flat_on_the_underestimated_document() {
        let engine = Engine::with_options(
            Document::parse_str(&underestimated_doc()).unwrap(),
            EngineOptions { trace: true, ..EngineOptions::default() },
        );
        let (out, trace) = engine.eval_query_traced(FLWOR, Strategy::Auto).unwrap();
        assert!(trace.fallbacks.is_empty(), "{:?}", trace.fallbacks);
        assert_eq!(trace.executed, Strategy::Pipelined);
        assert!(trace.ops.iter().any(|o| o.op.ends_with(" construct")), "{:?}", trace.ops);
        let nav = engine.eval_query_str(FLWOR, Strategy::Navigational).unwrap();
        assert_eq!(out.len(), 15000 + 2, "15000 <c/> under <result>, plus the document node");
        assert_eq!(blossom_xml::writer::to_string(&out), blossom_xml::writer::to_string(&nav));
    }

    #[test]
    fn path_queries_record_estimated_and_actual_output() {
        let engine = Engine::with_options(
            Document::parse_str(&underestimated_doc()).unwrap(),
            EngineOptions { trace: true, ..EngineOptions::default() },
        );
        let (nodes, trace) = engine.eval_path_traced("//x//c", Strategy::Auto).unwrap();
        assert_eq!(nodes.len(), 15000);
        assert!(trace.fallbacks.is_empty(), "{:?}", trace.fallbacks);
        assert_eq!(trace.executed, trace.resolved);
        assert_eq!(trace.estimates[0].actual_output, Some(5));
        assert!(!trace.estimates[0].replanned);
    }

    /// Each `for` column keeps its own flat operator rows, labelled by
    /// the FLWOR operator that ran them.
    #[test]
    fn flwor_columns_keep_separate_operator_rows() {
        let engine = Engine::with_options(
            Document::parse_str("<r><x><c/></x><q/><q/></r>").unwrap(),
            EngineOptions { trace: true, ..EngineOptions::default() },
        );
        let (out, trace) = engine
            .eval_query_traced("for $a in //x//c, $b in //q return <p>{$a}</p>", Strategy::Auto)
            .unwrap();
        assert_eq!(blossom_xml::writer::to_string(&out), "<result><p><c/></p><p><c/></p></result>");
        let product = trace.ops.iter().find(|o| o.op.ends_with(" product")).expect("a product");
        assert_eq!(product.counters.output, 2);
        let scans: Vec<&str> =
            trace.ops.iter().filter(|o| o.op.ends_with(" scan")).map(|o| o.op.as_str()).collect();
        assert_eq!(scans.len(), 3, "x, c and q scans: {:?}", trace.ops);
    }

    /// A FLWOR outside the flat algebra (here a context-relative path in
    /// `return`) runs the NestedList pipeline under `Auto`, which records
    /// one estimated-vs-actual row per component.
    #[test]
    fn flwor_traces_carry_per_component_estimates() {
        let engine = Engine::with_options(
            Document::parse_str("<r><x><c/></x><q/><q/></r>").unwrap(),
            EngineOptions { trace: true, ..EngineOptions::default() },
        );
        let query = "for $a in //x//c, $b in //q return <p>{$a}{c}</p>";
        let (out, trace) = engine.eval_query_traced(query, Strategy::Auto).unwrap();
        assert_eq!(trace.fallbacks.len(), 1, "{:?}", trace.fallbacks);
        assert!(trace.fallbacks[0].reason.contains("context-relative"), "{:?}", trace.fallbacks);
        assert_eq!(trace.estimates.len(), 2, "{:?}", trace.estimates);
        assert!(trace.estimates.iter().all(|e| e.actual_output.is_some()));
        assert_eq!(trace.estimates[0].actual_output, Some(1));
        assert_eq!(trace.estimates[1].actual_output, Some(2));
        let nav = engine.eval_query_str(query, Strategy::Navigational).unwrap();
        assert_eq!(blossom_xml::writer::to_string(&out), blossom_xml::writer::to_string(&nav));
    }

    /// A variable bound twice is outside the BlossomTree too: `Auto`
    /// evaluates it navigationally, where the later binding shadows.
    #[test]
    fn a_rebound_variable_shadows_under_auto() {
        let engine = Engine::from_xml("<r><x><c/></x><q/><q/></r>").unwrap();
        let query = "for $a in //x//c, $b in //q let $a := $b return <p>{$a}</p>";
        let out = engine.eval_query_str(query, Strategy::Auto).unwrap();
        let nav = engine.eval_query_str(query, Strategy::Navigational).unwrap();
        assert_eq!(blossom_xml::writer::to_string(&out), "<result><p><q/></p><p><q/></p></result>");
        assert_eq!(blossom_xml::writer::to_string(&out), blossom_xml::writer::to_string(&nav));
    }

    #[test]
    fn all_strategies_agree_on_the_underestimated_document() {
        let xml = underestimated_doc();
        let auto = Engine::from_xml(&xml).unwrap();
        let expected = auto.eval_path_str("//x//c", Strategy::Navigational).unwrap();
        for strategy in [
            Strategy::Auto,
            Strategy::Pipelined,
            Strategy::BoundedNestedLoop,
            Strategy::NaiveNestedLoop,
            Strategy::TwigStack,
        ] {
            assert_eq!(
                auto.eval_path_str("//x//c", strategy).unwrap(),
                expected,
                "strategy {strategy}"
            );
        }
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;

    #[test]
    fn explain_flwor_reports_plan() {
        let engine = Engine::from_xml(
            "<bib><book><title>t</title><author>a</author></book></bib>",
        )
        .unwrap();
        let report = engine
            .explain_query(
                r#"for $b1 in //book, $b2 in //book
                   where $b1 << $b2 and deep-equal($b1/author, $b2/author)
                   return <p>{$b1/title}</p>"#,
            )
            .unwrap();
        assert!(report.contains("BlossomTree"), "{report}");
        assert!(report.contains("crossing edges:"), "{report}");
        assert!(report.contains("<<"), "{report}");
        assert!(report.contains("2 NoK tree(s)"), "{report}");
        assert!(report.contains("strategy:"), "{report}");
    }

    #[test]
    fn explain_falls_back_for_unsupported_where() {
        let engine = Engine::from_xml("<r><a><b/></a></r>").unwrap();
        let report = engine
            .explain_query("for $x in //a where $x/b = 1 or $x/b = 2 return $x")
            .unwrap();
        assert!(report.contains("naive per-iteration"), "{report}");
        // `count()` is outside the BlossomTree but inside the flat plan.
        let report = engine
            .explain_query("for $x in //a where count($x/b) > 0 return $x")
            .unwrap();
        assert!(report.contains("flat plan (auto):"), "{report}");
        assert!(report.contains("filter"), "{report}");
    }

    #[test]
    fn explain_path_query_via_explain_query() {
        let engine = Engine::from_xml("<r><a><b/></a></r>").unwrap();
        let report = engine.explain_query("//a//b").unwrap();
        assert!(report.contains("pipelined"), "{report}");
        assert!(report.contains("operators:"), "{report}");
    }
}

#[cfg(test)]
mod value_query_tests {
    use super::*;

    #[test]
    fn attribute_and_string_values() {
        let engine = Engine::from_xml(
            r#"<bib><book year="1994"><title>TCP/IP</title></book>
               <book year="2000"><title>Data</title></book>
               <book><title>NoYear</title></book></bib>"#,
        )
        .unwrap();
        let years = engine
            .eval_path_values("//book/@year", Strategy::Auto)
            .unwrap();
        assert_eq!(years, vec!["1994", "2000"]);
        let titles = engine
            .eval_path_values("//book/title", Strategy::Auto)
            .unwrap();
        assert_eq!(titles, vec!["TCP/IP", "Data", "NoYear"]);
        // Filtered owners.
        let filtered = engine
            .eval_path_values(r#"//book[title = "Data"]/@year"#, Strategy::Auto)
            .unwrap();
        assert_eq!(filtered, vec!["2000"]);
        // Attribute mid-path is rejected, not silently empty.
        assert!(engine
            .eval_path_values("//@year/title", Strategy::Auto)
            .is_err());
    }
}

#[cfg(test)]
mod multi_key_order_tests {
    use super::*;
    use blossom_xml::writer;

    #[test]
    fn two_keys_with_mixed_directions() {
        let engine = Engine::from_xml(
            "<r><i><g>2</g><n>b</n></i><i><g>1</g><n>z</n></i>\
             <i><g>2</g><n>a</n></i><i><g>1</g><n>y</n></i></r>",
        )
        .unwrap();
        let query = "for $i in //i order by $i/g descending, $i/n return <o>{$i/n}</o>";
        let expected = "<result><o><n>a</n></o><o><n>b</n></o>\
                        <o><n>y</n></o><o><n>z</n></o></result>";
        for strategy in [
            Strategy::Navigational,
            Strategy::Pipelined,
            Strategy::BoundedNestedLoop,
        ] {
            let out = engine.eval_query_str(query, strategy).unwrap();
            assert_eq!(writer::to_string(&out), expected, "strategy {strategy}");
        }
    }
}
