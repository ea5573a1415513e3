//! Planner scoring harness: cost-based planner vs. best-of-matrix oracle.
//! Writes `BENCH_planner.json`.
//!
//! Three sections:
//!
//! 1. **Table-3 matrix** — every dataset × query cell is timed under each
//!    explicit strategy that evaluates it correctly (the *oracle* keeps
//!    the fastest cell, the same best-of-matrix idea the diff harness
//!    tallies executed strategies against), then under `Strategy::Auto`
//!    with the cost-based planner. The report carries the per-cell ratio
//!    planner/oracle and an aggregate; the target is staying within 10%
//!    of oracle-best overall.
//! 2. **Adversarial skewed document** — one rare anchor next to a sea
//!    of common descendants (`//x//c`, one answer). The flat pipeline
//!    chooses each semi-join's kernel from the lengths of its two lists,
//!    so `Auto` gallops into the long list; it is timed in interleaved
//!    rounds against the forced merge (`Strategy::Pipelined`), which
//!    sweeps the whole list, and the forced probe.
//!
//! 3. **A cut edge outside the flat pipeline** — `//a/following::b`, the
//!    one path shape `Auto` does not run on the flat operators: the
//!    navigational walk it resolves to is raced against both NestedList
//!    nested loops (what the forced flat strategies are rewritten to, and
//!    the naive reference).
//!
//! Every timed comparison is verified first: all strategies and both
//! planner modes must return byte-identical results.
//!
//! ```text
//! cargo run --release -p blossom-bench --bin planner -- \
//!     [--scale 0.05] [--seed 42] [--rounds 3] [--out BENCH_planner.json]
//! ```

use blossom_bench::timing::{self, Json};
use blossom_bench::{queries, Args};
use blossom_core::{Engine, EngineOptions, Strategy};
use blossom_xml::Document;
use blossom_xmlgen::{generate_scaled, Dataset};
use std::collections::BTreeMap;

/// The explicit strategies the oracle races (NaiveNestedLoop is excluded:
/// it is dominated by BNLJ by construction and can be quadratic).
const CANDIDATES: [(&str, Strategy); 5] = [
    ("nav", Strategy::Navigational),
    ("twigstack", Strategy::TwigStack),
    ("pathstack", Strategy::PathStack),
    ("pipelined", Strategy::Pipelined),
    ("bnlj", Strategy::BoundedNestedLoop),
];

/// The non-flat candidates for a cut edge the flat pipeline has no
/// semi-join for (forced `pipelined` is rewritten to `bnlj` there).
const NON_FLAT: [(&str, Strategy); 3] = [
    ("nav", Strategy::Navigational),
    ("bnlj", Strategy::BoundedNestedLoop),
    ("nlj", Strategy::NaiveNestedLoop),
];

/// `n` sections of `<s><a><x/></a><b/><c><b/></c></s>`: every `a` has
/// `b`s following it at two depths, in its own and every later section.
fn following_doc(n: usize) -> String {
    format!("<r>{}</r>", "<s><a><x/></a><b/><c><b/></c></s>".repeat(n))
}

/// Race `candidates` on `query` — every one that reproduces the
/// navigational result — and return the timed cells with the fastest
/// candidate's label and time (the *oracle*).
fn race(
    engine: &Engine,
    name: &str,
    query: &str,
    candidates: &[(&str, Strategy)],
    rounds: u32,
) -> (Vec<Json>, String, f64) {
    let want = engine.eval_path_str(query, Strategy::Navigational).expect("navigational reference");
    let mut cells = Vec::new();
    let (mut oracle_strategy, mut oracle_s) = ("nav".to_string(), f64::INFINITY);
    for &(label, strategy) in candidates {
        match engine.eval_path_str(query, strategy) {
            Ok(got) if got == want => {}
            _ => continue, // not applicable to this query
        }
        let s = timing::time(&format!("{name}-{label}"), 1, rounds, || {
            engine.eval_path_str(query, strategy).unwrap().len()
        });
        let min_s = s.min.as_secs_f64();
        if min_s < oracle_s {
            oracle_s = min_s;
            oracle_strategy = label.to_string();
        }
        cells.push(Json::obj([("strategy", Json::str(label)), ("min_s", Json::Num(min_s))]));
    }
    (cells, oracle_strategy, oracle_s)
}

/// `Auto` on `query`, checked against the navigational result and timed:
/// seconds, the strategy it executed (from the traced twin engine) and
/// the result size.
fn time_auto(
    engine: &Engine,
    traced: &Engine,
    name: &str,
    query: &str,
    rounds: u32,
) -> (f64, String, usize) {
    let want = engine.eval_path_str(query, Strategy::Navigational).expect("navigational reference");
    let got = engine.eval_path_str(query, Strategy::Auto).expect("auto");
    assert_eq!(got, want, "{name}: auto disagrees with reference");
    let s = timing::time(&format!("{name}-planner"), 1, rounds, || {
        engine.eval_path_str(query, Strategy::Auto).unwrap().len()
    });
    let (_, trace) = traced.eval_path_traced(query, Strategy::Auto).unwrap();
    (s.min.as_secs_f64(), trace.executed.to_string(), want.len())
}

/// Geometric mean of the ratios.
fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

/// The rare-anchor document: `n` identical `q` subtrees, then one `x`
/// subtree. `//x//c` has one answer; a merge sweeps the full `c` posting
/// list to reach it (an anchor at the front would end the sweep at once)
/// while a single bounded probe suffices.
fn skewed_anchor_doc(n: usize) -> String {
    let mut s = String::with_capacity(n * 12 + 32);
    s.push_str("<r>");
    for _ in 0..n {
        s.push_str("<q><c/></q>");
    }
    s.push_str("<x><c/></x></r>");
    s
}

/// The adversarial comparison: `Auto`'s per-edge kernel against each
/// forced kernel on the same document, interleaved timing.
fn adversarial_entry(name: &str, xml: &str, query: &str, rounds: u32) -> (Json, f64) {
    let engine = Engine::new(Document::parse_str(xml).expect("adversarial doc"));
    let want = engine.eval_path_str(query, Strategy::Auto).expect("auto eval");
    for forced in [Strategy::Pipelined, Strategy::BoundedNestedLoop] {
        assert_eq!(
            want,
            engine.eval_path_str(query, forced).expect("forced eval"),
            "{name}: {forced} disagrees with auto"
        );
    }
    let plan = engine.explain_path(query).expect("explain").to_string();
    let (s_auto, s_merge) = timing::time_pair(
        &format!("{name}-auto"),
        &format!("{name}-merge"),
        1,
        rounds,
        || engine.eval_path_str(query, Strategy::Auto).unwrap().len(),
        || engine.eval_path_str(query, Strategy::Pipelined).unwrap().len(),
    );
    let s_probe = timing::time(&format!("{name}-probe"), 1, rounds, || {
        engine.eval_path_str(query, Strategy::BoundedNestedLoop).unwrap().len()
    });
    let speedup = s_merge.min.as_secs_f64() / s_auto.min.as_secs_f64().max(1e-12);
    eprintln!(
        "  {name}: auto {:.3}ms vs forced merge {:.3}ms ({speedup:.2}x), forced probe {:.3}ms",
        s_auto.min.as_secs_f64() * 1e3,
        s_merge.min.as_secs_f64() * 1e3,
        s_probe.min.as_secs_f64() * 1e3,
    );
    let entry = Json::obj([
        ("name", Json::str(name)),
        ("query", Json::str(query)),
        ("result_count", Json::Num(want.len() as f64)),
        ("auto_probes", Json::Bool(plan.contains("semijoin/probe"))),
        ("auto_s", Json::Num(s_auto.min.as_secs_f64())),
        ("forced_merge_s", Json::Num(s_merge.min.as_secs_f64())),
        ("forced_probe_s", Json::Num(s_probe.min.as_secs_f64())),
        ("speedup", Json::Num(speedup)),
    ]);
    (entry, speedup)
}

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale").unwrap_or(0.05);
    let seed: u64 = args.get("seed").unwrap_or(42);
    let rounds: u32 = args.get("rounds").unwrap_or(3);
    let out: String =
        args.get("out").unwrap_or_else(|| "BENCH_planner.json".to_string());

    let mut matrix = Vec::new();
    let mut ratios = Vec::new();
    let mut total_planner = 0.0f64;
    let mut total_oracle = 0.0f64;
    let mut tallies: BTreeMap<String, u64> = BTreeMap::new();
    let mut oracle_tallies: BTreeMap<String, u64> = BTreeMap::new();

    for ds in Dataset::all() {
        eprintln!("generating {} (scale {scale}) ...", ds.name());
        // Timing engine (counters off) plus a traced twin of the same
        // generated document for executed-strategy capture.
        let engine = Engine::new(generate_scaled(ds, scale, seed));
        let traced = Engine::with_options(
            generate_scaled(ds, scale, seed),
            EngineOptions { trace: true, ..EngineOptions::default() },
        );
        for q in queries(ds) {
            let name = format!("{}-{}", ds.name(), q.id);
            // Oracle: fastest explicit strategy that reproduces the
            // navigational result (always applicable and spec-direct).
            let (cells, oracle_strategy, oracle_s) =
                race(&engine, &name, q.path, &CANDIDATES, rounds);
            // Planner-picked: Auto under the cost-based planner.
            let (planner_s, executed, result_count) =
                time_auto(&engine, &traced, &name, q.path, rounds);
            *tallies.entry(executed.clone()).or_insert(0) += 1;
            *oracle_tallies.entry(oracle_strategy.clone()).or_insert(0) += 1;

            let ratio = planner_s / oracle_s.max(1e-12);
            ratios.push(ratio);
            total_planner += planner_s;
            total_oracle += oracle_s;
            eprintln!(
                "  {} {} ({}): planner {} {:.3}ms vs oracle {} {:.3}ms — ratio {:.3}",
                ds.name(),
                q.id,
                q.category,
                executed,
                planner_s * 1e3,
                oracle_strategy,
                oracle_s * 1e3,
                ratio,
            );
            matrix.push(Json::obj([
                ("dataset", Json::str(ds.name())),
                ("query", Json::str(q.id)),
                ("category", Json::str(q.category)),
                ("result_count", Json::Num(result_count as f64)),
                ("planner_s", Json::Num(planner_s)),
                ("planner_executed", Json::str(executed)),
                ("oracle_s", Json::Num(oracle_s)),
                ("oracle_strategy", Json::str(oracle_strategy)),
                ("ratio", Json::Num(ratio)),
                ("cells", Json::Arr(cells)),
            ]));
        }
    }

    let total_ratio = total_planner / total_oracle.max(1e-12);
    let gm = geomean(&ratios);
    eprintln!(
        "matrix: planner/oracle total {total_ratio:.3}, geomean {gm:.3} \
         over {} cells",
        ratios.len()
    );

    eprintln!("adversarial workload ...");
    // Sized so the forced merge's sweep is decisively measurable but the
    // whole harness still runs at CI scale.
    let (entry, best_speedup) =
        adversarial_entry("skewed-anchor", &skewed_anchor_doc(100_000), "//x//c", rounds);
    let adversarial = vec![entry];

    eprintln!("a cut edge outside the flat pipeline ...");
    let sections = ((30_000.0 * scale) as usize).max(200);
    let query = "//a/following::b";
    let xml = following_doc(sections);
    let engine = Engine::new(Document::parse_str(&xml).expect("following doc"));
    let traced = Engine::with_options(
        Document::parse_str(&xml).expect("following doc"),
        EngineOptions { trace: true, ..EngineOptions::default() },
    );
    let (cells, oracle_strategy, oracle_s) = race(&engine, "following", query, &NON_FLAT, rounds);
    let (planner_s, executed, result_count) =
        time_auto(&engine, &traced, "following", query, rounds);
    eprintln!(
        "  {query} over {sections} sections: planner {executed} {:.1}ms vs oracle \
         {oracle_strategy} {:.1}ms",
        planner_s * 1e3,
        oracle_s * 1e3,
    );
    let following = Json::obj([
        ("query", Json::str(query)),
        ("sections", Json::Num(sections as f64)),
        ("result_count", Json::Num(result_count as f64)),
        ("planner_s", Json::Num(planner_s)),
        ("planner_executed", Json::str(executed)),
        ("oracle_s", Json::Num(oracle_s)),
        ("oracle_strategy", Json::str(oracle_strategy)),
        ("ratio", Json::Num(planner_s / oracle_s.max(1e-12))),
        ("cells", Json::Arr(cells)),
    ]);

    let report = Json::obj([
        ("bench", Json::str("planner")),
        ("scale", Json::Num(scale)),
        ("seed", Json::Num(seed as f64)),
        ("rounds", Json::Num(f64::from(rounds))),
        ("matrix", Json::Arr(matrix)),
        (
            "matrix_summary",
            Json::obj([
                ("cells", Json::Num(ratios.len() as f64)),
                ("planner_total_s", Json::Num(total_planner)),
                ("oracle_total_s", Json::Num(total_oracle)),
                ("total_ratio", Json::Num(total_ratio)),
                ("geomean_ratio", Json::Num(gm)),
                ("within_10pct_of_oracle", Json::Bool(total_ratio <= 1.10)),
            ]),
        ),
        (
            "executed_tally",
            Json::Obj(
                tallies
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "oracle_tally",
            Json::Obj(
                oracle_tallies
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ),
        ("adversarial", Json::Arr(adversarial)),
        ("following_cut", following),
        (
            "adversarial_summary",
            Json::obj([
                ("best_speedup", Json::Num(best_speedup)),
                ("meets_1_5x", Json::Bool(best_speedup >= 1.5)),
            ]),
        ),
    ]);
    timing::write_report(&out, &report).expect("write report");
    println!("wrote {out}");
    if total_ratio > 1.10 {
        eprintln!(
            "warning: planner total latency exceeds oracle-best by more than 10%"
        );
    }
}
