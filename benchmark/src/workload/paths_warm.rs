//! `paths-warm`: the 30-cell Table 3 matrix, in process, closed loop, one
//! thread, plan cache warm. One op = `eval_path_str(q, Auto)` plus
//! serialising the result nodes to the bytes the CLI prints. The `core`
//! operators do nearly all the work; the XML parser, the server and (in
//! the primary window) storage do none. The second class of operations
//! (`alt_p50_us`) is the same matrix over memory-mapped BLM2 columns.

use super::{closed_loop_metrics, metric, peak_rss_mb, window, Config, Metric, Outcome, Samples};
use crate::docset::{oracle_mismatches, DocSet};
use crate::inputs::{fnv64, CELLS};
use crate::json::Json;
use crate::span::{fold, unattributed_ratio, Probe};
use crate::stats;
use crate::sut;
use std::time::Instant;

pub const NODES: usize = 100_000;
/// Documents the forced-strategy sweeps run on: small enough that the
/// quadratic strategies finish inside a traced run's budget.
const FORCED_NODES: usize = 10_000;
/// Share of the window given to the primary class; the rest goes to `alt`.
const PRIMARY_SHARE: f64 = 0.7;

pub struct State {
    set: DocSet,
    owned: Vec<sut::Sut>,
    mapped: Vec<sut::Sut>,
    /// Checks made while setting up (oracle, warm-up sweep) and how many
    /// of them disagreed.
    setup_checked: u64,
    setup_failed: u64,
}

pub fn setup(cfg: &Config, probe: &mut Probe) -> State {
    let set = DocSet::build(cfg, cfg.nodes(NODES), probe);
    let mut mapped_parts = Vec::new();
    for (name, parts) in set.names.iter().zip(&set.parts) {
        let bytes = probe.call("storage.snapshot.encode", || sut::encode_snapshot(parts));
        let path = cfg.work.join(format!("{name}.blm2"));
        std::fs::write(&path, &bytes).expect("work directory is writable");
        mapped_parts.push(probe.call("storage.snapshot.open_map", || {
            sut::open_snapshot(&path, true)
        }));
    }
    let owned: Vec<sut::Sut> = set.parts.iter().map(|p| sut::Sut::new(p, false)).collect();
    let mapped: Vec<sut::Sut> = mapped_parts
        .iter()
        .map(|p| sut::Sut::new(p, false))
        .collect();
    let mut state = State {
        set,
        owned,
        mapped,
        setup_checked: CELLS.len() as u64,
        setup_failed: 0,
    };
    state.setup_failed = probe.call("setup.oracle", || oracle_mismatches(cfg));
    // The warm-up sweep: fills both plan caches and checks the default
    // strategy against the navigational answers on both column kinds.
    probe.call("setup.warm", || {
        let mut off = Probe::new(false, None);
        for mapped in [false, true] {
            let mut s = Samples::new(CELLS.len());
            let (checked, failed) = state.round(mapped, &mut off, &mut s);
            state.setup_checked += checked;
            state.setup_failed += failed;
        }
    });
    state
}

impl State {
    /// One pass over the 30 cells; returns (attempted, failed).
    fn round(&self, mapped: bool, probe: &mut Probe, samples: &mut Samples) -> (u64, u64) {
        let engines = if mapped { &self.mapped } else { &self.owned };
        let auto = sut::strategy("auto");
        let mut buf = String::new();
        let mut failed = 0;
        for (i, cell) in CELLS.iter().enumerate() {
            let engine = &engines[self.set.doc_of(cell)];
            let start = Instant::now();
            let ok = probe.op(|p| {
                let Ok(nodes) = p.call("core.engine", || engine.eval_path(cell.query, auto)) else {
                    return false;
                };
                buf.clear();
                p.call("xml.writer", || {
                    sut::write_result(engine.doc(), &nodes, &mut buf)
                });
                true
            });
            samples.push(i, start.elapsed());
            // Checked outside the timed interval.
            if !ok || fnv64(buf.as_bytes()) != self.set.expected[i] {
                failed += 1;
            }
        }
        (CELLS.len() as u64, failed)
    }

    fn window(&self, mapped: bool, budget: f64, probe: &mut Probe) -> (Samples, u64, u64) {
        window(CELLS.len(), budget, |samples| {
            self.round(mapped, probe, samples)
        })
    }
}

pub fn measure(state: &State, cfg: &Config, seconds: f64, probe: &mut Probe) -> Outcome {
    let (primary, a1, f1) = state.window(false, seconds * PRIMARY_SHARE, probe);
    let (alt, a2, f2) = state.window(true, seconds * (1.0 - PRIMARY_SHARE), probe);
    Outcome {
        attempted: a1 + a2 + state.setup_checked,
        failed: f1 + f2 + state.setup_failed,
        metrics: closed_loop_metrics(
            &primary,
            &alt,
            a1 - f1,
            primary.busy_s(),
            peak_rss_mb("self"),
            state.set.heap_bytes() as f64 / state.set.xml_bytes() as f64,
        ),
        notes: vec![
            ("samples".to_string(), primary.count() as f64),
            ("alt_samples".to_string(), alt.count() as f64),
            ("nodes_per_doc".to_string(), cfg.nodes(NODES) as f64),
            ("op_list_hash".to_string(), op_list_hash(state) as f64),
        ],
    }
}

/// A hash of the operation list and of what it must return: equal for
/// equal seeds, different for different ones. (Kept to 52 bits so it
/// survives a JSON number.)
pub fn op_list_hash(state: &State) -> u64 {
    let mut text = String::new();
    for (cell, want) in CELLS.iter().zip(&state.set.expected) {
        text.push_str(&format!("{} {} {want:016x}\n", cell.name(), cell.query));
    }
    fnv64(text.as_bytes()) >> 12
}

/// Exact operator counts of one pass over the matrix under the default
/// strategy, from the product's profile JSON.
pub fn op_counts(state: &State) -> Vec<(&'static str, u64)> {
    let engines: Vec<sut::Sut> = state
        .set
        .parts
        .iter()
        .map(|p| sut::Sut::new(p, true))
        .collect();
    let auto = sut::strategy("auto");
    let mut totals = [0u64; 5];
    let (mut fallbacks, mut replans) = (0u64, 0u64);
    const KEYS: [&str; 5] = ["scanned", "skipped", "pushes", "matches", "output"];
    for cell in &CELLS {
        let engine = &engines[state.set.doc_of(cell)];
        let (_, profile) = engine
            .profile_path(cell.query, auto)
            .expect("frozen cell evaluates");
        let profile = Json::parse(&profile).expect("profile JSON parses");
        for (slot, key) in totals.iter_mut().zip(KEYS) {
            *slot += profile
                .at(&["totals", key])
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64;
        }
        fallbacks += profile
            .get("fallbacks")
            .and_then(Json::as_arr)
            .map_or(0, |a| a.len() as u64);
        replans += profile
            .get("estimates")
            .and_then(Json::as_arr)
            .map_or(0, |a| {
                a.iter()
                    .filter(|e| e.get("replanned").and_then(Json::as_bool) == Some(true))
                    .count() as u64
            });
    }
    let mut out: Vec<(&'static str, u64)> = KEYS.iter().copied().zip(totals).collect();
    out.push(("fallbacks", fallbacks));
    out.push(("replans", replans));
    out
}

/// The traced pass: an untraced reference window, a traced window, then
/// the probes of the layers this workload owns.
pub fn layers(state: &State, cfg: &Config, budget: f64, probe: &mut Probe) -> Outcome {
    let mut out = Vec::new();
    let mut off = Probe::new(false, cfg.inject.clone());
    let (reference, a1, f1) = state.window(false, budget * 0.3, &mut off);
    probe.tracer.clear();
    let before = cache_counts(state);
    let (traced, a2, f2) = state.window(false, budget * 0.3, probe);
    let after = cache_counts(state);
    let folded = fold(probe.tracer.spans());
    let _ = probe
        .tracer
        .write_jsonl(&cfg.work.join("trace-paths-warm.jsonl"));
    let ops = traced.count() as f64;
    let rounds = ops / CELLS.len() as f64;
    let self_us = |layer: &str| folded.get(layer).map_or(0.0, |t| t.self_ns as f64 / 1e3);

    out.push(metric(
        "core.engine.eval_us",
        self_us("core.engine") / ops,
        "us",
    ));
    let answer_kb = state.set.answer_bytes.iter().sum::<usize>() as f64 / 1024.0;
    out.push(metric(
        "xml.writer.result_us_per_kb",
        self_us("xml.writer") / (rounds * answer_kb),
        "us",
    ));
    out.push(metric(
        "xml.writer.result_bytes",
        answer_kb * 1024.0,
        "count",
    ));
    let lookups = (after.0 - before.0 + after.1 - before.1) as f64;
    out.push(metric(
        "core.engine.plan_cache_hit_ratio",
        (after.0 - before.0) as f64 / lookups,
        "ratio",
    ));
    out.push(metric(
        "trace.overhead_ratio.paths-warm",
        (traced.busy_s() / ops) / (reference.busy_s() / reference.count() as f64),
        "ratio",
    ));
    out.push(metric(
        "trace.unattributed_ratio.paths-warm",
        unattributed_ratio(&folded),
        "ratio",
    ));
    for (cell, samples) in CELLS.iter().zip(&reference.cells) {
        out.push(metric(
            &format!("cell.{}_us", cell.name()),
            stats::median_of(samples),
            "us",
        ));
    }

    // Query front end and planner, one stage at a time, per cell.
    let (mut parse, mut decomp, mut choose) = (Vec::new(), Vec::new(), Vec::new());
    for cell in &CELLS {
        let stats_of_doc = &state.set.parts[state.set.doc_of(cell)].stats;
        let (mut p, mut d, mut c) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..15 {
            let t = Instant::now();
            let path = probe.call("xpath.parser", || sut::parse_path(cell.query));
            p.push(t.elapsed().as_secs_f64() * 1e6);
            let bt = probe.call("flwor.blossom", || sut::blossom_of_path(&path));
            let t = Instant::now();
            let dec = probe.call("core.decompose", || sut::decompose(&bt));
            d.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let plan = probe.call("core.plan", || {
                sut::choose_path_plan(&path, &dec, stats_of_doc)
            });
            c.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(plan);
        }
        parse.push(stats::median_of(&p));
        decomp.push(stats::median_of(&d));
        choose.push(stats::median_of(&c));
    }
    out.push(metric(
        "xpath.parser.parse_us",
        stats::median_of(&parse),
        "us",
    ));
    out.push(metric("core.decompose.us", stats::median_of(&decomp), "us"));
    out.push(metric(
        "core.plan.choose_us",
        stats::median_of(&choose),
        "us",
    ));

    // What an evaluation pays when its plan is not cached (as after every
    // server update): cold minus warm, per cell.
    let auto = sut::strategy("auto");
    let mut cold_extra = Vec::new();
    for cell in &CELLS {
        let engine = &state.owned[state.set.doc_of(cell)];
        let mut cold = Vec::new();
        for _ in 0..7 {
            engine.invalidate_plans();
            let t = Instant::now();
            let nodes = engine.eval_path(cell.query, auto);
            cold.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(nodes.map(|n| n.len()).unwrap_or(0));
        }
        // The window's samples include serialisation; time evaluation alone.
        let mut warm_eval = Vec::new();
        for _ in 0..7 {
            let t = Instant::now();
            let nodes = engine.eval_path(cell.query, auto);
            warm_eval.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(nodes.map(|n| n.len()).unwrap_or(0));
        }
        cold_extra.push(stats::median_of(&cold) - stats::median_of(&warm_eval));
    }
    out.push(metric(
        "core.engine.cold_plan_us",
        stats::median_of(&cold_extra),
        "us",
    ));

    for (name, count) in op_counts(state) {
        let full = match name {
            "fallbacks" => "core.plan.fallbacks".to_string(),
            "replans" => "core.plan.replans".to_string(),
            other => format!("core.ops.{other}"),
        };
        out.push(metric(&full, count as f64, "count"));
    }
    let count = |name: &str| out.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    let per_output = count("core.ops.scanned") / count("core.ops.output").max(1.0);
    out.push(metric("core.ops.scanned_per_output", per_output, "ratio"));

    // The same matrix on mapped against owned columns, rounds interleaved.
    let (mut own, mut map) = (Samples::new(CELLS.len()), Samples::new(CELLS.len()));
    for _ in 0..3 {
        state.round(false, &mut off, &mut own);
        state.round(true, &mut off, &mut map);
    }
    out.push(metric(
        "storage.mapped_over_owned",
        map.busy_s() / own.busy_s(),
        "ratio",
    ));

    out.extend(forced_strategies(cfg));
    Outcome {
        attempted: a1 + a2,
        failed: f1 + f2 + state.setup_failed,
        metrics: out,
        notes: Vec::new(),
    }
}

fn cache_counts(state: &State) -> (u64, u64) {
    state
        .owned
        .iter()
        .map(sut::Sut::cache_counts)
        .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1))
}

/// Time one pass over the matrix under each forced strategy, on small
/// documents, counting only the cells the strategy can evaluate (a
/// strategy refuses shapes outside its algebra).
fn forced_strategies(cfg: &Config) -> Vec<Metric> {
    let mut quiet = Probe::new(false, None);
    let small = Config {
        scale: 1.0,
        ..cfg.clone()
    };
    let set = DocSet::build(&small, FORCED_NODES, &mut quiet);
    let engines: Vec<sut::Sut> = set.parts.iter().map(|p| sut::Sut::new(p, false)).collect();
    let mut out = Vec::new();
    for cli_name in sut::FORCED {
        let strategy = sut::strategy(cli_name);
        let mut passes = Vec::new();
        for _ in 0..3 {
            let mut total = 0.0;
            for cell in &CELLS {
                let engine = &engines[set.doc_of(cell)];
                let t = Instant::now();
                let result = engine.eval_path(cell.query, strategy);
                if let Ok(nodes) = result {
                    total += t.elapsed().as_secs_f64() * 1e6;
                    std::hint::black_box(nodes.len());
                }
            }
            passes.push(total);
        }
        out.push(metric(
            &format!("core.strategy.{cli_name}_us"),
            stats::median_of(&passes),
            "us",
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64, tag: &str) -> (Config, State) {
        let cfg = Config {
            scale: 0.02,
            ..crate::workload::test_config(seed, tag)
        };
        let state = setup(&cfg, &mut Probe::new(false, None));
        (cfg, state)
    }

    #[test]
    fn same_seed_same_operations_and_counts_other_seed_other_hash() {
        let (cfg_a, a) = tiny(5, "pw-a");
        let (cfg_b, b) = tiny(5, "pw-b");
        let (cfg_c, c) = tiny(6, "pw-c");
        assert_eq!(a.setup_failed, 0);
        assert_eq!(op_list_hash(&a), op_list_hash(&b));
        assert_eq!(op_counts(&a), op_counts(&b));
        assert_ne!(op_list_hash(&a), op_list_hash(&c));
        // The counts are real work, not zeros that would agree trivially.
        assert!(op_counts(&a)
            .iter()
            .any(|(name, n)| *name == "scanned" && *n > 0));
        for cfg in [cfg_a, cfg_b, cfg_c] {
            let _ = std::fs::remove_dir_all(&cfg.work);
        }
    }

    #[test]
    fn a_wrong_answer_is_counted_as_failed() {
        let (cfg, mut state) = tiny(7, "pw-d");
        state.set.expected[3] ^= 1;
        let mut samples = Samples::new(CELLS.len());
        let (attempted, failed) = state.round(false, &mut Probe::new(false, None), &mut samples);
        assert_eq!((attempted, failed), (30, 1));
        let _ = std::fs::remove_dir_all(&cfg.work);
    }
}
