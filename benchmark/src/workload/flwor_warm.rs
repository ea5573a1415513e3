//! `flwor-warm`: six fixed FLWORs over a seeded bibliography, in process,
//! closed loop, one thread. One op = `eval_query_str(q, Auto)` plus
//! `writer::to_string` of the result document. Same `core` crate as
//! `paths-warm`, used differently: Algorithm 1 decomposition, NestedList
//! projection/selection/join, value and order joins on crossing edges,
//! tuple enumeration and construction. The second class of operations
//! (`alt_p50_us`) is the same six over memory-mapped BLM2 columns.

use super::{closed_loop_metrics, metric, peak_rss_mb, window, Config, Outcome, Samples};
use crate::inputs::{bib, fnv64, FLWORS};
use crate::json::Json;
use crate::span::{fold, unattributed_ratio, Probe};
use crate::stats;
use crate::sut;
use std::time::Instant;

pub const BOOKS: usize = 400;
/// Books in the replica the reference evaluator is run on.
const ORACLE_BOOKS: usize = 40;
const PRIMARY_SHARE: f64 = 0.7;

pub struct State {
    parts: sut::Parts,
    xml_bytes: usize,
    owned: sut::Sut,
    mapped: sut::Sut,
    expected: Vec<u64>,
    setup_checked: u64,
    setup_failed: u64,
}

pub fn setup(cfg: &Config, probe: &mut Probe) -> State {
    let books = ((BOOKS as f64 * cfg.scale) as usize).max(ORACLE_BOOKS);
    let parts = probe.call("xmlgen", || bib(books, cfg.seed));
    let xml_bytes = probe.call("setup.to_xml", || sut::to_xml(&parts.doc)).len();
    let bytes = probe.call("storage.snapshot.encode", || sut::encode_snapshot(&parts));
    let path = cfg.work.join("bib.blm2");
    std::fs::write(&path, &bytes).expect("work directory is writable");
    let mapped_parts = probe.call("storage.snapshot.open_map", || {
        sut::open_snapshot(&path, true)
    });
    let owned = sut::Sut::new(&parts, false);
    let mapped = sut::Sut::new(&mapped_parts, false);

    // Expected answers from the navigational (naive FLWOR) evaluator.
    let navigational = sut::strategy("navigational");
    let expected = probe.call("setup.expected", || {
        FLWORS
            .iter()
            .map(|(_, q)| {
                let doc = owned
                    .eval_query(q, navigational)
                    .expect("frozen FLWOR evaluates");
                fnv64(sut::to_xml(&doc).as_bytes())
            })
            .collect()
    });
    let mut state = State {
        parts,
        xml_bytes,
        owned,
        mapped,
        expected,
        setup_checked: 0,
        setup_failed: 0,
    };

    probe.call("setup.oracle", || {
        let (checked, failed) = oracle_and_fallback_check(cfg);
        state.setup_checked += checked;
        state.setup_failed += failed;
    });
    probe.call("setup.warm", || {
        let mut off = Probe::new(false, None);
        for mapped in [false, true] {
            let (checked, failed) = state.round(mapped, &mut off, &mut Samples::new(FLWORS.len()));
            state.setup_checked += checked;
            state.setup_failed += failed;
        }
    });
    state
}

/// On a small replica: the default strategy must agree with the reference
/// evaluator, and must run every FLWOR without a navigational fallback
/// (otherwise the workload would be timing the naive evaluator).
fn oracle_and_fallback_check(cfg: &Config) -> (u64, u64) {
    let small = bib(ORACLE_BOOKS, cfg.seed);
    let engine = sut::Sut::new(&small, true);
    let auto = sut::strategy("auto");
    let mut failed = 0;
    for (name, q) in &FLWORS {
        let want = sut::oracle_answer(engine.doc(), q).expect("oracle evaluates");
        match engine.profile_query(q, auto) {
            Ok((doc, profile)) => {
                let fallbacks = Json::parse(&profile)
                    .ok()
                    .and_then(|p| p.get("fallbacks").and_then(Json::as_arr).map(<[Json]>::len));
                if sut::to_xml(&doc) != want || fallbacks != Some(0) {
                    eprintln!("{name}: oracle mismatch or fallback ({fallbacks:?})");
                    failed += 1;
                }
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                failed += 1;
            }
        }
    }
    (FLWORS.len() as u64, failed)
}

impl State {
    fn round(&self, mapped: bool, probe: &mut Probe, samples: &mut Samples) -> (u64, u64) {
        let engine = if mapped { &self.mapped } else { &self.owned };
        let auto = sut::strategy("auto");
        let mut failed = 0;
        for (i, (_, query)) in FLWORS.iter().enumerate() {
            let start = Instant::now();
            let text = probe.op(|p| {
                let doc = p
                    .call("core.engine", || engine.eval_query(query, auto))
                    .ok()?;
                Some(p.call("xml.writer", || sut::to_xml(&doc)))
            });
            samples.push(i, start.elapsed());
            if text.map(|t| fnv64(t.as_bytes())) != Some(self.expected[i]) {
                failed += 1;
            }
        }
        (FLWORS.len() as u64, failed)
    }

    fn window(&self, mapped: bool, budget: f64, probe: &mut Probe) -> (Samples, u64, u64) {
        window(FLWORS.len(), budget, |samples| {
            self.round(mapped, probe, samples)
        })
    }
}

pub fn measure(state: &State, _cfg: &Config, seconds: f64, probe: &mut Probe) -> Outcome {
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
            state.parts.heap_bytes() as f64 / state.xml_bytes as f64,
        ),
        notes: vec![
            ("samples".to_string(), primary.count() as f64),
            ("alt_samples".to_string(), alt.count() as f64),
            ("nodes".to_string(), state.parts.nodes() as f64),
            ("op_list_hash".to_string(), op_list_hash(state) as f64),
        ],
    }
}

pub fn op_list_hash(state: &State) -> u64 {
    let mut text = String::new();
    for ((name, query), want) in FLWORS.iter().zip(&state.expected) {
        text.push_str(&format!("{name} {query} {want:016x}\n"));
    }
    fnv64(text.as_bytes()) >> 12
}

pub fn layers(state: &State, cfg: &Config, budget: f64, probe: &mut Probe) -> Outcome {
    let mut out = Vec::new();
    let mut off = Probe::new(false, cfg.inject.clone());
    let (reference, a1, f1) = state.window(false, budget * 0.4, &mut off);
    probe.tracer.clear();
    let (traced, a2, f2) = state.window(false, budget * 0.4, probe);
    let folded = fold(probe.tracer.spans());
    let _ = probe
        .tracer
        .write_jsonl(&cfg.work.join("trace-flwor-warm.jsonl"));
    out.push(metric(
        "trace.overhead_ratio.flwor-warm",
        (traced.busy_s() / traced.count() as f64) / (reference.busy_s() / reference.count() as f64),
        "ratio",
    ));
    out.push(metric(
        "trace.unattributed_ratio.flwor-warm",
        unattributed_ratio(&folded),
        "ratio",
    ));
    for ((name, _), samples) in FLWORS.iter().zip(&reference.cells) {
        out.push(metric(
            &format!("cell.{name}_us"),
            stats::median_of(samples),
            "us",
        ));
    }

    // The FLWOR front end, one stage at a time; paid on every op, since
    // FLWOR plans are not cached.
    let (mut parse, mut build) = (Vec::new(), Vec::new());
    for (_, query) in &FLWORS {
        let (mut p, mut b) = (Vec::new(), Vec::new());
        for _ in 0..25 {
            let t = Instant::now();
            let expr = probe.call("flwor.parse", || sut::parse_query(query));
            p.push(t.elapsed().as_secs_f64() * 1e6);
            let flwor = sut::flwor_of(&expr).expect("frozen query holds a FLWOR");
            let t = Instant::now();
            let bt = probe.call("flwor.blossom", || sut::blossom_of_flwor(flwor));
            b.push(t.elapsed().as_secs_f64() * 1e6);
            let d = probe.call("core.decompose", || sut::decompose(&bt));
            std::hint::black_box(probe.call("core.plan", || {
                sut::choose_flwor_plan(&d, &state.parts.stats)
            }));
        }
        parse.push(stats::median_of(&p));
        build.push(stats::median_of(&b));
    }
    out.push(metric(
        "flwor.parse.parse_us",
        stats::median_of(&parse),
        "us",
    ));
    out.push(metric(
        "flwor.blossom.build_us",
        stats::median_of(&build),
        "us",
    ));
    Outcome {
        attempted: a1 + a2,
        failed: f1 + f2 + state.setup_failed,
        metrics: out,
        notes: Vec::new(),
    }
}
