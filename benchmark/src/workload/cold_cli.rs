//! `cold-cli`: a closed loop over the process boundary. One op = spawn
//! `blossom query FILE Q` at its default flags and read its stdout. The
//! primary class runs on `.xml` inputs, where parsing, indexing and
//! statistics dominate; the second class (`alt_p50_us`) runs on `.blm2`
//! snapshots of the same documents, where the snapshot's map-open and
//! querying over mapped columns do. `core` is a small share of either.
//! The only workload on which the parser and the snapshot format do the
//! work, and the one that carries snapshot bytes per XML byte.

use super::{closed_loop_metrics, metric, window, Config, Outcome, Samples};
use crate::docset::{oracle_mismatches, DocSet};
use crate::inputs::{is_answer, CELLS};
use crate::proc;
use crate::span::{fold, unattributed_ratio, LayerTime, Probe};
use crate::stats;
use crate::sut;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// A quarter of `paths-warm`'s size: an XML op is then ~5.5 ms, of which
/// loading is still over half, and a 30 s run holds about three thousand
/// of them, five hundred per sub-run.
pub const NODES: usize = 25_000;
const PRIMARY_SHARE: f64 = 0.7;

pub struct State {
    set: DocSet,
    xml_paths: Vec<PathBuf>,
    blm2_paths: Vec<PathBuf>,
    /// Spans of the staged set-up, folded (traced runs only).
    setup_layers: BTreeMap<&'static str, LayerTime>,
    setup_checked: u64,
    setup_failed: u64,
}

pub fn setup(cfg: &Config, probe: &mut Probe) -> State {
    probe.tracer.clear();
    let set = DocSet::build(cfg, cfg.nodes(NODES), probe);
    let setup_layers = fold(probe.tracer.spans());
    let xml_paths = set.write_xml(&cfg.work);
    // Snapshots are made the way a user makes them.
    let blm2_paths: Vec<PathBuf> = xml_paths.iter().map(|p| p.with_extension("blm2")).collect();
    let mut setup_failed = 0;
    probe.call("setup.snapshot", || {
        for (xml, blm2) in xml_paths.iter().zip(&blm2_paths) {
            let args = [
                "snapshot",
                &xml.to_string_lossy(),
                "--output",
                &blm2.to_string_lossy(),
            ];
            if let Err(e) = proc::run(&cfg.blossom, &args) {
                eprintln!("{e}");
                setup_failed += 1;
            }
        }
    });
    let mut state = State {
        set,
        xml_paths,
        blm2_paths,
        setup_layers,
        setup_checked: (CELLS.len() + 5) as u64,
        setup_failed,
    };
    state.setup_failed += probe.call("setup.oracle", || oracle_mismatches(cfg));
    probe.call("setup.warm", || {
        let mut off = Probe::new(false, None);
        for blm2 in [false, true] {
            let (checked, failed) =
                state.round(cfg, blm2, &mut off, &mut Samples::new(CELLS.len()));
            state.setup_checked += checked;
            state.setup_failed += failed;
        }
    });
    state
}

impl State {
    fn round(
        &self,
        cfg: &Config,
        blm2: bool,
        probe: &mut Probe,
        samples: &mut Samples,
    ) -> (u64, u64) {
        let paths = if blm2 {
            &self.blm2_paths
        } else {
            &self.xml_paths
        };
        let mut failed = 0;
        for (i, cell) in CELLS.iter().enumerate() {
            let file = paths[self.set.doc_of(cell)].to_string_lossy();
            let start = Instant::now();
            let stdout = probe.op(|p| {
                p.call("cli.child", || {
                    proc::run(&cfg.blossom, &["query", &file, cell.query])
                })
            });
            samples.push(i, start.elapsed());
            if !stdout.is_ok_and(|bytes| is_answer(&bytes, self.set.expected[i])) {
                failed += 1;
            }
        }
        (CELLS.len() as u64, failed)
    }

    fn window(
        &self,
        cfg: &Config,
        blm2: bool,
        budget: f64,
        probe: &mut Probe,
    ) -> (Samples, u64, u64) {
        window(CELLS.len(), budget, |samples| {
            self.round(cfg, blm2, probe, samples)
        })
    }

    fn file_bytes(paths: &[PathBuf]) -> u64 {
        paths
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum()
    }
}

pub fn measure(state: &State, cfg: &Config, seconds: f64, probe: &mut Probe) -> Outcome {
    let (xml, a1, f1) = state.window(cfg, false, seconds * PRIMARY_SHARE, probe);
    let (blm2, a2, f2) = state.window(cfg, true, seconds * (1.0 - PRIMARY_SHARE), probe);
    Outcome {
        attempted: a1 + a2 + state.setup_checked,
        failed: f1 + f2 + state.setup_failed,
        // The rate counts both classes; the latencies keep them apart.
        metrics: closed_loop_metrics(
            &xml,
            &blm2,
            a1 - f1 + a2 - f2,
            xml.busy_s() + blm2.busy_s(),
            proc::children_peak_rss_mb(),
            State::file_bytes(&state.blm2_paths) as f64
                / State::file_bytes(&state.xml_paths) as f64,
        ),
        notes: vec![
            ("samples".to_string(), xml.count() as f64),
            ("alt_samples".to_string(), blm2.count() as f64),
            ("nodes_per_doc".to_string(), cfg.nodes(NODES) as f64),
        ],
    }
}

pub fn layers(state: &State, cfg: &Config, budget: f64, probe: &mut Probe) -> Outcome {
    let mut out = Vec::new();
    let knodes: f64 = state.set.parts.iter().map(|p| p.nodes() as f64 / 1e3).sum();
    let mb = state.set.xml_bytes() as f64 / 1e6;
    let setup_us = |layer: &str| {
        state
            .setup_layers
            .get(layer)
            .map_or(0.0, |t| t.self_ns as f64 / 1e3)
    };
    out.push(metric(
        "xml.parser.parse_us_per_mb",
        setup_us("xml.parser") / mb,
        "us",
    ));
    out.push(metric(
        "xml.index.build_us_per_knode",
        setup_us("xml.index") / knodes,
        "us",
    ));
    out.push(metric(
        "xml.stats.compute_us_per_knode",
        setup_us("xml.stats") / knodes,
        "us",
    ));

    // Untraced reference and traced window, XML ops then BLM2 ops.
    let mut off = Probe::new(false, cfg.inject.clone());
    let (ref_xml, a1, f1) = state.window(cfg, false, budget * 0.25, &mut off);
    let (ref_blm2, a2, f2) = state.window(cfg, true, budget * 0.1, &mut off);
    probe.tracer.clear();
    let (traced_xml, a3, f3) = state.window(cfg, false, budget * 0.25, probe);
    let (traced_blm2, a4, f4) = state.window(cfg, true, budget * 0.1, probe);
    let folded = fold(probe.tracer.spans());
    let _ = probe
        .tracer
        .write_jsonl(&cfg.work.join("trace-cold-cli.jsonl"));
    let per_op =
        |a: &Samples, b: &Samples| (a.busy_s() + b.busy_s()) / (a.count() + b.count()) as f64;
    out.push(metric(
        "trace.overhead_ratio.cold-cli",
        per_op(&traced_xml, &traced_blm2) / per_op(&ref_xml, &ref_blm2),
        "ratio",
    ));
    out.push(metric(
        "trace.unattributed_ratio.cold-cli",
        unattributed_ratio(&folded),
        "ratio",
    ));

    // The floor under every op: a child that does nothing but start.
    let mut floor = Vec::new();
    for _ in 0..40 {
        let t = Instant::now();
        let _ = proc::run(&cfg.blossom, &["help"]);
        floor.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.push(metric("cli.spawn_floor_us", stats::median_of(&floor), "us"));
    // Loading (parse + index + statistics, measured in process at set-up,
    // per document) as a share of the median XML op.
    let load_us_per_doc =
        (setup_us("xml.parser") + setup_us("xml.index") + setup_us("xml.stats")) / 5.0;
    out.push(metric(
        "cli.xml_load_share",
        load_us_per_doc / ref_xml.median_of_cell_medians(),
        "ratio",
    ));

    // Storage, one call at a time, on this workload's documents.
    let mut snapshot_bytes = 0usize;
    let (mut encode, mut open_map, mut open_heap, mut publish) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, parts) in state.set.parts.iter().enumerate() {
        let mut bytes = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            bytes = probe.call("storage.snapshot.encode", || sut::encode_snapshot(parts));
            encode.push(t.elapsed().as_secs_f64() * 1e6 / (parts.nodes() as f64 / 1e3));
        }
        snapshot_bytes += bytes.len();
        for _ in 0..9 {
            let t = Instant::now();
            let m = probe.call("storage.snapshot.open_map", || {
                sut::open_snapshot(&state.blm2_paths[i], true)
            });
            open_map.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let h = probe.call("storage.snapshot.open_heap", || {
                sut::open_snapshot(&state.blm2_paths[i], false)
            });
            open_heap.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box((m.nodes(), h.nodes()));
        }
        for generation in 0..3 {
            let t = Instant::now();
            probe.call("storage.store", || {
                sut::publish_generation(
                    &cfg.work.join("store"),
                    state.set.names[i],
                    generation,
                    &bytes,
                )
            });
            publish.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    out.push(metric(
        "storage.snapshot.encode_us_per_knode",
        stats::median_of(&encode),
        "us",
    ));
    out.push(metric(
        "storage.snapshot.open_map_us",
        stats::median_of(&open_map),
        "us",
    ));
    out.push(metric(
        "storage.snapshot.open_heap_us",
        stats::median_of(&open_heap),
        "us",
    ));
    out.push(metric(
        "storage.snapshot.bytes_per_node",
        snapshot_bytes as f64 / (knodes * 1e3),
        "ratio",
    ));
    out.push(metric(
        "storage.store.publish_us",
        stats::median_of(&publish),
        "us",
    ));
    Outcome {
        attempted: a1 + a2 + a3 + a4,
        failed: f1 + f2 + f3 + f4 + state.setup_failed,
        metrics: out,
        notes: Vec::new(),
    }
}
