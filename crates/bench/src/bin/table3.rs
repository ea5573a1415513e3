//! Regenerate Table 3: running time of the four systems on Q1–Q6 × d1–d5.
//!
//! Systems, as in the paper:
//! * **XH** — the navigational engine (X-Hive/DB stand-in),
//! * **TS** — TwigStack over tag-index streams,
//! * **NL** — bounded nested-loop joins (recursive datasets d1, d4),
//! * **PL** — pipelined //-joins (non-recursive datasets d2, d3, d5).
//!
//! Each cell is the average of `--runs` executions (default 3, as in the
//! paper) with a `--cutoff` seconds DNF cutoff.
//!
//! ```text
//! cargo run -p blossom-bench --release --bin table3 -- \
//!     [--scale 0.1] [--seed 42] [--runs 3] [--cutoff 60]
//! ```

use blossom_bench::{markdown_table, measure, queries, Args};
use blossom_core::{Engine, Strategy};
use blossom_xmlgen::{generate_scaled, Dataset};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale").unwrap_or(0.1);
    let seed: u64 = args.get("seed").unwrap_or(42);
    let runs: u32 = args.get("runs").unwrap_or(3);
    let cutoff = Duration::from_secs_f64(args.get("cutoff").unwrap_or(60.0));

    println!(
        "# Table 3 — running time (scale {scale}, seed {seed}, avg of {runs} runs, \
         DNF cutoff {}s)\n",
        cutoff.as_secs_f64()
    );
    let header: Vec<String> = ["file", "sys.", "Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for ds in Dataset::all() {
        eprintln!("generating {} ...", ds.name());
        let engine = Arc::new(Engine::new(generate_scaled(ds, scale, seed)));
        // The paper's layout: NL on recursive datasets (where its PL's
        // discard rule is unsafe) and PL on non-recursive ones (where NL
        // is dominated). Here both are the flat pipeline — every join a
        // range probe under NL, a merge under PL — and either is valid
        // on every dataset.
        let third = if ds.recursive() {
            ("NL", Strategy::BoundedNestedLoop)
        } else {
            ("PL", Strategy::Pipelined)
        };
        let systems: [(&str, Strategy); 3] = [
            ("XH", Strategy::Navigational),
            ("TS", Strategy::TwigStack),
            third,
        ];
        for (label, strategy) in systems {
            let mut row = vec![ds.name().to_string(), label.to_string()];
            for q in queries(ds) {
                eprintln!("  {} {} {}", ds.name(), label, q.id);
                let m = measure(engine.clone(), q.path, strategy, runs, cutoff);
                row.push(m.cell());
            }
            rows.push(row);
        }
    }
    println!("{}", markdown_table(&header, &rows));
}
