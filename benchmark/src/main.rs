//! The repository's benchmark harness. See README.md beside this crate.
//!
//! ```text
//! benchmark bench --workload W --seed N --seconds S --trace 0|1 --blossom PATH
//!                 [--scale X] [--inject-us N --inject-layer L]
//! benchmark run | trace | check | quick   [--seed N] [--seconds S] [--sets K] [--scale X]
//!                 [--inject-us N --inject-layer L]
//! benchmark compare BASE.json NEW.json
//! ```
//!
//! `bench` is one run of one workload and prints the result line the
//! driver reads; the other commands re-execute it once per workload, so
//! set-up time and peak memory are per workload.

mod docset;
mod http;
mod inputs;
mod json;
mod loadgen;
mod proc;
mod report;
mod span;
mod stats;
mod sut;
mod workload;

use json::Json;
use span::Probe;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{cold_cli, flwor_warm, paths_warm, serve_mixed, Config, Outcome};

/// `--flag value` options after the subcommand.
pub struct Args(Vec<String>);

impl Args {
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad {flag} {v:?}")),
        }
    }

    pub fn positional(&self, idx: usize) -> Option<&str> {
        self.0
            .get(idx)
            .map(String::as_str)
            .filter(|a| !a.starts_with("--"))
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("usage: benchmark bench|run|trace|check|quick|compare ... (see README.md)");
        return ExitCode::from(2);
    }
    let command = argv.remove(0);
    let args = Args(argv);
    let result = match command.as_str() {
        "bench" => bench(&args),
        "run" | "trace" | "check" | "quick" => report::orchestrate(&command, &args),
        "compare" => report::compare_files(&args),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// One run of one workload. Prints every metric by name and unit on
/// stderr; on stdout the run's notes (sample counts, op-list hash) and,
/// as the last line, the result object.
fn bench(args: &Args) -> Result<bool, String> {
    let name = args
        .get("--workload")
        .ok_or("bench needs --workload")?
        .to_string();
    if !workload::NAMES.contains(&name.as_str()) {
        return Err(format!(
            "unknown workload {name:?} (want one of {:?})",
            workload::NAMES
        ));
    }
    let trace = match args.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (want 0 or 1)")),
    };
    let blossom = PathBuf::from(args.get("--blossom").ok_or("bench needs --blossom PATH")?);
    if !blossom.is_file() {
        return Err(format!("no blossom binary at {}", blossom.display()));
    }
    let out_dir = Path::new(report::OUT_DIR);
    let work = out_dir.join(format!("work-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let inject_us: u64 = args.parsed("--inject-us", 0)?;
    let inject = match (inject_us, args.get("--inject-layer")) {
        (0, _) | (_, None) => None,
        (us, Some(layer)) => Some((layer.to_string(), Duration::from_micros(us))),
    };
    let cfg = Config {
        seed: args.parsed("--seed", 11)?,
        seconds: args.parsed("--seconds", 20.0)?,
        scale: args.parsed("--scale", 1.0)?,
        blossom: std::fs::canonicalize(&blossom).map_err(|e| e.to_string())?,
        work: work.clone(),
        inject,
    };
    if cfg.seconds <= 0.0 || cfg.scale <= 0.0 {
        return Err("--seconds and --scale must be positive".to_string());
    }

    let outcome = if trace {
        // Every traced run measures every layer, whichever workload it names.
        let outcome = traced_run(&cfg);
        // Keep the traces beside the reports; drop the rest of the scratch.
        for entry in std::fs::read_dir(&work).into_iter().flatten().flatten() {
            if entry.file_name().to_string_lossy().starts_with("trace-") {
                let _ = std::fs::rename(entry.path(), out_dir.join(entry.file_name()));
            }
        }
        outcome
    } else {
        match name.as_str() {
            "paths-warm" => end_to_end(&cfg, paths_warm::setup, paths_warm::measure),
            "flwor-warm" => end_to_end(&cfg, flwor_warm::setup, flwor_warm::measure),
            "cold-cli" => end_to_end(&cfg, cold_cli::setup, cold_cli::measure),
            _ => end_to_end(&cfg, serve_mixed::setup, serve_mixed::measure),
        }
    };
    let _ = std::fs::remove_dir_all(&work);

    for (metric, value, unit) in &outcome.metrics {
        eprintln!("{name:<12} {metric:<44} {value:>16.4} {unit}");
    }
    for (note, value) in &outcome.notes {
        eprintln!("{name:<12} note {note:<39} {value:>16}");
    }
    let numbers = |pairs: &[(String, f64)]| {
        Json::Obj(
            pairs
                .iter()
                .map(|(n, v)| (n.clone(), Json::Num(*v)))
                .collect(),
        )
    };
    println!(
        "{}",
        Json::obj(vec![("notes", numbers(&outcome.notes))]).render()
    );
    // The driver's result object: exactly these four keys, last line.
    let metrics = outcome
        .metrics
        .iter()
        .map(|(n, v, u)| {
            (
                n.clone(),
                Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::str(*u))]),
            )
        })
        .collect();
    let line = Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(outcome.failed == 0)
}

/// Tracing off: `SUB_RUNS` times over, set up afresh and measure for a
/// share of the window; report each metric's median over the sub-runs.
/// A fresh set-up lands documents, files and the server process at new
/// addresses, which moves every latency of that set-up by a few percent
/// in one direction; the median over set-ups is steadier than one longer
/// window on a single set-up, and `setup_s` is a median for free.
fn end_to_end<S>(
    cfg: &Config,
    setup: impl Fn(&Config, &mut Probe) -> S,
    measure: impl Fn(&S, &Config, f64, &mut Probe) -> Outcome,
) -> Outcome {
    let mut probe = Probe::new(false, cfg.inject.clone());
    let mut setups = Vec::new();
    let mut outcomes = Vec::new();
    for _ in 0..workload::SUB_RUNS {
        let start = Instant::now();
        let state = setup(cfg, &mut probe);
        setups.push(start.elapsed().as_secs_f64());
        outcomes.push(measure(
            &state,
            cfg,
            cfg.seconds / workload::SUB_RUNS as f64,
            &mut probe,
        ));
    }
    let mut outcome = Outcome::median_of(&outcomes);
    outcome
        .metrics
        .push(workload::metric("setup_s", stats::median_of(&setups), "s"));
    outcome
}

/// Tracing on: all four workloads are replayed with spans, a quarter of
/// the window each, so one traced run holds every layer's numbers.
fn traced_run(cfg: &Config) -> Outcome {
    fn one<S>(
        cfg: &Config,
        setup: impl Fn(&Config, &mut Probe) -> S,
        layers: impl Fn(&S, &Config, f64, &mut Probe) -> Outcome,
    ) -> Outcome {
        let mut probe = Probe::new(true, cfg.inject.clone());
        let state = setup(cfg, &mut probe);
        layers(
            &state,
            cfg,
            cfg.seconds / workload::NAMES.len() as f64,
            &mut probe,
        )
    }
    let mut all = Outcome::default();
    for part in [
        one(cfg, paths_warm::setup, paths_warm::layers),
        one(cfg, flwor_warm::setup, flwor_warm::layers),
        one(cfg, cold_cli::setup, cold_cli::layers),
        one(cfg, serve_mixed::setup, serve_mixed::layers),
    ] {
        all.attempted += part.attempted;
        all.failed += part.failed;
        all.metrics.extend(part.metrics);
    }
    all
}
