//! The commands around `bench`: `run` / `trace` / `quick` (one set of all
//! workloads), `check` (two sets of the same build, compared), and
//! `compare` (two report files, one row per workload and metric).
//!
//! A report is `{"envelope": {...}, "workloads": {name: {"runs": [...]}}}`
//! where each run is the object `bench` printed plus its seed and notes.

use crate::json::Json;
use crate::stats::{self, Better, Verdict};
use crate::workload::NAMES;
use crate::Args;
use std::path::Path;
use std::process::{Command, Stdio};

/// Where the metric declarations live, relative to the repository root
/// (`run.sh` runs the harness from there).
const BENCHMARK_JSON: &str = "BENCHMARK.json";
/// Where the harness writes reports, traces and scratch inputs (ignored).
pub const OUT_DIR: &str = "benchmark/out";
/// The name a traced run is filed under in `trace.json`.
const TRACED: &str = "traced";

/// A metric's direction and bound, as `BENCHMARK.json` declares them.
pub struct Spec {
    pub name: String,
    pub better: Better,
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

/// Read the metric declarations and `run_seconds` from `BENCHMARK.json`.
fn read_specs() -> Result<(Vec<Spec>, f64), String> {
    let text = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("reading {BENCHMARK_JSON}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let mut specs = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in json.get(section).and_then(Json::as_arr).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("metric {name}: bad \"better\""))?;
            specs.push(Spec {
                name: name.to_string(),
                better,
                bound: m.get("bound").and_then(Json::as_f64),
            });
        }
    }
    let seconds = json
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("no run_seconds")?;
    Ok((specs, seconds))
}

fn tool_version(tool: &str) -> String {
    Command::new(tool)
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn envelope(mode: &str, seeds: &[u64], seconds: f64, scale: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("mode", Json::str(mode)),
        ("commit", Json::str(commit())),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(tool_version("rustc"))),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|s| Json::Num(*s as f64)).collect()),
        ),
        ("run_seconds", Json::Num(seconds)),
        ("scale", Json::Num(scale)),
    ])
}

/// Re-execute this binary as `bench` for one workload and parse its last
/// two lines: the notes and the result object. The child's stderr (the
/// metric listing) passes through.
fn bench_child(
    args: &Args,
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["bench", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args([
            "--scale",
            &scale.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    for flag in ["--blossom", "--inject-us", "--inject-layer"] {
        if let Some(v) = args.get(flag) {
            cmd.args([flag, v]);
        }
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning bench: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let mut parsed = || -> Result<Json, String> {
        let line = lines
            .next()
            .ok_or_else(|| format!("{workload}: bench printed too little"))?;
        Json::parse(line).map_err(|e| format!("{workload}: bad output line: {e}"))
    };
    let (mut run, notes) = (parsed()?, parsed()?);
    if let (Json::Obj(pairs), Some(notes)) = (&mut run, notes.get("notes")) {
        pairs.insert(0, ("seed".to_string(), Json::Num(seed as f64)));
        pairs.push(("notes".to_string(), notes.clone()));
    }
    Ok(run)
}

/// `run`, `trace`, `quick`, `check`. Returns whether everything passed.
pub fn orchestrate(mode: &str, args: &Args) -> Result<bool, String> {
    let (specs, declared_seconds) = read_specs()?;
    let quick = mode == "quick";
    let seconds: f64 = args.parsed("--seconds", if quick { 1.0 } else { declared_seconds })?;
    let scale: f64 = args.parsed("--scale", if quick { 0.05 } else { 1.0 })?;
    let seed: u64 = args.parsed("--seed", 11)?;
    // Set k runs every workload on seed + k.
    let sets: u64 = args.parsed("--sets", 1)?;
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;

    // A traced run replays all four workloads itself, so a traced set is
    // one run, filed under `TRACED`.
    let collect = |seeds: &[u64], trace: bool| -> Result<Json, String> {
        let names: &[&str] = if trace { &NAMES[..1] } else { &NAMES };
        let mut workloads = Vec::new();
        for &name in names {
            let label = if trace { TRACED } else { name };
            let mut runs = Vec::new();
            for &s in seeds {
                eprintln!("--- {label} (seed {s}, {seconds} s) ---");
                runs.push(bench_child(args, name, s, seconds, scale, trace)?);
            }
            workloads.push((
                label.to_string(),
                Json::obj(vec![("runs", Json::Arr(runs))]),
            ));
        }
        Ok(Json::obj(vec![
            ("envelope", envelope(mode, seeds, seconds, scale)),
            ("workloads", Json::Obj(workloads)),
        ]))
    };
    let write = |name: &str, report: &Json| -> Result<(), String> {
        let path = out_dir.join(name);
        std::fs::write(&path, report.render_pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        Ok(())
    };

    let seeds: Vec<u64> = (0..sets).map(|k| seed + k).collect();
    match mode {
        "trace" => {
            let report = collect(&seeds, true)?;
            write("trace.json", &report)?;
            print_report(&report);
            Ok(all_correct(&report) && schema_ok(&report, &specs, true))
        }
        "check" => {
            // Two sets of runs of the same build on the same seeds must
            // agree within every end-to-end bound, in either direction.
            let first = collect(&seeds, false)?;
            let second = collect(&seeds, false)?;
            write("check-1.json", &first)?;
            write("check-2.json", &second)?;
            let rows = compare(&first, &second, &specs);
            print_rows(&rows);
            Ok(sets_agree(&rows) && all_correct(&first) && all_correct(&second))
        }
        _ => {
            let report = collect(&seeds, false)?;
            write(if quick { "quick.json" } else { "report.json" }, &report)?;
            print_report(&report);
            Ok(all_correct(&report) && schema_ok(&report, &specs, false))
        }
    }
}

fn runs_of<'a>(report: &'a Json, workload: &str) -> &'a [Json] {
    report
        .at(&["workloads", workload, "runs"])
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

/// The workloads a report holds runs of, in the report's order.
fn workloads_in(report: &Json) -> Vec<&str> {
    report
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(name, _)| name.as_str())
        .filter(|w| !runs_of(report, w).is_empty())
        .collect()
}

fn all_correct(report: &Json) -> bool {
    let present = workloads_in(report);
    !present.is_empty()
        && present.iter().all(|w| {
            runs_of(report, w)
                .iter()
                .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))
        })
}

/// Every run carries exactly the metrics `BENCHMARK.json` declares for
/// its kind, each with a finite value.
fn schema_ok(report: &Json, specs: &[Spec], traced: bool) -> bool {
    let want: Vec<&str> = specs
        .iter()
        .filter(|s| s.bound.is_none() == traced)
        .map(|s| s.name.as_str())
        .collect();
    let mut ok = true;
    for w in workloads_in(report) {
        for run in runs_of(report, w) {
            let got = run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
            for name in &want {
                if !got
                    .iter()
                    .any(|(k, v)| k == name && v.get("value").and_then(Json::as_f64).is_some())
                {
                    eprintln!("schema: {w} is missing metric {name}");
                    ok = false;
                }
            }
            for (k, _) in got {
                if !want.contains(&k.as_str()) {
                    eprintln!("schema: {w} reports undeclared metric {k}");
                    ok = false;
                }
            }
        }
    }
    ok
}

/// The values of one metric over a workload's runs.
fn values(report: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs_of(report, workload)
        .iter()
        .filter_map(|r| r.at(&["metrics", metric, "value"]).and_then(Json::as_f64))
        .collect()
}

fn unit_of(report: &Json, workload: &str, metric: &str) -> String {
    runs_of(report, workload)
        .first()
        .and_then(|r| r.at(&["metrics", metric, "unit"]).and_then(Json::as_str))
        .unwrap_or("")
        .to_string()
}

fn metric_names(report: &Json, workload: &str) -> Vec<String> {
    runs_of(report, workload)
        .first()
        .and_then(|r| r.get("metrics").and_then(Json::as_obj))
        .map(|m| m.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

/// Every metric by name, with its unit: the median over the report's
/// runs, and their spread when there are several.
fn print_report(report: &Json) {
    println!(
        "{:<12} {:<44} {:>16} {:<6} {:>5} {:>8}",
        "workload", "metric", "median", "unit", "runs", "spread"
    );
    for w in workloads_in(report) {
        for name in metric_names(report, w) {
            let v = values(report, w, &name);
            let spread = if v.len() >= 4 {
                format!("{:.2}%", stats::spread(&v) * 100.0)
            } else {
                "-".to_string()
            };
            println!(
                "{w:<12} {name:<44} {:>16.4} {:<6} {:>5} {spread:>8}",
                stats::median_of(&v),
                unit_of(report, w, &name),
                v.len()
            );
        }
        let failed: f64 = runs_of(report, w)
            .iter()
            .filter_map(|r| r.get("failed").and_then(Json::as_f64))
            .sum();
        let attempted: f64 = runs_of(report, w)
            .iter()
            .filter_map(|r| r.get("attempted").and_then(Json::as_f64))
            .sum();
        println!(
            "{w:<12} {:<44} {:>16} {:<6}",
            "failed / attempted",
            format!("{failed} / {attempted}"),
            "count"
        );
    }
}

/// One row of `compare`.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    /// Worsening as a share of the base median (negative = better).
    pub worsening: f64,
    pub bound: Option<f64>,
    pub spread: f64,
    /// `None` when there is nothing to judge against: no declared bound
    /// and too few runs for a spread.
    pub verdict: Option<Verdict>,
}

/// Compare two reports: for every (workload, metric) both medians, the
/// change relative to the base, the bound, and the verdict. Per-layer
/// metrics have no bound; they are judged against their own spread.
pub fn compare(base: &Json, new: &Json, specs: &[Spec]) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in workloads_in(base) {
        for name in metric_names(base, w) {
            let (b, n) = (values(base, w, &name), values(new, w, &name));
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let spec = specs.iter().find(|s| s.name == name);
            let better = spec.map_or(Better::Lower, |s| s.better);
            let bound = spec.and_then(|s| s.bound);
            // Quartiles of fewer than four runs say little; such a side
            // is compared on its median alone.
            let spread_of = |v: &[f64]| if v.len() >= 4 { stats::spread(v) } else { 0.0 };
            let spread = spread_of(&b).max(spread_of(&n));
            let enough_runs = b.len() >= 4 && n.len() >= 4;
            let (bm, nm) = (stats::median_of(&b), stats::median_of(&n));
            rows.push(Row {
                workload: w.to_string(),
                unit: unit_of(base, w, &name),
                base: bm,
                new: nm,
                worsening: stats::worsening(bm, nm, better),
                bound,
                spread,
                // Without a declared bound, judge against the spread itself.
                verdict: match bound {
                    Some(bound) => Some(stats::verdict(bm, nm, better, bound, spread)),
                    None if enough_runs => Some(stats::verdict(bm, nm, better, spread, spread)),
                    None => None,
                },
                metric: name,
            });
        }
    }
    rows
}

/// `check`'s rule: two sets of the same build agree when no bounded
/// metric differs by more than its bound in either direction.
fn sets_agree(rows: &[Row]) -> bool {
    rows.iter()
        .all(|r| r.bound.is_none() || r.verdict == Some(Verdict::Same))
}

fn print_rows(rows: &[Row]) {
    println!(
        "{:<12} {:<44} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "base median", "new median", "change", "bound", "spread"
    );
    for r in rows {
        let bound = r
            .bound
            .map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0));
        // The change is signed in the metric's own direction: + is worse.
        println!(
            "{:<12} {:<44} {:>14.4} {:>14.4} {:>+8.2}% {:>7} {:>6.2}%  {} (of base {:.4} {})",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worsening * 100.0,
            bound,
            r.spread * 100.0,
            r.verdict.map_or("-", Verdict::name),
            r.base,
            r.unit
        );
    }
}

/// `benchmark compare BASE.json NEW.json`: exit 0 unless a bounded
/// metric is worse.
pub fn compare_files(args: &Args) -> Result<bool, String> {
    let load = |idx: usize| -> Result<Json, String> {
        let path = args
            .positional(idx)
            .ok_or("usage: benchmark compare BASE.json NEW.json")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = (load(0)?, load(1)?);
    let (specs, _) = read_specs()?;
    let rows = compare(&base, &new, &specs);
    print_rows(&rows);
    Ok(!rows
        .iter()
        .any(|r| r.bound.is_some() && r.verdict == Some(Verdict::Worse)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ops: &[f64]) -> Json {
        let runs = ops
            .iter()
            .map(|v| {
                Json::obj(vec![
                    ("correct", Json::Bool(true)),
                    (
                        "metrics",
                        Json::obj(vec![(
                            "ops_per_s",
                            Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::str("1/s"))]),
                        )]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![(
            "workloads",
            Json::obj(vec![(
                "paths-warm",
                Json::obj(vec![("runs", Json::Arr(runs))]),
            )]),
        )])
    }

    fn specs() -> Vec<Spec> {
        vec![Spec {
            name: "ops_per_s".to_string(),
            better: Better::Higher,
            bound: Some(0.05),
        }]
    }

    #[test]
    fn compare_flags_a_slowdown_beyond_the_bound() {
        let rows = compare(
            &report(&[1000.0, 1004.0, 998.0]),
            &report(&[900.0, 905.0, 897.0]),
            &specs(),
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Some(Verdict::Worse));
        assert!((rows[0].worsening - 0.10).abs() < 0.01);
        let rows = compare(
            &report(&[1000.0, 1004.0, 998.0]),
            &report(&[990.0, 1001.0, 995.0]),
            &specs(),
        );
        assert_eq!(rows[0].verdict, Some(Verdict::Same));
        let rows = compare(&report(&[1000.0]), &report(&[1100.0]), &specs());
        assert_eq!(rows[0].verdict, Some(Verdict::Better));
    }

    #[test]
    fn two_sets_disagree_when_either_is_faster_by_more_than_the_bound() {
        let slow = report(&[1000.0]);
        let fast = report(&[1100.0]);
        assert!(sets_agree(&compare(&slow, &report(&[1030.0]), &specs())));
        assert!(!sets_agree(&compare(&slow, &fast, &specs())));
        assert!(!sets_agree(&compare(&fast, &slow, &specs())));
    }

    #[test]
    fn compare_reports_noisy_runs_as_unresolved() {
        let rows = compare(
            &report(&[1000.0, 1200.0, 800.0, 1100.0]),
            &report(&[900.0, 905.0, 897.0]),
            &specs(),
        );
        assert_eq!(rows[0].verdict, Some(Verdict::Unresolved));
    }

    #[test]
    fn an_unbounded_metric_with_few_runs_gets_no_verdict() {
        let unbounded = vec![Spec {
            name: "ops_per_s".to_string(),
            better: Better::Higher,
            bound: None,
        }];
        let rows = compare(&report(&[1000.0]), &report(&[900.0]), &unbounded);
        assert_eq!(rows[0].verdict, None);
        assert!((rows[0].worsening - 0.10).abs() < 1e-9);
        // With enough runs it is judged against its own spread.
        let rows = compare(
            &report(&[1000.0, 1001.0, 999.0, 1000.5]),
            &report(&[900.0, 901.0, 899.0, 900.5]),
            &unbounded,
        );
        assert_eq!(rows[0].verdict, Some(Verdict::Worse));
    }

    #[test]
    fn a_report_survives_a_write_and_a_read() {
        let r = report(&[1000.25, 999.5]);
        let back = Json::parse(&r.render_pretty()).unwrap();
        assert_eq!(back, r);
        assert_eq!(
            values(&back, "paths-warm", "ops_per_s"),
            vec![1000.25, 999.5]
        );
        assert_eq!(unit_of(&back, "paths-warm", "ops_per_s"), "1/s");
    }
}
