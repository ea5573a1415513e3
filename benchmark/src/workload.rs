//! What the four workloads share: the run configuration, the result of a
//! measured window, and the sample arithmetic behind the metric names.

use crate::stats;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub mod cold_cli;
pub mod flwor_warm;
pub mod paths_warm;
pub mod serve_mixed;

/// The workload names, in the order reports list them.
pub const NAMES: [&str; 4] = ["paths-warm", "flwor-warm", "cold-cli", "serve-mixed"];

/// An untraced run is this many set-ups, each measured for its share of
/// the window; every metric is the median over them. Six, because the
/// set-ups of one run disagree by 3–5% (README, "Calibration") and the
/// median of six halves what the median of three left of that.
pub const SUB_RUNS: usize = 6;

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Multiplies every document's node count (`quick` runs at 0.05).
    pub scale: f64,
    /// The `blossom` binary the process-boundary workloads spawn.
    pub blossom: PathBuf,
    /// Scratch directory inside the checkout for inputs and traces.
    pub work: PathBuf,
    /// Self-test: delay every harness call into this layer.
    pub inject: Option<(String, Duration)>,
}

impl Config {
    pub fn nodes(&self, full: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(200)
    }
}

/// A named number with its unit.
pub type Metric = (String, f64, &'static str);

/// What an untraced run of one workload reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric except `setup_s`, which the caller times.
    pub metrics: Vec<Metric>,
    /// Sample counts and the op-list hash, for the report envelope.
    pub notes: Vec<(String, f64)>,
}

impl Outcome {
    /// Combine sub-runs: operations add up, each metric is the median of
    /// its values, sample counts add up and other notes are the last's.
    pub fn median_of(parts: &[Outcome]) -> Outcome {
        let last = parts.last().expect("at least one sub-run");
        let values = |name: &str| -> Vec<f64> {
            parts
                .iter()
                .filter_map(|p| p.metrics.iter().find(|m| m.0 == name).map(|m| m.1))
                .collect()
        };
        let note_sum = |name: &str| -> f64 {
            parts
                .iter()
                .filter_map(|p| p.notes.iter().find(|n| n.0 == name).map(|n| n.1))
                .sum()
        };
        Outcome {
            attempted: parts.iter().map(|p| p.attempted).sum(),
            failed: parts.iter().map(|p| p.failed).sum(),
            metrics: last
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.clone(), stats::median_of(&values(name)), *unit))
                .collect(),
            notes: last
                .notes
                .iter()
                .map(|(name, v)| {
                    (
                        name.clone(),
                        if name.ends_with("samples") {
                            note_sum(name)
                        } else {
                            *v
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Latency samples in µs, kept apart per cell of the operation mix.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    pub cells: Vec<Vec<f64>>,
}

impl Samples {
    pub fn new(cells: usize) -> Samples {
        Samples {
            cells: vec![Vec::new(); cells],
        }
    }

    pub fn push(&mut self, cell: usize, d: Duration) {
        self.cells[cell].push(d.as_secs_f64() * 1e6);
    }

    pub fn count(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }

    /// Time spent inside the operations, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.cells.iter().flatten().sum::<f64>() / 1e6
    }

    /// Each cell's median latency, for the cells that have samples.
    pub fn cell_medians(&self) -> Vec<f64> {
        self.cells
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| stats::median_of(c))
            .collect()
    }

    /// The median over cells of each cell's median. In an equal-weight
    /// mix of cells whose costs differ by orders of magnitude, the rank
    /// median of all samples sits on the boundary between two cells and
    /// is decided by the slower one's fastest outlier; the median of the
    /// cell medians is the same quantity without that knife edge.
    pub fn median_of_cell_medians(&self) -> f64 {
        stats::median_of(&self.cell_medians())
    }

    /// Nearest-rank percentile over all samples.
    pub fn percentile(&self, p: f64) -> f64 {
        let all = stats::sorted(self.cells.iter().flatten().copied().collect());
        stats::percentile(&all, p)
    }
}

/// A measured window: run `round` (one pass over the operation mix,
/// returning how many operations it attempted and how many failed) until
/// `budget` seconds have passed, always finishing the round in progress
/// so every cell is sampled equally often. Returns the samples and the
/// attempted and failed totals.
pub fn window(
    cells: usize,
    budget: f64,
    mut round: impl FnMut(&mut Samples) -> (u64, u64),
) -> (Samples, u64, u64) {
    let mut samples = Samples::new(cells);
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    loop {
        let (a, f) = round(&mut samples);
        attempted += a;
        failed += f;
        if start.elapsed().as_secs_f64() >= budget {
            return (samples, attempted, failed);
        }
    }
}

/// The six end-to-end metrics of a closed-loop workload (`setup_s`, the
/// seventh, is timed by the caller). `ops_per_s` is `correct / busy_s`:
/// checking happens between operations, so the rate is over the time
/// spent inside them.
pub fn closed_loop_metrics(
    primary: &Samples,
    alt: &Samples,
    correct: u64,
    busy_s: f64,
    peak_rss_mb: f64,
    stored_bytes_per_xml_byte: f64,
) -> Vec<Metric> {
    vec![
        metric("ops_per_s", correct as f64 / busy_s, "1/s"),
        metric("p50_us", primary.median_of_cell_medians(), "us"),
        metric("p99_us", primary.percentile(99.0), "us"),
        metric("alt_p50_us", alt.median_of_cell_medians(), "us"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric(
            "stored_bytes_per_xml_byte",
            stored_bytes_per_xml_byte,
            "ratio",
        ),
    ]
}

/// `VmHWM` (peak resident set) of a process in MB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// A configuration for unit tests: a scratch directory of its own under
/// the crate's ignored `out/`, and no `blossom` binary.
#[cfg(test)]
pub fn test_config(seed: u64, tag: &str) -> Config {
    let work = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("crate directory is writable");
    Config {
        seed,
        seconds: 0.05,
        scale: 1.0,
        blossom: PathBuf::new(),
        work,
        inject: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_cell_medians_ignores_outliers_at_a_cell_boundary() {
        let mut s = Samples::new(4);
        for (cell, us) in [(0, 10.0), (1, 20.0), (2, 400.0), (3, 900.0)] {
            for _ in 0..9 {
                s.cells[cell].push(us);
            }
        }
        // One fast outlier of the third cell would decide a rank median.
        s.cells[2].push(25.0);
        assert_eq!(s.median_of_cell_medians(), 210.0);
        assert_eq!(s.count(), 37);
        assert_eq!(s.percentile(100.0), 900.0);
    }

    #[test]
    fn sub_runs_combine_by_median_and_sum() {
        let part = |ops: f64, failed: u64, samples: f64, hash: f64| Outcome {
            attempted: 100,
            failed,
            metrics: vec![metric("ops_per_s", ops, "1/s")],
            notes: vec![
                ("samples".to_string(), samples),
                ("op_list_hash".to_string(), hash),
            ],
        };
        let all = Outcome::median_of(&[
            part(90.0, 0, 10.0, 7.0),
            part(300.0, 2, 11.0, 7.0),
            part(100.0, 0, 12.0, 7.0),
        ]);
        assert_eq!((all.attempted, all.failed), (300, 2));
        assert_eq!(all.metrics, vec![metric("ops_per_s", 100.0, "1/s")]);
        assert_eq!(
            all.notes,
            vec![
                ("samples".to_string(), 33.0),
                ("op_list_hash".to_string(), 7.0)
            ]
        );
    }

    #[test]
    fn a_window_finishes_its_round_and_respects_the_budget() {
        let (samples, attempted, failed) = window(2, 0.02, |s| {
            s.push(0, Duration::from_millis(5));
            std::thread::sleep(Duration::from_millis(5));
            (2, 1)
        });
        let rounds = samples.cells[0].len() as u64;
        assert!((4..=6).contains(&rounds), "{rounds}");
        assert_eq!((attempted, failed), (2 * rounds, rounds));
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("self") > 0.5);
    }
}
