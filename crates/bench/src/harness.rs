//! Measurement harness: timed runs with a DNF cutoff.
//!
//! Table 3 reports each cell as the average of three executions with a
//! 15-minute did-not-finish cutoff. The harness reproduces that protocol
//! (with a configurable cutoff — the default sweep uses a far smaller one
//! since the substrate is orders of magnitude faster than 2004 hardware).

use blossom_core::{Engine, Strategy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one measured cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measurement {
    /// Average wall time over the runs, plus the result cardinality.
    Time {
        /// Mean duration across runs.
        avg: Duration,
        /// Number of result nodes.
        result_count: usize,
    },
    /// Exceeded the cutoff ("DNF" in Table 3).
    DidNotFinish,
    /// The strategy cannot evaluate the query (e.g. PL on recursive data).
    NotApplicable,
}

impl Measurement {
    /// Render like a Table 3 cell (seconds with 2–3 significant digits).
    pub fn cell(&self) -> String {
        match self {
            Measurement::Time { avg, .. } => {
                let secs = avg.as_secs_f64();
                if secs >= 100.0 {
                    format!("{secs:.0}")
                } else if secs >= 1.0 {
                    format!("{secs:.2}")
                } else if secs >= 1e-4 {
                    format!("{:.2}ms", secs * 1e3)
                } else {
                    // The flat pipeline's cells: tens of microseconds.
                    format!("{:.0}µs", secs * 1e6)
                }
            }
            Measurement::DidNotFinish => "DNF".to_string(),
            Measurement::NotApplicable => "-".to_string(),
        }
    }
}

/// Run `query` under `strategy` `runs` times with a `cutoff`; returns the
/// averaged measurement. The run executes on a scoped worker thread so a
/// blown cutoff is reported as DNF (the worker is detached and its result
/// discarded, mirroring the paper's protocol).
pub fn measure(
    engine: Arc<Engine>,
    query: &str,
    strategy: Strategy,
    runs: u32,
    cutoff: Duration,
) -> Measurement {
    let mut total = Duration::ZERO;
    let mut result_count = 0usize;
    for _ in 0..runs {
        let done = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let engine_cl = engine.clone();
        let query_cl = query.to_string();
        let done_cl = done.clone();
        std::thread::spawn(move || {
            let start = Instant::now();
            let result = engine_cl.eval_path_str(&query_cl, strategy);
            let elapsed = start.elapsed();
            done_cl.store(true, Ordering::SeqCst);
            let _ = tx.send((elapsed, result.map(|r| r.len())));
        });
        match rx.recv_timeout(cutoff) {
            Ok((elapsed, Ok(count))) => {
                total += elapsed;
                result_count = count;
            }
            Ok((_, Err(_))) => return Measurement::NotApplicable,
            Err(_) => return Measurement::DidNotFinish,
        }
    }
    Measurement::Time { avg: total / runs.max(1), result_count }
}

/// Format a markdown table from a header and rows.
pub fn markdown_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&header.join(" | "));
    out.push_str(" |\n|");
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Parse `--flag value` style CLI options (tiny, no external crates).
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Capture the process arguments.
    pub fn parse() -> Args {
        Args { raw: std::env::args().skip(1).collect() }
    }

    /// Value of `--name`, parsed.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    /// Is the bare flag present?
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blossom_xml::Document;

    #[test]
    fn measure_reports_time_and_count() {
        let engine = Arc::new(Engine::new(
            Document::parse_str("<r><a><b/></a><a/></r>").unwrap(),
        ));
        let m = measure(engine, "//a/b", Strategy::Navigational, 2, Duration::from_secs(5));
        match m {
            Measurement::Time { result_count, .. } => assert_eq!(result_count, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn measure_flags_inapplicable_strategies() {
        let engine =
            Arc::new(Engine::new(Document::parse_str("<r><a/></r>").unwrap()));
        // TwigStack rejects wildcards.
        let m = measure(
            engine,
            "//a/*",
            Strategy::TwigStack,
            1,
            Duration::from_secs(5),
        );
        assert_eq!(m, Measurement::NotApplicable);
    }

    #[test]
    fn cells_render() {
        assert_eq!(Measurement::DidNotFinish.cell(), "DNF");
        assert_eq!(Measurement::NotApplicable.cell(), "-");
        let t = Measurement::Time { avg: Duration::from_millis(1500), result_count: 1 };
        assert_eq!(t.cell(), "1.50");
        let ms = Measurement::Time { avg: Duration::from_micros(1500), result_count: 1 };
        assert_eq!(ms.cell(), "1.50ms");
        let us = Measurement::Time { avg: Duration::from_micros(42), result_count: 1 };
        assert_eq!(us.cell(), "42µs");
    }

    #[test]
    fn markdown_rendering() {
        let t = markdown_table(
            &["a".into(), "b".into()],
            &[vec!["1".into(), "2".into()]],
        );
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }
}
