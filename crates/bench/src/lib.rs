#![warn(missing_docs)]

//! Benchmark harness for the BlossomTree reproduction.
//!
//! Binaries (`cargo run -p blossom-bench --release --bin <name>`):
//!
//! * `table1` — regenerates the dataset-statistics table.
//! * `table2` — the query categories with measured selectivities.
//! * `table3` — the running-time matrix (XH / TS / NL-or-PL × Q1–Q6 ×
//!   d1–d5), with DNF cutoffs.
//! * `ablation` — merged-scan vs separate scans, BNLJ vs naive NLJ,
//!   binary structural joins vs holistic TwigStack.
//! * `micro` — parse/serialize/join/FLWOR micro-timings (the former
//!   criterion suite on the in-tree harness); writes `BENCH_micro.json`.
//! * `diff` — the differential harness: seeded random documents and
//!   queries, every engine configuration checked against the
//!   spec-direct oracle (`blossom-oracle`), mismatches auto-shrunk to
//!   minimized fixtures; `--replay <dir>` re-runs a fixture corpus;
//!   `--server` adds a live-`blossomd` row to the matrix.
//!   Logic lives in [`diff`].
//! * `serve_load` — closed-loop load generator for `blossomd`:
//!   concurrent connections sweep the Table-3 matrix over the five
//!   generated datasets, byte-compare every response against direct
//!   evaluation, and write throughput + p50/p95/p99 to
//!   `BENCH_server.json`; `--rate R` paces an open-loop stub that also
//!   records queueing delay.
//! * `update` — times the incremental update path (arena splice +
//!   `TagIndex::splice` + one stats pass) against a full
//!   serialize/reparse/rebuild on seeded mutation scripts over the five
//!   paper datasets; writes `BENCH_update.json`.
//! * `planner` — scores the planner: per Table-3 cell, its pick is timed
//!   against a best-of-all-strategies oracle, plus an adversarial skewed
//!   document where the per-edge semi-join kernel must probe rather than
//!   merge; writes `BENCH_planner.json`.
//!
//! Everything is dependency-free: timing uses the repeat-and-min harness
//! in [`timing`], and reports serialize through its minimal JSON writer.

pub mod diff;
pub mod harness;
pub mod queries;
pub mod timing;
pub mod trace;

pub use harness::{markdown_table, measure, Args, Measurement};
pub use queries::{queries, BenchQuery};
pub use timing::{time, Json, Sample};
pub use trace::{validate_profile_json, PROFILE_KEYS};
