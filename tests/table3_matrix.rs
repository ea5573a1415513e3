//! End-to-end correctness over the full Table 3 workload: every
//! (dataset, query) cell of the paper's evaluation returns identical
//! answers under every applicable strategy, at test scale.

use blossom_bench::queries;
use blossomtree::core::{Engine, Strategy};
use blossomtree::xmlgen::{generate, Dataset};

#[test]
fn all_thirty_cells_agree_across_strategies() {
    for ds in Dataset::all() {
        let engine = Engine::new(generate(ds, 12_000, 2024));
        for q in queries(ds) {
            let expected = engine
                .eval_path_str(q.path, Strategy::Navigational)
                .unwrap_or_else(|e| panic!("{} {}: {e}", ds.name(), q.id));
            let mut strategies = vec![
                Strategy::TwigStack,
                Strategy::BoundedNestedLoop,
                Strategy::NaiveNestedLoop,
                Strategy::Pipelined,
                Strategy::Auto,
            ];
            // PathStack applies to the chain-topology queries only.
            if q.category.ends_with('c') {
                strategies.push(Strategy::PathStack);
            }
            for strategy in strategies {
                let got = engine
                    .eval_path_str(q.path, strategy)
                    .unwrap_or_else(|e| panic!("{} {} {strategy}: {e}", ds.name(), q.id));
                assert_eq!(
                    got,
                    expected,
                    "{} {} ({}) strategy {strategy}",
                    ds.name(),
                    q.id,
                    q.path
                );
            }
        }
    }
}

/// Fuzz: randomly generated queries over each dataset's own vocabulary
/// agree across every strategy.
#[test]
fn random_queries_agree_across_strategies() {
    use blossomtree::xmlgen::{random_query, QueryGenConfig};
    for ds in Dataset::all() {
        let doc = generate(ds, 6_000, 11);
        let engine = Engine::new(doc);
        for seed in 0..40u64 {
            let query = random_query(engine.doc(), QueryGenConfig::default(), seed);
            let expected = engine
                .eval_path_str(&query, Strategy::Navigational)
                .unwrap_or_else(|e| panic!("{} {query}: {e}", ds.name()));
            for strategy in [
                Strategy::TwigStack,
                Strategy::Pipelined,
                Strategy::BoundedNestedLoop,
                Strategy::Auto,
            ] {
                let got = engine
                    .eval_path_str(&query, strategy)
                    .unwrap_or_else(|e| panic!("{} {query} {strategy}: {e}", ds.name()));
                assert_eq!(got, expected, "{} {query} {strategy}", ds.name());
            }
        }
    }
}

/// The planner is pinned on Table 3: every cell resolves to the flat NoK
/// pipeline and runs it as planned — no fallback event, no plan rewrite.
/// None of the 30 cells is an exception: every cut edge in Table 3 is a
/// `//`-join, and measured at 1k, 10k and 100k nodes per document the
/// flat operators beat the navigational walk on all 30 (by 1.5x on
/// d4.Q3, the closest, up to three orders of magnitude on d2.Q2), and
/// TwigStack and PathStack on every cell they can evaluate
/// (EXPERIMENTS.md, "Planner calibration"). The path shape `Auto` does
/// send to the walk — a `following`/`preceding` cut — is not in Table 3;
/// `tests/flat_pipeline.rs` pins it.
#[test]
fn auto_runs_the_flat_pipeline_on_all_thirty_cells() {
    use blossomtree::core::EngineOptions;
    for ds in Dataset::all() {
        let engine = Engine::with_options(
            generate(ds, 12_000, 2024),
            EngineOptions { trace: true, ..EngineOptions::default() },
        );
        for q in queries(ds) {
            let cell = format!("{} {} ({})", ds.name(), q.id, q.path);
            let (_, trace) = engine.eval_path_traced(q.path, Strategy::Auto).unwrap();
            assert_eq!(trace.resolved, Strategy::Pipelined, "{cell}: {}", trace.plan_reason);
            assert_eq!(trace.executed, trace.resolved, "{cell}");
            assert!(trace.fallbacks.is_empty(), "{cell}: {:?}", trace.fallbacks);
            assert!(trace.totals().scanned > 0, "{cell}: {:?}", trace.ops);

            // EXPLAIN names the operators with the exact posting lengths
            // they read and an estimated output length; EXPLAIN ANALYZE
            // reports the actual length at the same position (a semi-join's
            // kernel suffix is the estimate's there, the input's here).
            let plan = engine.explain_path(q.path).unwrap();
            assert_eq!(plan.strategy, Strategy::Pipelined, "{cell}");
            let text = plan.to_string();
            assert!(text.contains("operators:"), "{cell}: {text}");
            assert!(!plan.operators.is_empty(), "{cell}");
            for (line, op) in plan.operators.iter().zip(&trace.ops) {
                let label = op.op.split('/').next().unwrap();
                assert!(line.trim_start().starts_with(label), "{cell}: {line:?} vs {:?}", op.op);
                assert!(line.contains("postings "), "{cell}: {line}");
                assert!(line.contains("est. out "), "{cell}: {line}");
            }
            let kinds = ["scan", "semijoin/merge", "semijoin/probe", "nok-match", "bindings"];
            assert!(
                plan.operators.iter().all(|l| kinds.iter().any(|k| l.contains(k))),
                "{cell}: {text}"
            );
            // A cell whose result is not empty ran the whole plan.
            if trace.ops.last().is_some_and(|op| op.counters.output > 0) {
                assert_eq!(trace.ops.len(), plan.operators.len(), "{cell}");
            }
        }
    }
}
