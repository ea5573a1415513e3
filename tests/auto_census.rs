//! The `Auto` census: generated FLWORs under `Auto` run on exactly one of
//! two plans — the flat FLWOR plan (`blossom_core::flwor`) or the
//! navigational walk — and return the navigational walk's bytes either
//! way. No NestedList operator may run: no `flwor-tuples`, NoK scan or
//! stream, or pipelined-join row appears in any trace.
//!
//! Run with `--nocapture` to see the tally of rounds by tier and by the
//! flat compiler's reason for rejecting a query.

use blossomtree::core::{Engine, EngineOptions, QueryTrace, Strategy};
use blossomtree::xml::writer;
use blossomtree::xmlgen::{generate, random_flwor_query, Dataset};
use std::collections::BTreeMap;

/// Rounds per dataset, and the generated documents' size.
const ROUNDS: u64 = 400;
const NODES: usize = 160;

/// Operator rows only the NestedList pipeline records.
const NESTED_LIST_OPS: [&str; 4] = ["flwor-tuples", "nok-scan", "nok-stream", "pipelined-join"];

/// The tier an `Auto` trace ran on: `"flat"`, or the reason the flat
/// compiler rejected the query (the navigational walk ran instead).
fn tier(query: &str, trace: &QueryTrace) -> String {
    if let Some(op) = trace.ops.iter().find(|o| NESTED_LIST_OPS.contains(&o.op.as_str())) {
        panic!("{query}: a NestedList operator ran under auto ({}): {:?}", op.op, trace.ops);
    }
    assert_eq!(trace.resolved, Strategy::Pipelined, "{query}: {}", trace.plan_reason);
    match trace.executed {
        Strategy::Pipelined => {
            let reason = &trace.plan_reason;
            assert!(reason.starts_with("flat FLWOR plan"), "{query}: {reason}");
            assert!(trace.fallbacks.is_empty(), "{query}: {:?}", trace.fallbacks);
            "flat".to_string()
        }
        Strategy::Navigational => {
            let [fallback] = trace.fallbacks.as_slice() else {
                panic!("{query}: expected one fallback, got {:?}", trace.fallbacks)
            };
            assert_eq!(fallback.to, Strategy::Navigational, "{query}");
            assert!(trace.ops.iter().all(|o| o.op == "navigational"), "{query}: {:?}", trace.ops);
            let reason = fallback.reason.trim_start_matches("outside the flat FLWOR algebra: ");
            // `$v0 is bound twice` and `$v2 is bound twice` are one shape.
            let mut shape = String::new();
            let mut digits = false;
            for c in reason.chars() {
                if digits && c.is_ascii_digit() {
                    continue;
                }
                digits = c == 'v' && shape.ends_with('$');
                shape.push(c);
            }
            format!("navigational: {shape}")
        }
        other => panic!("{query}: auto executed {other}"),
    }
}

#[test]
fn auto_runs_the_flat_plan_or_the_navigational_walk() {
    let mut tally: BTreeMap<String, usize> = BTreeMap::new();
    for (d, dataset) in Dataset::all().into_iter().enumerate() {
        for round in 0..ROUNDS {
            let seed = (d as u64 * ROUNDS + round).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xCE25;
            let doc = generate(dataset, NODES, seed);
            let query = random_flwor_query(&doc, seed);
            let traced = EngineOptions { trace: true, ..EngineOptions::default() };
            let engine = Engine::with_options(doc, traced);
            let nav = engine.eval_query_str(&query, Strategy::Navigational);
            let key = match (engine.eval_query_traced(&query, Strategy::Auto), nav) {
                (Ok((out, trace)), Ok(nav)) => {
                    assert_eq!(
                        writer::to_string(&out),
                        writer::to_string(&nav),
                        "{dataset:?} round {round}: {query}"
                    );
                    tier(&query, &trace)
                }
                (Err(_), Err(_)) => "rejected by both".to_string(),
                (auto, nav) => panic!(
                    "{dataset:?} round {round}: {query}\n  auto: {:?}\n  navigational: {:?}",
                    auto.map(|(d, _)| writer::to_string(&d)),
                    nav.map(|d| writer::to_string(&d))
                ),
            };
            *tally.entry(key).or_default() += 1;
        }
    }
    println!("auto census over {} FLWORs:", ROUNDS * 5);
    for (key, n) in &tally {
        println!("  {n:5}  {key}");
    }
    assert!(tally.get("flat").copied().unwrap_or(0) > 0, "{tally:?}");
    assert!(tally.keys().any(|k| k.starts_with("navigational")), "{tally:?}");
}
