//! Integration tests for the observability subsystem: operator counters
//! reflect the skip-join ablation, strategy decisions and fallbacks are
//! recorded faithfully, and tracing never changes a query's result.

use blossom_core::{Engine, EngineOptions, Strategy};
use blossom_xml::writer;

fn engine(xml: &str, skip_joins: bool, trace: bool) -> Engine {
    Engine::with_options(
        blossom_xml::Document::parse_str(xml).unwrap(),
        EngineOptions { threads: 1, skip_joins, trace, ..EngineOptions::default() },
    )
}

/// With skip joins on, the gallop sites report skipped elements on
/// skip-heavy inputs; with them off, `skipped` is exactly zero for every
/// operator that has the switch (the counter measures gallops only,
/// never linear work). The NestedList joins are reached through FLWORs:
/// a path query's flat semi-joins ignore the switch — a probe always
/// gallops, a merge never does.
#[test]
fn gallop_counters_follow_the_skip_joins_switch() {
    // Bounded NLJ: the inner NoK's range probe for each outer `a` region
    // gallops past the four `b`s living under `x`.
    let bnlj_xml = "<r><a><b/></a><x><b/><b/><b/><b/></x><a><b/></a></r>";
    // TwigStack: six childless `a`s close before the first `c` begins, so
    // the root stream leaps over them via the block max-end summary.
    let ts_xml = "<r><a/><a/><a/><a/><a/><a/><a><c/></a></r>";
    // PathStack: four `c`s precede every `a`, an unpushable prefix the
    // inner stream gallops past.
    let ps_xml = "<r><c/><c/><c/><c/><a><c/></a></r>";
    // Pipelined: the right stream skips the three `c`s before the outer
    // `a` region wholesale.
    let pl_xml = "<r><c/><c/><c/><a><c/></a></r>";
    let cases = [
        (bnlj_xml, "for $b in //a//b return $b", Strategy::BoundedNestedLoop),
        (ts_xml, "//a//c", Strategy::TwigStack),
        (ps_xml, "//a//c", Strategy::PathStack),
        (pl_xml, "for $a in //a[//c] return $a", Strategy::Pipelined),
    ];
    for (xml, query, strategy) in cases {
        let with_skip = engine(xml, true, true);
        let (bytes_skip, trace_skip) = with_skip.eval_query_bytes(query, strategy).unwrap();
        assert!(
            trace_skip.totals().skipped > 0,
            "{strategy} on {query}: expected galloped elements, trace {:?}",
            trace_skip.ops
        );

        let without_skip = engine(xml, false, true);
        let (bytes_linear, trace_linear) =
            without_skip.eval_query_bytes(query, strategy).unwrap();
        assert_eq!(
            trace_linear.totals().skipped,
            0,
            "{strategy} on {query}: skipped must be 0 with skip_joins off, trace {:?}",
            trace_linear.ops
        );
        assert_eq!(bytes_skip, bytes_linear, "{strategy} on {query}");
    }

    // The flat probe kernel on the same skip-heavy input.
    for skip_joins in [true, false] {
        let e = engine(bnlj_xml, skip_joins, true);
        let (_, probe) = e.eval_path_traced("//a//b", Strategy::BoundedNestedLoop).unwrap();
        assert!(probe.totals().skipped > 0, "{:?}", probe.ops);
        let (_, merge) = e.eval_path_traced("//a//b", Strategy::Pipelined).unwrap();
        assert_eq!(merge.totals().skipped, 0, "{:?}", merge.ops);
    }
}

/// A forced flat strategy on a non-descendant cut edge is rewritten to
/// the NestedList bounded nested loop, and leaves a fallback event in the
/// trace.
#[test]
fn pipelined_downgrade_records_a_fallback_event() {
    let e = engine("<r><a/><b/><b/></r>", true, true);
    let (nodes, trace) = e.eval_path_traced("//a/following::b", Strategy::Pipelined).unwrap();
    assert_eq!(nodes.len(), 2);
    assert!(
        trace.fallbacks.iter().any(|f| {
            f.from == Strategy::Pipelined && f.to == Strategy::BoundedNestedLoop
        }),
        "expected a Pipelined -> BoundedNestedLoop rewrite event, got {:?}",
        trace.fallbacks
    );
}

/// A TwigStack-incompatible axis is recorded as a plan verdict: the
/// planner never resolves Auto to TwigStack for it, and the trace carries
/// `twigstack_compatible == Some(false)` so profiles explain why.
#[test]
fn twigstack_incompatible_axis_recorded_in_plan() {
    let e = engine("<a><a><b1/><c1/></a></a>", true, true);
    let (nodes, trace) =
        e.eval_path_traced("//c1/preceding-sibling::b1", Strategy::Auto).unwrap();
    assert_eq!(nodes.len(), 1);
    assert_eq!(trace.twigstack_compatible, Some(false), "reason: {}", trace.plan_reason);
    assert_ne!(trace.resolved, Strategy::TwigStack);
    // The specialist itself still rejects the query loudly.
    assert!(e.eval_path_str("//c1/preceding-sibling::b1", Strategy::TwigStack).is_err());
}

/// Auto falls back to the navigational evaluator for FLWOR queries
/// outside the BlossomTree subset, and the trace records both the event
/// (with its reason) and the navigational executor.
#[test]
fn auto_fallback_events_fire_for_unsupported_flwor() {
    let e = engine("<bib><book><t>x</t></book><book><t>y</t></book></bib>", true, true);
    // A nested FLWOR in the return clause is outside the BlossomTree
    // subset entirely.
    let (_, trace) = e
        .eval_query_traced(
            "for $a in //book return <o>{ for $b in //t return $b }</o>",
            Strategy::Auto,
        )
        .unwrap();
    assert_eq!(trace.executed, Strategy::Navigational);
    assert!(
        trace.fallbacks.iter().any(|f| f.reason.contains("outside the BlossomTree subset")),
        "fallbacks: {:?}",
        trace.fallbacks
    );

    // A where-atom over a let-bound operand needs per-tuple existential
    // filtering: the NestedList pipeline falls back, the flat plan
    // filters the let-only component's one row.
    let e2 = engine("<dblp><book><crossref>1970</crossref></book></dblp>", true, true);
    let query = "let $v1 := //book where $v1/crossref < 1980 return <out>{ $v1/crossref }</out>";
    let (_, trace2) = e2.eval_query_traced(query, Strategy::BoundedNestedLoop).unwrap();
    assert_eq!(trace2.executed, Strategy::Navigational);
    assert!(!trace2.fallbacks.is_empty(), "expected a recorded fallback event");
    let (out, trace3) = e2.eval_query_traced(query, Strategy::Auto).unwrap();
    assert_eq!(trace3.executed, Strategy::Pipelined);
    assert!(trace3.fallbacks.is_empty(), "{:?}", trace3.fallbacks);
    let (nav, _) = e2.eval_query_traced(query, Strategy::Navigational).unwrap();
    assert_eq!(writer::to_string(&out), writer::to_string(&nav));
}

/// A FLWOR run records tuple counters: the NestedList pipeline's
/// enumeration under a forced strategy, the flat plan's construction
/// under `Auto`.
#[test]
fn flwor_tuple_counters_are_recorded() {
    let e = engine(
        "<bib><book><title>A</title></book><book><title>B</title></book></bib>",
        true,
        true,
    );
    let query = "for $b in //book return <t>{$b/title}</t>";
    let op = |strategy: Strategy, suffix: &str| {
        let (_, trace) = e.eval_query_traced(query, strategy).unwrap();
        trace
            .ops
            .iter()
            .find(|o| o.op.ends_with(suffix))
            .unwrap_or_else(|| panic!("no {suffix} op in {:?}", trace.ops))
            .counters
    };
    assert_eq!(op(Strategy::BoundedNestedLoop, "flwor-tuples").output, 2);
    assert_eq!(op(Strategy::Auto, " construct").output, 2);
}

/// Tracing is observational only: traced and untraced engines produce
/// byte-identical results for every strategy, on both path and FLWOR
/// queries.
#[test]
fn tracing_never_changes_results() {
    const ALL: [Strategy; 7] = [
        Strategy::Auto,
        Strategy::Navigational,
        Strategy::TwigStack,
        Strategy::PathStack,
        Strategy::Pipelined,
        Strategy::BoundedNestedLoop,
        Strategy::NaiveNestedLoop,
    ];
    let xml = "<bib><book><title>A</title><price>10</price></book>\
               <book><title>B</title><price>20</price></book><note/></bib>";
    let paths = ["//book//title", "//book/title", "//book[//price]", "//bib//note"];
    let flwors = [
        "for $b in //book return <t>{$b/title}</t>",
        "for $b in //book where $b/price > 15 return $b",
    ];
    for strategy in ALL {
        let plain = engine(xml, true, false);
        let traced = engine(xml, true, true);
        for query in paths {
            let want = plain.eval_path_str(query, strategy);
            let got = traced.eval_path_traced(query, strategy);
            match (want, got) {
                (Ok(w), Ok((g, _))) => assert_eq!(g, w, "{strategy} on {query}"),
                (Err(_), Err(_)) => {}
                (w, g) => panic!("{strategy} on {query}: {w:?} vs {:?}", g.map(|x| x.0)),
            }
        }
        for query in flwors {
            let want = plain.eval_query_str(query, strategy).map(|d| writer::to_string(&d));
            let got = traced
                .eval_query_traced(query, strategy)
                .map(|(d, _)| writer::to_string(&d));
            match (want, got) {
                (Ok(w), Ok(g)) => assert_eq!(g, w, "{strategy} on {query}"),
                (Err(_), Err(_)) => {}
                (w, g) => panic!("{strategy} on {query}: {w:?} vs {g:?}"),
            }
        }
    }
}

/// The JSON profile is schema-stable and the render mentions the
/// executed strategy and cache statistics.
#[test]
fn profile_outputs_cover_the_trace() {
    let e = engine("<r><a><b/></a></r>", true, true);
    let (_, trace) = e.eval_path_traced("//a//b", Strategy::Auto).unwrap();
    let json = trace.to_json();
    for key in ["\"blossom_profile\"", "\"operators\"", "\"phases_us\"", "\"cache\""] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    let text = trace.render();
    assert!(text.contains("strategy:"), "{text}");
    assert!(text.contains("plan cache:"), "{text}");
}
