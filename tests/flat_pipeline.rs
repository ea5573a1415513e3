//! The flat NoK pipeline (`blossom_core::flat`) against the reference
//! evaluators: a seeded property sweep, one named case per shape the
//! pipeline must handle inside the pattern algebra, and its deadline
//! contract.

use blossomtree::core::flat::FlatPlan;
use blossomtree::core::{Engine, EngineError, EngineOptions, Strategy};
use blossomtree::oracle::Oracle;
use blossomtree::xml::Document;
use blossomtree::xmlgen::{generate, random_path_query_full, random_query, Dataset, QueryGenConfig};
use std::time::{Duration, Instant};

/// Forced merge ≡ forced probe ≡ per-edge kernels ≡ the navigational
/// evaluator ≡ the oracle, over generated paths on recursive (d1, d4) and
/// flat (d2) documents. 2,400 rounds; queries outside the pattern algebra
/// (positional, `or`, `not`) must be rejected by both forced strategies.
#[test]
fn flat_kernels_agree_with_navigational_and_oracle() {
    let datasets = [Dataset::D1Recursive, Dataset::D4Treebank, Dataset::D2Address];
    let (mut rounds, mut evaluated) = (0, 0);
    for (di, &dataset) in datasets.iter().enumerate() {
        for replica in 0..16u64 {
            let seed = 0xF1A7 + 31 * replica + di as u64;
            let engine = Engine::new(generate(dataset, 400, seed));
            let oracle = Oracle::new(engine.doc());
            for q in 0..50u64 {
                // Both generators: the full-surface one (all axes, value and
                // attribute tests, some queries outside the algebra) and the
                // twig-shaped one (deeper `//` nesting).
                let query = if q % 2 == 0 {
                    random_path_query_full(engine.doc(), seed ^ (q << 8))
                } else {
                    random_query(engine.doc(), QueryGenConfig::default(), seed ^ (q << 8))
                };
                rounds += 1;
                let expected = engine
                    .eval_path_str(&query, Strategy::Navigational)
                    .unwrap_or_else(|e| panic!("{dataset:?} {query}: {e}"));
                let merge = engine.eval_path_str(&query, Strategy::Pipelined);
                let probe = engine.eval_path_str(&query, Strategy::BoundedNestedLoop);
                let (Ok(merge), Ok(probe)) = (merge, probe) else {
                    let path = blossomtree::xpath::parse_path(&query).unwrap();
                    assert!(
                        path.has_positional() || path.has_disjunction(),
                        "{dataset:?} {query}: rejected inside the pattern algebra"
                    );
                    continue;
                };
                evaluated += 1;
                assert_eq!(merge, expected, "{dataset:?} seed {seed} merge {query}");
                assert_eq!(probe, expected, "{dataset:?} seed {seed} probe {query}");
                let auto = engine.eval_path_str(&query, Strategy::Auto).unwrap();
                assert_eq!(auto, expected, "{dataset:?} seed {seed} auto {query}");
                let reference = oracle.eval_path_str(&query).unwrap();
                assert_eq!(reference, expected, "{dataset:?} seed {seed} oracle {query}");
            }
        }
    }
    assert_eq!(rounds, 2_400);
    assert!(evaluated >= 1_500, "only {evaluated} of {rounds} queries reached the flat pipeline");
}

/// One traced evaluation under each flat strategy and `Auto`; asserts the
/// flat operators ran (no rewrite to another pipeline) and returns the
/// result's tag names.
fn flat(xml: &str, query: &str) -> Vec<String> {
    let engine = Engine::with_options(
        Document::parse_str(xml).unwrap(),
        EngineOptions { trace: true, ..EngineOptions::default() },
    );
    let expected = engine.eval_path_str(query, Strategy::Navigational).unwrap();
    for strategy in [Strategy::Pipelined, Strategy::BoundedNestedLoop, Strategy::Auto] {
        let (nodes, trace) = engine.eval_path_traced(query, strategy).unwrap();
        assert_eq!(nodes, expected, "{strategy} on {query}");
        assert!(trace.fallbacks.is_empty(), "{strategy} on {query}: {:?}", trace.fallbacks);
        assert_eq!(trace.executed, trace.resolved, "{strategy} on {query}");
        assert!(
            trace.ops.iter().all(|o| o.op != "navigational" && !o.op.starts_with("nok-")),
            "{strategy} on {query} left the flat pipeline: {:?}",
            trace.ops
        );
    }
    let doc = engine.doc();
    expected
        .iter()
        .map(|&n| doc.tag_name(n).map_or_else(|| format!("#{}", doc.text(n).unwrap()), String::from))
        .collect()
}

#[test]
fn child_and_sibling_and_self_edges_inside_a_nok() {
    let xml = "<r><a><b/><c/><d/></a><a><c/><b/></a><a><b/></a></r>";
    assert_eq!(flat(xml, "//a/b").len(), 3);
    assert_eq!(flat(xml, "//a/b/following-sibling::c"), ["c"]);
    assert_eq!(flat(xml, "//a/b/preceding-sibling::c"), ["c"]);
    assert_eq!(flat(xml, "//a[b/following-sibling::d]/c"), ["c"]);
    assert_eq!(flat(xml, "//a/b/self::b").len(), 3);
    assert_eq!(flat(xml, "//a/c/self::b").len(), 0);
    // Sibling bindings of several contexts interleave and repeat: the
    // result is still distinct and in document order.
    let xml = "<r><x/><y/><x/><y/><y/></r>";
    assert_eq!(flat(xml, "//x/following-sibling::y").len(), 3);
}

#[test]
fn value_and_attribute_tests() {
    let xml = r#"<bib><book year="1994"><price>65</price><t>one</t></book>
                 <book year="2000"><price>39</price><t>two</t></book>
                 <book><price>129</price><t>three</t></book></bib>"#;
    assert_eq!(flat(xml, "//book[price < 100]/t").len(), 2);
    assert_eq!(flat(xml, r#"//book[t = "two"]//price"#).len(), 1);
    assert_eq!(flat(xml, "//book[@year]/t").len(), 2);
    assert_eq!(flat(xml, r#"//book[@year = "2000"]/t"#).len(), 1);
    assert_eq!(flat(xml, "//book[@year > 1995][price < 50]").len(), 1);
    // An attribute name the document never uses: empty without a scan.
    assert_eq!(flat(xml, "//book[@isbn]/t").len(), 0);
}

#[test]
fn wildcard_and_text_tests() {
    let xml = "<r><a>hello<b/>world</a><c><b>deep</b></c></r>";
    assert_eq!(flat(xml, "//a/*"), ["b"]);
    assert_eq!(flat(xml, "//*[b]"), ["a", "c"]);
    assert_eq!(flat(xml, "//a//text()"), ["#hello", "#world"]);
    assert_eq!(flat(xml, "//c//text()"), ["#deep"]);
    // Wildcard and text() NoK roots below a cut edge have no posting list.
    assert_eq!(flat(xml, "//r//*").len(), 4);
    assert_eq!(flat(xml, "//*//*[text()]"), ["a", "b"]);
}

#[test]
fn rooted_paths_filter_on_level_one() {
    let xml = "<a><a><b/></a><b/></a>";
    assert_eq!(flat(xml, "/a").len(), 1);
    assert_eq!(flat(xml, "/a/b").len(), 1, "only the outer a is at level 1");
    assert_eq!(flat(xml, "/a//b").len(), 2);
    assert_eq!(flat(xml, "/b").len(), 0);
    assert_eq!(flat(xml, "/*/a/b").len(), 1);
}

#[test]
fn output_node_that_is_not_a_nok_root() {
    // d3.Q2's shape: the cut edges hang off `item`, the output is its
    // `title` child.
    let xml = "<r><item><title>t1</title><author><ci><sa/></ci></author></item>\
               <item><title>t2</title><author><ci/></author></item>\
               <item><author><ci><sa/></ci></author></item></r>";
    assert_eq!(flat(xml, "//item[//author/ci//sa]/title"), ["title"]);
    // Output two local steps below the last NoK root.
    assert_eq!(flat(xml, "//r//item/author/ci").len(), 3);
}

#[test]
fn predicates_hanging_off_interior_nodes() {
    // d1.Q4's shape: a `//` predicate on an interior node of a NoK, and
    // the spine leaving that NoK from another interior node.
    let xml = "<a><c2><b1><c2><c2><b1/></c2><b1><c3/></b1></c2></b1></c2>\
               <c2><b1><c2><b1><c3/></b1></c2></b1></c2></a>";
    assert_eq!(flat(xml, "//a//c2//b1/c2[//c2[b1]]/b1//c3").len(), 1);
    assert_eq!(flat(xml, "//a//c2/b1/c2/b1//c3").len(), 2);
    // The cut edge's parent endpoint is not the NoK root (d3.Q1's shape).
    let xml = "<r><item><attributes><x><length/></x></attributes></item>\
               <item><attributes/><length/></item></r>";
    assert_eq!(flat(xml, "//item/attributes//length").len(), 1);
}

#[test]
fn recursive_documents_keep_nested_witnesses_apart() {
    let xml = "<a><a><b/></a><b/></a>";
    assert_eq!(flat(xml, "//a//b").len(), 2);
    assert_eq!(flat(xml, "//a[//a]//b").len(), 2, "both b's are below the outer a");
    assert_eq!(flat(xml, "//a//a//b").len(), 1);
    assert_eq!(flat(xml, "//a[b]/a/b").len(), 1);
}

#[test]
fn a_name_absent_from_the_symbol_table_is_empty_without_a_scan() {
    let engine = Engine::with_options(
        Document::parse_str("<r><a><b/></a></r>").unwrap(),
        EngineOptions { trace: true, ..EngineOptions::default() },
    );
    for query in ["//a//zzz", "//zzz//b", "//a[zzz]/b", "//a/b[//zzz]"] {
        let (nodes, trace) = engine.eval_path_traced(query, Strategy::Auto).unwrap();
        assert!(nodes.is_empty(), "{query}");
        assert!(trace.ops.is_empty(), "{query} ran operators: {:?}", trace.ops);
        assert_eq!(trace.executed, Strategy::Pipelined, "{query}");
        let plan = engine.explain_path(query).unwrap().to_string();
        assert!(plan.contains("never occurs"), "{plan}");
    }
}

/// A semi-join's kernel follows the lists the operator is handed, not the
/// posting lists they started as: a value test leaves one `x` of 200, so
/// the descendant semi-join probes the 400 `c`s where the posting lengths
/// (and EXPLAIN's estimate, which cannot see the value's selectivity)
/// say merge.
#[test]
fn the_kernel_follows_the_lists_an_operator_is_handed() {
    let mut xml = String::from("<r>");
    for _ in 0..199 {
        xml.push_str("<x><k>0</k><c/><c/></x>");
    }
    xml.push_str("<x><k>7</k><c/><c/></x></r>");
    let engine = Engine::with_options(
        Document::parse_str(&xml).unwrap(),
        EngineOptions { trace: true, ..EngineOptions::default() },
    );
    let query = "//x[k = 7]//c";
    let (nodes, trace) = engine.eval_path_traced(query, Strategy::Auto).unwrap();
    assert_eq!(nodes.len(), 2);
    let join = trace.ops.iter().find(|o| o.op.contains("desc-semijoin")).expect("one cut edge");
    assert!(join.op.ends_with("/probe"), "{:?}", trace.ops);
    assert!(join.counters.skipped > 0 && join.counters.scanned < 10, "{:?}", join);
    let plan = engine.explain_path(query).unwrap().to_string();
    assert!(plan.contains("desc-semijoin/merge"), "{plan}");
    // Forced strategies still force.
    let (_, merge) = engine.eval_path_traced(query, Strategy::Pipelined).unwrap();
    assert!(merge.ops.iter().any(|o| o.op.ends_with("desc-semijoin/merge")), "{:?}", merge.ops);
}

#[test]
fn a_following_cut_edge_is_a_recorded_plan_rewrite() {
    let engine = Engine::with_options(
        Document::parse_str("<r><a/><b/><b/></r>").unwrap(),
        EngineOptions { trace: true, ..EngineOptions::default() },
    );
    for strategy in [Strategy::Pipelined, Strategy::BoundedNestedLoop] {
        let (nodes, trace) = engine.eval_path_traced("//a/following::b", strategy).unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(trace.fallbacks.len(), 1, "{:?}", trace.fallbacks);
        assert_eq!(trace.fallbacks[0].to, Strategy::BoundedNestedLoop);
        assert!(trace.fallbacks[0].reason.contains("semi-join"), "{:?}", trace.fallbacks);
        assert_eq!(trace.executed, Strategy::BoundedNestedLoop);
    }
    // `Auto` plans the navigational walk up front: nothing to rewrite.
    let (nodes, trace) = engine.eval_path_traced("//a/following::b", Strategy::Auto).unwrap();
    assert_eq!(nodes.len(), 2);
    assert_eq!(trace.resolved, Strategy::Navigational);
    assert_eq!(trace.executed, Strategy::Navigational);
    assert!(trace.fallbacks.is_empty(), "{:?}", trace.fallbacks);
}

#[test]
fn an_expired_deadline_aborts_the_flat_pipeline_and_auto_does_not_fall_back() {
    let engine = Engine::with_options(
        generate(Dataset::D1Recursive, 2_000, 9),
        EngineOptions {
            trace: true,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..EngineOptions::default()
        },
    );
    for strategy in [Strategy::Pipelined, Strategy::BoundedNestedLoop, Strategy::Auto] {
        let err = engine.eval_path_str("//a[//b2][//b1]//b3", strategy).unwrap_err();
        assert!(matches!(err, EngineError::Deadline), "{strategy}: {err}");
    }
    // The pipeline polls between operators: a deadline that passes
    // before the k-th operator aborts the run there, for every k.
    let query = "//a[//b2][//b1]//b3";
    let path = blossomtree::xpath::parse_path(query).unwrap();
    let bt = blossomtree::flwor::BlossomTree::from_path(&path).unwrap();
    let d = blossomtree::core::Decomposition::decompose(&bt);
    let plan = FlatPlan::compile(&d, bt.returning[0], engine.doc(), engine.stats()).unwrap();
    let operators = plan.to_string().lines().count();
    assert!(operators >= 8, "{plan}");
    for k in 0..operators {
        let polls = std::cell::Cell::new(0);
        let poll = || {
            polls.set(polls.get() + 1);
            if polls.get() > k {
                Err(EngineError::Deadline)
            } else {
                Ok(())
            }
        };
        let run = plan.run(engine.doc(), engine.index(), None, None, &poll);
        assert!(matches!(run, Err(EngineError::Deadline)), "deadline before operator {k}");
        assert_eq!(polls.get(), k + 1, "one poll per operator");
    }
    let mut live = engine;
    live.set_deadline(None);
    let (_, trace) = live.eval_path_traced("//a[//b2][//b1]//b3", Strategy::Auto).unwrap();
    assert!(trace.ops.iter().all(|o| o.op != "navigational"), "{:?}", trace.ops);
    assert!(trace.fallbacks.is_empty());
}
