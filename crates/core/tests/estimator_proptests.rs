//! Property tests for the v2 planner's cardinality estimator
//! (`blossom_core::Estimator`): on arbitrary generated documents the
//! estimates must be *exact* wherever the statistics track the inputs
//! (posting lengths always; containment for frequent-tag pairs) and
//! stay within the trivial structural bounds everywhere else, judged
//! against oracle counts from brute-force ancestor walks.


// Gated: requires the external `proptest` crate. Build with
// `--features proptest` after restoring the dev-dependency (network).
#![cfg(feature = "proptest")]

use blossom_core::{Decomposition, Estimator};
use blossom_flwor::BlossomTree;
use blossom_xml::stats::FREQUENT_TAG_LIMIT;
use blossom_xml::{DocStats, Document};
use blossom_xmlgen::{generate, Dataset};
use blossom_xpath::ast::NodeTest;
use blossom_xpath::parse_path;
use proptest::prelude::*;
use std::collections::HashMap;

fn dataset() -> impl Strategy<Value = Dataset> {
    prop::sample::select(Dataset::all().to_vec())
}

fn name_test(tag: &str) -> NodeTest {
    NodeTest::Name(tag.into())
}

/// The tags whose containment the stats track, recomputed the same way
/// `DocStats::compute` ranks them (count desc, name asc, top K).
fn frequent(stats: &DocStats) -> Vec<String> {
    let mut ranked: Vec<(&String, u32)> =
        stats.tag_counts.iter().map(|(t, &c)| (t, c)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    ranked.truncate(FREQUENT_TAG_LIMIT);
    ranked.into_iter().map(|(t, _)| t.clone()).collect()
}

/// Oracle: proper-ancestor `(a, d)` pairs, counted the slow way.
fn oracle_pairs(doc: &Document, a: &str, d: &str) -> u64 {
    doc.elements()
        .filter(|&n| doc.tag_name(n) == Some(d))
        .map(|n| doc.ancestors(n).filter(|&x| doc.tag_name(x) == Some(a)).count() as u64)
        .sum()
}

/// Oracle: `a` elements with at least one proper `d` descendant.
fn oracle_ancestors(doc: &Document, a: &str, d: &str) -> u64 {
    doc.elements()
        .filter(|&n| doc.tag_name(n) == Some(a))
        .filter(|&n| doc.descendants(n).any(|c| c != n && doc.tag_name(c) == Some(d)))
        .count() as u64
}

/// Deterministically pick a tag of the document from random bits.
fn pick_tag(stats: &DocStats, bits: u64) -> String {
    let mut tags: Vec<&String> = stats.tag_counts.keys().collect();
    tags.sort();
    tags[(bits % tags.len() as u64) as usize].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Posting-length estimates are exact for every tag that occurs,
    /// zero for one that does not, and the wildcard/text populations
    /// match the stats.
    #[test]
    fn posting_estimates_are_exact((ds, nodes, seed) in (
        dataset(),
        300usize..3_000,
        any::<u64>(),
    )) {
        let doc = generate(ds, nodes, seed);
        let stats = doc.stats();
        let est = Estimator::new(&stats);
        let mut brute: HashMap<&str, u64> = HashMap::new();
        for n in doc.elements() {
            *brute.entry(doc.tag_name(n).expect("element has a tag")).or_insert(0) += 1;
        }
        for (tag, &count) in &brute {
            prop_assert_eq!(est.test_count(&name_test(tag)) as u64, count);
        }
        prop_assert_eq!(est.test_count(&name_test("no-such-tag")) as u64, 0);
        prop_assert_eq!(est.test_count(&NodeTest::Wildcard) as u64, stats.element_count as u64);
        prop_assert_eq!(est.test_count(&NodeTest::Text) as u64, stats.text_count as u64);
    }

    /// `pairs` and `survival` match brute-force ancestor walks exactly
    /// for tracked (frequent) tag pairs, and stay within the trivial
    /// upper bounds for the independence-estimated tail.
    #[test]
    fn containment_estimates_match_oracle((ds, nodes, seed, bits) in (
        dataset(),
        300usize..2_000,
        any::<u64>(),
        any::<u64>(),
    )) {
        let doc = generate(ds, nodes, seed);
        let stats = doc.stats();
        let est = Estimator::new(&stats);
        let freq = frequent(&stats);
        let a = pick_tag(&stats, bits);
        let d = pick_tag(&stats, bits >> 16);
        let test = name_test(&d);

        let pairs = est.pairs(Some(a.as_str()), &test);
        let survival = est.survival(Some(a.as_str()), &test);
        prop_assert!((0.0..=1.0).contains(&survival), "survival {survival} out of range");

        if freq.contains(&a) && freq.contains(&d) {
            prop_assert_eq!(pairs as u64, oracle_pairs(&doc, &a, &d));
            let survivors = survival * f64::from(stats.occurrences(&a));
            let oracle = oracle_ancestors(&doc, &a, &d) as f64;
            prop_assert!(
                (survivors - oracle).abs() < 1e-6 * (oracle + 1.0),
                "survivors {survivors} vs oracle {oracle}"
            );
        } else {
            // Independence estimate: bounded by the cross product.
            let bound =
                f64::from(stats.occurrences(&a)) * f64::from(stats.occurrences(&d));
            prop_assert!(pairs <= bound + 1e-9, "pairs {pairs} above bound {bound}");
        }
    }

    /// Whole-component estimates for `//a//b`: anchors equal the `a`
    /// posting length always; the output cardinality equals the number
    /// of `a` elements with a `b` descendant when both tags are tracked
    /// (±1 for float truncation), and never exceeds the anchors.
    #[test]
    fn component_estimates_match_oracle((ds, nodes, seed, bits) in (
        dataset(),
        300usize..2_000,
        any::<u64>(),
        any::<u64>(),
    )) {
        let doc = generate(ds, nodes, seed);
        let stats = doc.stats();
        let est = Estimator::new(&stats);
        let freq = frequent(&stats);
        let a = pick_tag(&stats, bits);
        let b = pick_tag(&stats, bits >> 16);

        let path = format!("//{a}//{b}");
        let tree = BlossomTree::from_path(&parse_path(&path).unwrap()).unwrap();
        let d = Decomposition::decompose(&tree);
        let comp_of = d.components();
        let c = est.component_costs(&d, &comp_of, 0);

        prop_assert_eq!(c.est_anchors, u64::from(stats.occurrences(&a)));
        prop_assert!(
            c.est_output <= c.est_anchors,
            "output {} above anchors {}", c.est_output, c.est_anchors
        );
        if freq.contains(&a) && freq.contains(&b) {
            let oracle = oracle_ancestors(&doc, &a, &b);
            prop_assert!(
                c.est_output.abs_diff(oracle) <= 1,
                "est_output {} vs oracle {}", c.est_output, oracle
            );
        }
    }
}
