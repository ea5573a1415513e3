//! Selectivity estimation: the estimates of the planner's ledger and of
//! the flat pipeline's per-join kernel choice.
//!
//! The paper defers the full cost-based optimizer to future work
//! (Section 5) but names its inputs: posting-list lengths, recursion,
//! and join selectivities. [`Estimator`] derives the cardinalities from
//! the load-time [`DocStats`]:
//!
//! * **posting lengths** from `tag_counts` (exact),
//! * **recursion** from `recursive_tags` (exact, per tag),
//! * **`//`-join selectivity** from the containment histogram — exact
//!   pair/ancestor counts for the top
//!   [`FREQUENT_TAG_LIMIT`](blossom_xml::stats::FREQUENT_TAG_LIMIT)
//!   tags, an independence assumption (`|a|·|d| / N`) for the long
//!   tail.
//!
//! Cardinalities count elements — the unit the operators' `scanned` and
//! `output` counters report — so an estimate and its observed
//! counterpart are directly comparable in `EXPLAIN ANALYZE`.

use crate::decompose::{CutEdge, Decomposition, NokTree};
use blossom_xml::fxhash::FxHashSet;
use blossom_xml::stats::FREQUENT_TAG_LIMIT;
use blossom_xml::DocStats;
use blossom_xpath::ast::NodeTest;
use blossom_xpath::pattern::EdgeMode;

/// Estimates saturate here; keeps `f64 → u64` conversions well away
/// from both overflow and `u64::MAX` sentinels.
const COST_CAP: f64 = 1e15;

/// Guessed fraction of candidates surviving a value (`="…"`) test, for
/// which no statistics exist.
const VALUE_TEST_SELECTIVITY: f64 = 0.5;

/// The tag a name test selects; `None` for tests without per-tag statistics.
pub(crate) fn tag_of(test: &NodeTest) -> Option<&str> {
    match test {
        NodeTest::Name(name) => Some(name.as_ref()),
        _ => None,
    }
}

/// Per-component cardinality estimates.
#[derive(Debug, Clone, Copy)]
pub struct ComponentCosts {
    /// Estimated anchors of the component root NoK (after its internal
    /// constraints).
    pub est_anchors: u64,
    /// Estimated anchors surviving all of the component's cut joins —
    /// the component's output cardinality.
    pub est_output: u64,
}

/// A cardinality/cost estimator over one document's statistics.
pub struct Estimator<'a> {
    stats: &'a DocStats,
    /// The tags whose containment the stats actually track (mirrors the
    /// top-K selection of `DocStats::compute`): for a pair of frequent
    /// tags an *absent* containment entry means a true zero, not a
    /// missing statistic.
    frequent: FxHashSet<&'a str>,
}

impl<'a> Estimator<'a> {
    /// Build an estimator; ranks the frequent-tag set once.
    pub fn new(stats: &'a DocStats) -> Estimator<'a> {
        let mut ranked: Vec<(&str, u32)> =
            stats.tag_counts.iter().map(|(t, &c)| (t.as_str(), c)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        ranked.truncate(FREQUENT_TAG_LIMIT);
        Estimator { frequent: ranked.into_iter().map(|(t, _)| t).collect(), stats }
    }

    /// Posting-list length of a node test (exact for names; the whole
    /// element/text population for wildcards/text; attributes have no
    /// posting and scan for free alongside their owner).
    pub fn test_count(&self, test: &NodeTest) -> f64 {
        match test {
            NodeTest::Name(name) => self.stats.occurrences(name) as f64,
            NodeTest::Wildcard => self.stats.element_count as f64,
            NodeTest::Text => self.stats.text_count as f64,
            NodeTest::Attribute(_) => 0.0,
        }
    }

    /// Estimated ancestor/descendant pairs `(anc, desc)`.
    pub fn pairs(&self, anc: Option<&str>, desc: &NodeTest) -> f64 {
        let n = self.stats.element_count.max(1) as f64;
        let anc_count = match anc {
            Some(tag) => self.stats.occurrences(tag) as f64,
            None => n,
        };
        match (anc, desc) {
            (Some(a), NodeTest::Name(d)) => {
                if self.frequent.contains(a) && self.frequent.contains(d.as_ref()) {
                    // Tracked pair: exact (0 when absent).
                    self.stats.containment_of(a, d).map(|c| c.pairs as f64).unwrap_or(0.0)
                } else {
                    anc_count * self.test_count(desc) / n
                }
            }
            _ => (anc_count * self.test_count(desc) / n).min(COST_CAP),
        }
    }

    /// Estimated fraction of `anc` instances with at least one `desc`
    /// descendant.
    pub fn survival(&self, anc: Option<&str>, desc: &NodeTest) -> f64 {
        let n = self.stats.element_count.max(1) as f64;
        match (anc, desc) {
            (Some(a), NodeTest::Name(d)) => {
                let anc_count = self.stats.occurrences(a).max(1) as f64;
                if self.frequent.contains(a) && self.frequent.contains(d.as_ref()) {
                    self.stats
                        .containment_of(a, d)
                        .map(|c| (c.ancestors as f64 / anc_count).min(1.0))
                        .unwrap_or(0.0)
                } else {
                    (self.test_count(desc) / n).min(1.0)
                }
            }
            (_, NodeTest::Wildcard) => 1.0,
            _ => (self.test_count(desc) / n).min(1.0),
        }
    }

    /// Fraction of a NoK's anchors surviving its *internal* (local-axis)
    /// constraints: product of per-node survivals, descendant containment
    /// standing in for the child axis (an upper bound).
    pub fn nok_survival(&self, nok: &NokTree) -> f64 {
        let root = nok.root();
        let anchor_tag = tag_of(&nok.pattern.node(root).test);
        let mut survival = 1.0f64;
        if nok.pattern.node(root).value.is_some() {
            survival *= VALUE_TEST_SELECTIVITY;
        }
        for id in nok.pattern.ids().skip(2) {
            let node = nok.pattern.node(id);
            if node.mode != EdgeMode::Mandatory {
                continue; // optional constraints do not filter
            }
            if matches!(node.test, NodeTest::Attribute(_)) {
                survival *= VALUE_TEST_SELECTIVITY;
                continue;
            }
            survival *= self.survival(anchor_tag, &node.test);
            if node.value.is_some() {
                survival *= VALUE_TEST_SELECTIVITY;
            }
        }
        survival
    }

    /// Estimate one cut component's anchors and output (`component`
    /// indexes `d.roots`; `comp_of` is [`Decomposition::components`]).
    pub fn component_costs(
        &self,
        d: &Decomposition,
        comp_of: &[usize],
        component: usize,
    ) -> ComponentCosts {
        let root = &d.noks[d.roots[component].0];
        let est_anchors =
            self.test_count(&root.pattern.node(root.root()).test) * self.nok_survival(root);
        // Discount the anchors by each cut in the engine's execution order
        // (topological, cheapest child first).
        let mut resolved = vec![false; d.noks.len()];
        resolved[d.roots[component].0] = true;
        let mut remaining: Vec<&CutEdge> =
            d.cut_edges.iter().filter(|c| comp_of[c.parent_nok] == component).collect();
        let root_count = |c: &CutEdge| {
            let child = &d.noks[c.child_nok];
            self.test_count(&child.pattern.node(child.root()).test)
        };
        let mut running = est_anchors;
        while !remaining.is_empty() {
            let pick = remaining
                .iter()
                .enumerate()
                .filter(|(_, c)| resolved[c.parent_nok])
                .min_by(|(_, a), (_, b)| root_count(a).total_cmp(&root_count(b)))
                .map(|(i, _)| i)
                .expect("cut-edge graph is a forest rooted at the component root");
            let cut = remaining.remove(pick);
            resolved[cut.child_nok] = true;
            if cut.mode == EdgeMode::Mandatory {
                let parent_tag =
                    tag_of(&d.noks[cut.parent_nok].pattern.node(cut.parent_node).test);
                let child = &d.noks[cut.child_nok];
                running *= self.survival(parent_tag, &child.pattern.node(child.root()).test)
                    * self.nok_survival(child).min(1.0);
            }
        }
        let clamp = |x: f64| x.clamp(0.0, COST_CAP) as u64;
        ComponentCosts { est_anchors: clamp(est_anchors), est_output: clamp(running) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::Decomposition;
    use blossom_flwor::BlossomTree;
    use blossom_xml::Document;
    use blossom_xpath::parse_path;

    fn setup(xml: &str, path: &str) -> (DocStats, Decomposition) {
        let doc = Document::parse_str(xml).unwrap();
        let d = Decomposition::decompose(
            &BlossomTree::from_path(&parse_path(path).unwrap()).unwrap(),
        );
        (doc.stats(), d)
    }

    #[test]
    fn anchors_track_posting_lengths() {
        let (stats, d) = setup("<r><a><b/></a><a/><a/></r>", "//a//b");
        let est = Estimator::new(&stats);
        let comp_of = d.components();
        let c = est.component_costs(&d, &comp_of, 0);
        assert_eq!(c.est_anchors, 3);
        // Containment is tracked (few tags): exactly one `a` has a `b`.
        assert_eq!(c.est_output, 1);
    }

    #[test]
    fn tracked_zero_containment_estimates_zero() {
        // `a` and `b` never co-occur; both are frequent, so the absent
        // containment entry is an exact zero.
        let (stats, d) = setup("<r><a/><a/><b/></r>", "//a//b");
        let est = Estimator::new(&stats);
        let c = est.component_costs(&d, &d.components(), 0);
        assert_eq!(c.est_output, 0);
    }
}
