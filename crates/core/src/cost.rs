//! Selectivity estimation and operator cost formulas — the cost model
//! behind the v2 planner.
//!
//! The paper defers the full cost-based optimizer to future work
//! (Section 5) but names its inputs: posting-list lengths, recursion,
//! and join selectivities. [`Estimator`] derives all three from the
//! load-time [`DocStats`]:
//!
//! * **posting lengths** from `tag_counts` (exact),
//! * **recursion** from `recursive_tags` (exact, per tag),
//! * **`//`-join selectivity** from the containment histogram — exact
//!   pair/ancestor counts for the top
//!   [`FREQUENT_TAG_LIMIT`](blossom_xml::stats::FREQUENT_TAG_LIMIT)
//!   tags, an independence assumption (`|a|·|d| / N`) for the long
//!   tail.
//!
//! Costs are in abstract *elements touched* — the same unit the
//! operators charge against a [`crate::budget::WorkBudget`] — so an
//! estimate and its observed counterpart are directly comparable, which
//! is what makes mid-query re-planning a single threshold test.

use crate::decompose::{CutEdge, Decomposition, NokTree};
use blossom_xml::fxhash::FxHashSet;
use blossom_xml::stats::FREQUENT_TAG_LIMIT;
use blossom_xml::DocStats;
use blossom_xpath::ast::NodeTest;
use blossom_xpath::pattern::EdgeMode;
use blossom_xml::Axis;

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

/// Per-component cost table: one estimated cost per applicable
/// decomposed strategy, plus the cardinalities the costs were derived
/// from.
#[derive(Debug, Clone, Copy)]
pub struct ComponentCosts {
    /// Estimated anchors of the component root NoK (after its internal
    /// constraints).
    pub est_anchors: u64,
    /// Estimated anchors surviving all of the component's cut joins —
    /// the component's output cardinality.
    pub est_output: u64,
    /// Merged-scan + pipelined //-joins; `None` when the component has
    /// a non-`//` or optional cut, or a recursive anchor tag (the
    /// pipelined join's prerequisites, Theorem 2).
    pub pipelined: Option<u64>,
    /// Bounded nested loop: per-anchor range probes.
    pub bounded: u64,
    /// Naive nested loop: materialized inner per cut.
    pub naive: u64,
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

    /// Cost the decomposed strategies for one cut component (`component`
    /// indexes `d.roots`; `comp_of` is [`Decomposition::components`]).
    pub fn component_costs(
        &self,
        d: &Decomposition,
        comp_of: &[usize],
        component: usize,
    ) -> ComponentCosts {
        let root_nok = d.roots[component].0;
        let cuts: Vec<&CutEdge> =
            d.cut_edges.iter().filter(|c| comp_of[c.parent_nok] == component).collect();
        let members: Vec<usize> =
            (0..d.noks.len()).filter(|&i| comp_of[i] == component).collect();

        let root = &d.noks[root_nok];
        let root_posting = self.test_count(&root.pattern.node(root.root()).test);
        let est_anchors = root_posting * self.nok_survival(root);

        // Pipelined prerequisites, per component: every cut a mandatory
        // `//`-join and no recursive anchor tag (nested anchors grow the
        // stream buffers unboundedly).
        let pipelined_legal = cuts
            .iter()
            .all(|c| c.axis == Axis::Descendant && c.mode == EdgeMode::Mandatory)
            && !members.iter().any(|&i| {
                let nok = &d.noks[i];
                match &nok.pattern.node(nok.root()).test {
                    NodeTest::Name(name) => self.stats.recursive_tags.contains_key(name.as_ref()),
                    _ => self.stats.recursive,
                }
            });

        // Walk the cuts in the engine's execution order (topological,
        // cheapest child first) so the shrinking `running` cardinality
        // discounts later joins the same way execution does.
        let mut resolved = vec![false; d.noks.len()];
        resolved[root_nok] = true;
        let mut remaining = cuts;
        let mut pl = root_posting;
        let mut bn = root_posting;
        let mut nv = root_posting;
        let mut running = est_anchors;
        while !remaining.is_empty() {
            let pick = remaining
                .iter()
                .enumerate()
                .filter(|(_, c)| resolved[c.parent_nok])
                .min_by(|(_, a), (_, b)| {
                    let ka = self.test_count(&d.noks[a.child_nok].pattern.node(d.noks[a.child_nok].root()).test);
                    let kb = self.test_count(&d.noks[b.child_nok].pattern.node(d.noks[b.child_nok].root()).test);
                    ka.total_cmp(&kb)
                })
                .map(|(i, _)| i)
                .expect("cut-edge graph is a forest rooted at the component root");
            let cut = remaining.remove(pick);
            resolved[cut.child_nok] = true;

            let parent_tag = tag_of(&d.noks[cut.parent_nok].pattern.node(cut.parent_node).test);
            let child = &d.noks[cut.child_nok];
            let child_test = &child.pattern.node(child.root()).test;
            let child_posting = self.test_count(child_test);
            let child_survival = self.nok_survival(child);
            let child_matches = child_posting * child_survival;
            // Join pairs that survive the child NoK's internal filters.
            let join_pairs = self.pairs(parent_tag, child_test) * child_survival;

            // PL scans every child candidate once and touches each pair.
            pl += child_posting + join_pairs;
            // BNLJ gallops into the child posting per outer anchor, then
            // scans the in-range candidates.
            if cut.axis == Axis::Descendant {
                bn += running * (1.0 + 2.0 * (1.0 + child_posting).log2())
                    + join_pairs.min(running * child_matches);
            } else {
                // Non-`//` cuts run the naive join regardless.
                bn += child_posting + running * child_matches;
            }
            // Naive materializes the child once, then pairs every outer
            // anchor against its matches.
            nv += child_posting + running * child_matches;

            if cut.mode == EdgeMode::Mandatory {
                running *= self.survival(parent_tag, child_test) * child_survival.min(1.0);
            }
        }

        let clamp = |x: f64| x.clamp(0.0, COST_CAP) as u64;
        ComponentCosts {
            est_anchors: clamp(est_anchors),
            est_output: clamp(running),
            pipelined: pipelined_legal.then(|| clamp(pl + running)),
            bounded: clamp(bn),
            naive: clamp(nv),
        }
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

    #[test]
    fn probe_join_is_cheaper_with_rare_anchors() {
        // One rare anchor over a sea of `c`s: per-anchor probing must
        // price far below scanning the `c` posting.
        let mut xml = String::from("<r><x><c/></x>");
        for _ in 0..999 {
            xml.push_str("<q><c/></q>");
        }
        xml.push_str("</r>");
        let (stats, d) = setup(&xml, "//x//c");
        let est = Estimator::new(&stats);
        let c = est.component_costs(&d, &d.components(), 0);
        assert!(c.pipelined.unwrap() > 1000, "PL scans the full c posting");
        assert!(c.bounded < 100, "BNLJ probes once: {}", c.bounded);
    }

    #[test]
    fn recursion_disables_the_pipelined_candidate() {
        let (stats, d) = setup("<a><a><b/></a></a>", "//a//b");
        let est = Estimator::new(&stats);
        assert!(est.component_costs(&d, &d.components(), 0).pipelined.is_none());
    }
}
