//! Physical strategy selection.
//!
//! The paper leaves the full cost-based optimizer to future work but
//! names the decision inputs (Section 5): whether the document is
//! recursive, whether tag-name indexes exist, and whether the plan's
//! joins are order-preserving. [`choose_static`] encodes the structural
//! half for path queries:
//!
//! * constructs outside the pattern algebra → navigational;
//! * only mandatory `//` cuts → the flat NoK pipeline ([`crate::flat`]):
//!   every join is a structural semi-join over document-ordered lists,
//!   order-preserving by Theorem 2 on recursive documents too, because
//!   nothing is buffered per outer anchor;
//! * a `following`/`preceding` cut → navigational: the flat pipeline has
//!   no semi-join for it, and the walk measured 2.4–3.9× ahead of either
//!   NestedList nested loop (EXPERIMENTS.md, "Planner vs. best-of-matrix
//!   oracle").
//!
//! [`choose`] adds the cost model's ledger — estimated anchors, output
//! and elements read, shown against the actuals by `EXPLAIN ANALYZE` —
//! but no longer a whole-query override among the all-`//` plans: measured
//! on the Table 3 matrix at three scales the flat pipeline beats
//! TwigStack, PathStack and the navigational walk on all 30 cells, and on
//! 734 of 750 generated queries (the rest within 2.1× and under 250 µs;
//! EXPERIMENTS.md, "Planner calibration"), while the one override the
//! re-measured weights still produced was a mis-pick. What the input does
//! decide is the physical form of each semi-join, chosen per cut edge
//! from the two list lengths ([`crate::flat::Kernel::for_lengths`]).
//!
//! A FLWOR under `Auto` runs the flat plan of [`crate::flwor`]; one
//! outside its algebra falls back to per-component planning over the
//! NestedList operators ([`choose_flwor`]), each [`ComponentPlan`] naming
//! the strategy its component runs.

use crate::cost::Estimator;
use crate::decompose::{CutEdge, Decomposition};
use blossom_xml::{Axis, DocStats, Document, TagIndex};
use blossom_xpath::ast::NodeTest;
use blossom_xpath::ast::PathExpr;
use blossom_xpath::pattern::EdgeMode;
use std::fmt;

/// The physical evaluation strategies (the systems of Table 3, plus the
/// naive nested loop shown there as NL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Let the planner decide.
    Auto,
    /// Tree-walking evaluation of the AST (the XH stand-in).
    Navigational,
    /// Holistic twig join over tag-index streams (TS).
    TwigStack,
    /// Holistic chain join (PathStack); chain queries only.
    PathStack,
    /// NoK matching + pipelined //-joins (PL). On a path query, the flat
    /// pipeline ([`crate::flat`]); forced, every join is a merge.
    Pipelined,
    /// NoKs + bounded nested-loop joins (the paper's NL/BNLJ). On a path
    /// query, the flat pipeline with every join a range probe.
    BoundedNestedLoop,
    /// NoKs + naive nested-loop joins (materialized inner), always over
    /// NestedLists: the reference implementation of the pipeline.
    NaiveNestedLoop,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::Auto => "auto",
            Strategy::Navigational => "navigational",
            Strategy::TwigStack => "twigstack",
            Strategy::PathStack => "pathstack",
            Strategy::Pipelined => "pipelined",
            Strategy::BoundedNestedLoop => "bounded-nested-loop",
            Strategy::NaiveNestedLoop => "naive-nested-loop",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    /// Parse a strategy by its [`fmt::Display`] name or its short CLI
    /// alias (`xh` for navigational after X-Hive, `ts`, `ps`, `pl`,
    /// `bnlj`/`nl`, `nlj`). Shared by the CLI and the query server so
    /// `--strategy` and `?strategy=` accept the same spellings.
    fn from_str(name: &str) -> Result<Strategy, String> {
        Ok(match name {
            "auto" => Strategy::Auto,
            "navigational" | "xh" => Strategy::Navigational,
            "twigstack" | "ts" => Strategy::TwigStack,
            "pathstack" | "ps" => Strategy::PathStack,
            "pipelined" | "pl" => Strategy::Pipelined,
            "bounded-nested-loop" | "bnlj" | "nl" => Strategy::BoundedNestedLoop,
            "naive-nested-loop" | "nlj" => Strategy::NaiveNestedLoop,
            other => return Err(format!("unknown strategy {other:?}")),
        })
    }
}

/// A FLWOR component's cost-based alternative must price at least this
/// factor below the structural preference to override it: estimates
/// carry model error (independence assumptions, untracked tag pairs),
/// and inside the margin the structural rules are already the right call.
pub const OVERRIDE_MARGIN: u64 = 2;

/// The cost-based plan for one cut component (one entry of
/// `Decomposition::roots` plus everything reachable through cut edges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentPlan {
    /// Component id (index into `Decomposition::roots`).
    pub component: usize,
    /// Strategy this component runs under a decomposed plan (always one
    /// of Pipelined / BoundedNestedLoop / NaiveNestedLoop).
    pub strategy: Strategy,
    /// Estimated anchors of the component root NoK.
    pub est_anchors: u64,
    /// Estimated output cardinality of the component.
    pub est_output: u64,
    /// Estimated cost (elements touched) of the chosen strategy.
    pub est_cost: u64,
}

/// A resolved plan: the chosen strategy and the reason, for `EXPLAIN`
/// output.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The strategy the engine will run.
    pub strategy: Strategy,
    /// Human-readable justification.
    pub reason: String,
    /// The [`twigstack_compatible`] verdict for the decomposition the
    /// plan was chosen over (recorded even when another strategy wins —
    /// `EXPLAIN`/trace output shows what the holistic join *could* have
    /// handled).
    pub twigstack_compatible: bool,
    /// Per-component cost-based plans (empty for static plans and for
    /// navigational early-outs). When [`Plan::strategy`] is a decomposed
    /// strategy the engine dispatches each component by its entry here;
    /// for whole-query strategies they are retained as the estimate rows
    /// of the trace.
    pub components: Vec<ComponentPlan>,
    /// Estimated total cost of the chosen plan (0 = not costed).
    pub est_cost: u64,
    /// The flat pipeline's operator list, one rendered line each (filled
    /// by `Engine::explain_path`, which has the document to compile
    /// against; empty for every other strategy).
    pub operators: Vec<String>,
}

impl Plan {
    fn new(strategy: Strategy, reason: String, twigstack_compatible: bool) -> Plan {
        Plan {
            strategy,
            reason,
            twigstack_compatible,
            components: Vec::new(),
            est_cost: 0,
            operators: Vec::new(),
        }
    }
}

/// The `EXPLAIN` rendering: strategy, reason, and the operator list when
/// the plan has one.
impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "strategy: {}\nreason:   {}", self.strategy, self.reason)?;
        if !self.operators.is_empty() {
            write!(f, "\noperators:")?;
            for line in &self.operators {
                write!(f, "\n{line}")?;
            }
        }
        Ok(())
    }
}

/// Can every pattern node of the decomposition feed a TwigStack stream
/// (name tests only, mandatory edges, parent-child / ancestor-descendant
/// relationships only)? Sibling, `self`, `following` and `preceding`
/// edges have no stack encoding in the holistic join.
pub fn twigstack_compatible(d: &Decomposition) -> bool {
    d.noks.iter().all(|nok| {
        nok.pattern.ids().skip(1).all(|id| {
            let n = nok.pattern.node(id);
            // NoK roots carry a Child placeholder axis; the real entry
            // axis is checked via `d.roots` / `d.cut_edges` below.
            n.axis == Axis::Child
                && (matches!(n.test, NodeTest::Attribute(_))
                    || (matches!(n.test, NodeTest::Name(_)) && n.mode == EdgeMode::Mandatory))
        })
    }) && d
        .cut_edges
        .iter()
        .all(|e| e.axis == Axis::Descendant && e.mode == EdgeMode::Mandatory)
        && d.roots
            .iter()
            .all(|&(_, a)| matches!(a, Axis::Child | Axis::Descendant))
}

/// Estimated cardinality of a NoK's anchors: the tag-index stream length
/// of its root test (the simplest statistic of the cost model the paper
/// defers to future work).
pub fn estimated_anchors(
    d: &Decomposition,
    nok: usize,
    index: &TagIndex,
    doc: &Document,
) -> usize {
    let root = d.noks[nok].root();
    match &d.noks[nok].pattern.node(root).test {
        NodeTest::Name(name) => match doc.sym(name) {
            Some(sym) => index.count(sym),
            None => 0,
        },
        // No statistics for wildcard/text roots: assume expensive.
        _ => usize::MAX / 2,
    }
}

/// Order a component's cut edges for execution: the topological
/// constraint (a join can only run once its parent endpoint's NoK has
/// been joined in) with a greedy cheapest-child-first tiebreak from the
/// tag-index cardinalities. Joining selective children first shrinks the
/// intermediate NestedLists for every later join.
pub fn order_cut_edges<'a>(
    d: &Decomposition,
    root_nok: usize,
    cuts: &[&'a CutEdge],
    index: &TagIndex,
    doc: &Document,
) -> Vec<&'a CutEdge> {
    let mut resolved = vec![false; d.noks.len()];
    resolved[root_nok] = true;
    let mut remaining: Vec<&CutEdge> = cuts.to_vec();
    let mut ordered = Vec::with_capacity(cuts.len());
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .enumerate()
            .filter(|(_, c)| resolved[c.parent_nok])
            .min_by_key(|(_, c)| estimated_anchors(d, c.child_nok, index, doc))
            .map(|(i, _)| i)
            .expect("cut-edge graph is a forest rooted at the component root");
        let cut = remaining.remove(best);
        resolved[cut.child_nok] = true;
        ordered.push(cut);
    }
    ordered
}

/// Resolve `Auto` for a path query by the structural rules alone (the
/// baseline the cost model must beat, and the `--no-cost-planner` escape
/// hatch).
pub fn choose_static(path: &PathExpr, d: &Decomposition) -> Plan {
    let ts_ok = twigstack_compatible(d);
    if path.has_positional() || path.has_disjunction() {
        return Plan::new(
            Strategy::Navigational,
            "positional or or/not predicates are outside the pattern algebra".into(),
            ts_ok,
        );
    }
    if d.pipelinable() {
        return Plan::new(
            Strategy::Pipelined,
            match d.cut_edges.len() {
                0 => "one NoK: existential matching over its root's posting list".into(),
                n => format!(
                    "{n} mandatory //-cut(s): NoK matching and structural semi-joins over \
                     document-ordered lists (order-preserving, Theorem 2)"
                ),
            },
            ts_ok,
        );
    }
    Plan::new(
        Strategy::Navigational,
        "a cut edge that is not a mandatory //-join has no structural semi-join, and the \
         navigational walk measured ahead of NestedList nested loops on it"
            .into(),
        ts_ok,
    )
}

/// Pick one component's strategy from its cost table: keep `default`
/// (the structural rule projected onto this component) unless another
/// candidate prices ≥ [`OVERRIDE_MARGIN`]× cheaper.
fn pick_component(
    costs: &crate::cost::ComponentCosts,
    component: usize,
    default: Strategy,
) -> ComponentPlan {
    let mut cands: Vec<(Strategy, u64)> = Vec::new();
    if let Some(pl) = costs.pipelined {
        cands.push((Strategy::Pipelined, pl));
    }
    cands.push((Strategy::BoundedNestedLoop, costs.bounded));
    cands.push((Strategy::NaiveNestedLoop, costs.naive));

    let default_cost =
        cands.iter().find(|&&(s, _)| s == default).map(|&(_, c)| c).unwrap_or(u64::MAX);
    let &(best, best_cost) =
        cands.iter().min_by_key(|&&(_, c)| c).expect("at least two candidates");
    let (strategy, est_cost) =
        if default_cost == u64::MAX || best_cost.saturating_mul(OVERRIDE_MARGIN) < default_cost {
            (best, best_cost)
        } else {
            (default, default_cost)
        };
    ComponentPlan {
        component,
        strategy,
        est_anchors: costs.est_anchors,
        est_output: costs.est_output,
        est_cost,
    }
}

/// Per-component cost-based plans for a decomposition: each component's
/// default is the structural preference (pipelined where legal, bounded
/// nested loop otherwise), overridden only by a decisive cost gap.
pub fn component_plans(d: &Decomposition, stats: &DocStats) -> Vec<ComponentPlan> {
    let est = Estimator::new(stats);
    let comp_of = d.components();
    (0..d.roots.len())
        .map(|ci| {
            let costs = est.component_costs(d, &comp_of, ci);
            let default = if costs.pipelined.is_some() {
                Strategy::Pipelined
            } else {
                Strategy::BoundedNestedLoop
            };
            pick_component(&costs, ci, default)
        })
        .collect()
}

/// Resolve `Auto` for a path query: the structural rule, plus the cost
/// model's per-component ledger (the estimate rows of the trace).
pub fn choose(path: &PathExpr, d: &Decomposition, stats: &DocStats) -> Plan {
    let mut plan = choose_static(path, d);
    if plan.strategy == Strategy::Navigational {
        return plan; // the walk has no operators to put estimates on
    }
    let est = Estimator::new(stats);
    let comp_of = d.components();
    let costs: Vec<crate::cost::ComponentCosts> =
        (0..d.roots.len()).map(|ci| est.component_costs(d, &comp_of, ci)).collect();
    // The flat pipeline reads each NoK root's posting list.
    plan.est_cost = d
        .noks
        .iter()
        .map(|nok| est.test_count(&nok.pattern.node(nok.root()).test) as u64)
        .fold(0, u64::saturating_add);
    plan.reason = format!("{} (estimated {} elements)", plan.reason, plan.est_cost);
    plan.components = costs
        .iter()
        .enumerate()
        .map(|(ci, c)| ComponentPlan {
            component: ci,
            strategy: plan.strategy,
            est_anchors: c.est_anchors,
            est_output: c.est_output,
            est_cost: plan.est_cost,
        })
        .collect();
    plan
}

/// Resolve `Auto` for a FLWOR decomposition by the v1 structural rule:
/// pipelined only when the whole document is recursion-free and every
/// cut is a mandatory `//`-join.
pub fn choose_flwor_static(d: &Decomposition, stats: &DocStats) -> (Strategy, String) {
    if !stats.recursive && d.pipelinable() {
        (Strategy::Pipelined, "non-recursive document, mandatory //-cuts only".to_string())
    } else {
        (Strategy::BoundedNestedLoop, "recursive document or non-// cut edges".to_string())
    }
}

/// Resolve `Auto` for a FLWOR decomposition with per-component costing:
/// the overall strategy reported is the dominant (costliest) component's.
pub fn choose_flwor(d: &Decomposition, stats: &DocStats) -> (Strategy, Vec<ComponentPlan>, String) {
    let comps = component_plans(d, stats);
    let dominant = comps
        .iter()
        .max_by_key(|c| c.est_cost)
        .map(|c| c.strategy)
        .unwrap_or(Strategy::BoundedNestedLoop);
    let detail: Vec<String> = comps
        .iter()
        .map(|c| format!("#{} {} (est {} elements)", c.component, c.strategy, c.est_cost))
        .collect();
    (dominant, comps, format!("per-component cost-based: {}", detail.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::Decomposition;
    use blossom_flwor::BlossomTree;
    use blossom_xml::Document;
    use blossom_xpath::parse_path;

    fn plan_for(xml: &str, query: &str) -> Plan {
        let doc = Document::parse_str(xml).unwrap();
        let path = parse_path(query).unwrap();
        // Decompose a predicate-stripped copy: positional/boolean
        // predicates cannot enter a BlossomTree, but `choose` rejects
        // those before looking at the decomposition anyway.
        let mut stripped = path.clone();
        for s in &mut stripped.steps {
            s.predicates.clear();
        }
        let d = Decomposition::decompose(&BlossomTree::from_path(&stripped).unwrap());
        choose(&path, &d, &doc.stats())
    }

    #[test]
    fn navigational_for_positional_and_disjunction() {
        assert_eq!(
            plan_for("<r><a/></r>", "//a[2]").strategy,
            Strategy::Navigational
        );
        assert_eq!(
            plan_for("<r><a/></r>", "//a[b or c]").strategy,
            Strategy::Navigational
        );
    }

    #[test]
    fn pipelined_on_nonrecursive() {
        assert_eq!(
            plan_for("<r><a><b/></a></r>", "//a//b").strategy,
            Strategy::Pipelined
        );
    }

    #[test]
    fn recursion_and_wildcards_stay_on_the_flat_pipeline() {
        // Semi-joins over flat lists buffer nothing per outer anchor, so
        // same-tag nesting does not push the plan to a stack join, and a
        // wildcard NoK root needs no tag stream.
        assert_eq!(plan_for("<a><a><b/></a></a>", "//a//b").strategy, Strategy::Pipelined);
        assert_eq!(plan_for("<a><a><b/></a></a>", "//a//*").strategy, Strategy::Pipelined);
    }

    #[test]
    fn navigational_for_cuts_without_a_semi_join() {
        for q in ["//a/following::b", "//b/preceding::a"] {
            let p = plan_for("<r><a/><b/></r>", q);
            assert_eq!(p.strategy, Strategy::Navigational, "{q}: {}", p.reason);
        }
    }

    #[test]
    fn plan_carries_twigstack_verdict() {
        // TwigStack-capable pattern, even though the planner picks PL.
        let p = plan_for("<r><a><b/></a></r>", "//a//b");
        assert_eq!(p.strategy, Strategy::Pipelined);
        assert!(p.twigstack_compatible);
        // Wildcards have no tag stream.
        assert!(!plan_for("<a><a><b/></a></a>", "//a//*").twigstack_compatible);
    }

    #[test]
    fn display_strings() {
        assert_eq!(Strategy::Pipelined.to_string(), "pipelined");
        assert_eq!(Strategy::TwigStack.to_string(), "twigstack");
    }
}

#[cfg(test)]
mod cost_tests {
    use super::*;
    use crate::decompose::Decomposition;
    use blossom_flwor::BlossomTree;
    use blossom_xml::Document;
    use blossom_xpath::parse_path;

    #[test]
    fn cut_edges_ordered_by_selectivity() {
        // `common` appears many times, `rare` once; the rare join must be
        // scheduled first.
        let doc = Document::parse_str(
            "<r><a><common/><common/><common/><rare/><common/></a></r>",
        )
        .unwrap();
        let index = TagIndex::build(&doc);
        let d = Decomposition::decompose(
            &BlossomTree::from_path(&parse_path("//a[//common][//rare]").unwrap()).unwrap(),
        );
        let cuts: Vec<&CutEdge> = d.cut_edges.iter().collect();
        let ordered = order_cut_edges(&d, 0, &cuts, &index, &doc);
        let first_tag = d.noks[ordered[0].child_nok]
            .pattern
            .node(d.noks[ordered[0].child_nok].root())
            .test
            .to_string();
        assert_eq!(first_tag, "rare");
    }

    #[test]
    fn ordering_respects_topology() {
        // //a[//b[//c]] — the b join must precede the c join even though c
        // is rarer.
        let doc = Document::parse_str("<r><a><b/><b/><b><c/></b></a></r>").unwrap();
        let index = TagIndex::build(&doc);
        let d = Decomposition::decompose(
            &BlossomTree::from_path(&parse_path("//a[//b[//c]]").unwrap()).unwrap(),
        );
        assert_eq!(d.cut_edges.len(), 2);
        let cuts: Vec<&CutEdge> = d.cut_edges.iter().collect();
        let ordered = order_cut_edges(&d, 0, &cuts, &index, &doc);
        // b's cut (parent in NoK 0) must come before c's (parent in b's NoK).
        assert_eq!(ordered[0].parent_nok, 0);
        assert_eq!(ordered[1].parent_nok, ordered[0].child_nok);
    }

    #[test]
    fn estimated_anchors_uses_index() {
        let doc = Document::parse_str("<r><x/><x/><y/></r>").unwrap();
        let index = TagIndex::build(&doc);
        let d = Decomposition::decompose(
            &BlossomTree::from_path(&parse_path("//x[//y]").unwrap()).unwrap(),
        );
        assert_eq!(estimated_anchors(&d, 0, &index, &doc), 2);
        assert_eq!(estimated_anchors(&d, 1, &index, &doc), 1);
    }

    fn plan_for(xml: &str, query: &str) -> Plan {
        let doc = Document::parse_str(xml).unwrap();
        let path = parse_path(query).unwrap();
        let d = Decomposition::decompose(&BlossomTree::from_path(&path).unwrap());
        choose(&path, &d, &doc.stats())
    }

    #[test]
    fn path_plans_carry_the_structural_reason_and_a_ledger() {
        let p = plan_for("<r><a><b/></a></r>", "//a//b");
        assert_eq!(p.strategy, Strategy::Pipelined);
        assert!(p.reason.contains("Theorem 2"), "{}", p.reason);
        assert_eq!(p.components.len(), 1);
        assert!(p.est_cost > 0);
    }

    #[test]
    fn components_carry_estimates() {
        let p = plan_for("<a><a><b/></a></a>", "//a//b");
        assert_eq!(p.strategy, Strategy::Pipelined);
        assert_eq!(p.components.len(), 1);
        assert_eq!(p.components[0].est_anchors, 2);
        assert_eq!(p.est_cost, 3, "two a postings and one b");
    }

    /// One rare anchor over a sea of common descendants, where per-anchor
    /// probing is decisively cheaper than scanning the descendant posting.
    fn skewed_doc(commons: usize) -> String {
        let mut xml = String::from("<r><x><c/></x>");
        for _ in 0..commons {
            xml.push_str("<q><c/></q>");
        }
        xml.push_str("</r>");
        xml
    }

    #[test]
    fn flwor_choose_plans_each_component() {
        let doc = Document::parse_str(&skewed_doc(999)).unwrap();
        let q = blossom_flwor::parse_query(
            "for $a in //x//c, $b in //q return <p>{$a}{$b}</p>",
        )
        .unwrap();
        let f = match q {
            blossom_flwor::Expr::Flwor(f) => *f,
            other => panic!("unexpected {other:?}"),
        };
        let d = Decomposition::decompose(&BlossomTree::from_flwor(&f).unwrap());
        let (dominant, comps, reason) = choose_flwor(&d, &doc.stats());
        assert_eq!(comps.len(), 2);
        // The x//c component probes; the bare q component scans.
        assert_eq!(comps[0].strategy, Strategy::BoundedNestedLoop, "{reason}");
        assert_eq!(comps[1].strategy, Strategy::Pipelined, "{reason}");
        // The q scan dominates the probe.
        assert_eq!(dominant, Strategy::Pipelined);
    }

}
