//! The flat NoK pipeline for path queries: π pushed below the joins.
//!
//! A path expression has exactly one returning node, so the NestedList
//! every operator of the general pipeline builds ends in a projection on
//! one position. Pushing that projection below the joins turns each
//! operator into a filter over a **flat, document-ordered `NodeId`
//! list**:
//!
//! * Algorithm 1's decomposition stays: NoK trees connected by cut
//!   edges ([`Decomposition`]).
//! * NoK matching stays, but **existentially**: a non-returning pattern
//!   node needs one witness, nothing is collected (`Matcher`).
//! * each `//` cut edge becomes a **structural semi-join** on region
//!   labels, in the paper's two physical forms ([`Kernel`]): the
//!   pipelined join degenerates to a linear *merge* of two sorted lists,
//!   the bounded nested loop to a galloped *range probe* per outer node.
//!
//! Evaluation is the classic two-pass reduction over the tree of NoKs.
//! Bottom-up, a NoK's anchors come from its root's posting list and
//! survive if every cut edge below has a witness and the NoK matches
//! locally. Top-down along the spine from the root NoK to the NoK
//! holding the output node, anchors are restricted to those with an
//! ancestor among the surviving bindings of the cut edge's parent
//! endpoint. The output node's bindings under the last surviving
//! anchors are the result.
//!
//! [`FlatPlan`] is that evaluation compiled to a linear operator list
//! over per-NoK list registers — symbols resolved, operator order fixed —
//! which one executor loop runs ([`FlatPlan::run`]), choosing each
//! semi-join's kernel from the lengths of the two lists it is handed, and
//! `EXPLAIN` prints (its `Display`). FLWOR
//! evaluation (several returning positions) keeps the NestedList
//! pipeline, and so does `Strategy::NaiveNestedLoop` as the reference.

use crate::cost::{tag_of, Estimator};
use crate::decompose::{CutEdge, Decomposition, NokTree};
use crate::engine::EngineError;
use crate::nok::ResolvedTest;
use crate::obs::{OpCounters, TraceSink};
use crate::value::{node_satisfies, node_vs_literal_str};
use blossom_xml::{gallop, Axis, DocStats, Document, NodeId, Sym, TagIndex};
use blossom_xpath::ast::NodeTest;
use blossom_xpath::pattern::{EdgeMode, PatternNodeId, ValueTest};
use std::borrow::Cow;
use std::fmt;

/// The physical form of one structural semi-join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// One forward sweep over both lists: O(|outer| + |inner|). The
    /// pipelined //-join on flat lists.
    Merge,
    /// Gallop into the inner list once per outer node:
    /// O(|outer| · log |inner|). The bounded nested loop's `(p1, p2)`
    /// range probe.
    Probe,
}

/// An inner list this many times longer than the outer makes galloping
/// into it cheaper than sweeping it. A merge step costs 0.4–1 ns, a
/// gallop 7–40 ns; the measured crossover is a ratio of 16 keeping
/// descendants and 32 keeping ancestors (EXPERIMENTS.md, "Semi-join
/// kernels"). The larger one errs towards the merge, whose cost is
/// bounded by the list lengths.
pub const PROBE_RATIO: usize = 32;

impl Kernel {
    /// The kernel for lists of these lengths — a property of the input,
    /// not a knob.
    pub fn for_lengths(outer: usize, inner: usize) -> Kernel {
        if outer.saturating_mul(PROBE_RATIO) < inner {
            Kernel::Probe
        } else {
            Kernel::Merge
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Merge => "merge",
            Kernel::Probe => "probe",
        }
    }
}

/// The `outer` nodes with at least one descendant in `inner`
/// (`∃ d ∈ inner : a < d ≤ last_desc(a)`). Both lists are in document
/// order, and so is the result. `ends` is the document's `last_desc`
/// column.
pub fn semijoin_anc(
    outer: &[NodeId],
    inner: &[NodeId],
    ends: &[u32],
    kernel: Kernel,
    counters: &mut OpCounters,
) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut examined = 0;
    // First inner node after `a`: a witness iff it is inside `a`'s
    // region. The cursor only moves forward, also across nested outers.
    let mut j = 0;
    for &a in outer {
        j = match kernel {
            Kernel::Merge => {
                while j < inner.len() && inner[j] <= a {
                    j += 1;
                }
                j
            }
            Kernel::Probe => gallop(inner, j, a.0 + 1),
        };
        if j == inner.len() {
            break;
        }
        examined += 1;
        if inner[j].0 <= ends[a.index()] {
            out.push(a);
        }
    }
    count_cursor(counters, kernel, examined, j, out.len());
    out
}

/// The `inner` nodes with at least one ancestor in `outer`. Both lists
/// are in document order, and so is the result.
pub fn semijoin_desc(
    outer: &[NodeId],
    inner: &[NodeId],
    ends: &[u32],
    kernel: Kernel,
    counters: &mut OpCounters,
) -> Vec<NodeId> {
    let mut out = Vec::new();
    match kernel {
        Kernel::Merge => {
            // `reach` is the furthest region end among the outers before
            // `d`. Regions nest or are disjoint, so the outer attaining
            // it contains `d` exactly when `reach >= d` — also on
            // recursive documents.
            let (mut i, mut reach) = (0, 0);
            let mut examined = 0;
            for &d in inner {
                while i < outer.len() && outer[i] < d {
                    reach = reach.max(ends[outer[i].index()]);
                    i += 1;
                }
                if reach >= d.0 {
                    out.push(d);
                } else if i == outer.len() {
                    break;
                }
                examined += 1;
            }
            count_cursor(counters, kernel, examined, i, out.len());
        }
        Kernel::Probe => {
            // One range probe per outermost outer region; an outer nested
            // in the region just copied contributes nothing new.
            let (mut j, mut covered) = (0, 0);
            let mut examined = 0;
            for &a in outer {
                if j == inner.len() {
                    break;
                }
                let end = ends[a.index()];
                if end <= covered {
                    continue;
                }
                let lo = gallop(inner, j, a.0 + 1);
                j = gallop(inner, lo, end.saturating_add(1));
                out.extend_from_slice(&inner[lo..j]);
                covered = end;
                examined += 1;
            }
            count_cursor(counters, kernel, examined, j - out.len(), out.len());
        }
    }
    out
}

/// Counters of one semi-join: `examined` driving-side nodes looked at
/// one at a time, `passed` other-side nodes the cursor moved over —
/// swept by a merge, galloped past by a probe.
fn count_cursor(c: &mut OpCounters, kernel: Kernel, examined: usize, passed: usize, out: usize) {
    c.scanned += examined as u64;
    match kernel {
        Kernel::Merge => c.scanned += passed as u64,
        Kernel::Probe => c.skipped += passed as u64,
    }
    c.matches += out as u64;
    c.output += out as u64;
}

/// One compiled pattern node of a NoK.
#[derive(Debug)]
struct Node {
    /// Axis from the parent pattern node (local; unused on the root).
    axis: Axis,
    test: ResolvedTest,
    value: Option<ValueTest>,
    /// `@name [op literal]` constraints on this node's own attributes.
    attrs: Vec<(Sym, Option<ValueTest>)>,
    /// Local-axis children (indices into the NoK's node table); each
    /// needs a witness.
    children: Vec<usize>,
    /// NoKs cut off below this node whose witness is probed during
    /// matching. Always empty on the NoK root: cut edges there run as
    /// bulk [`Op::AncSemiJoin`]s instead.
    cuts: Vec<usize>,
}

/// A compiled NoK: its pattern nodes, indexed by their NoK-local pattern
/// id (slot 0, the virtual root, is never visited).
#[derive(Debug)]
struct Nok {
    nodes: Vec<Node>,
}

/// Index of every NoK's root in its node table ([`NokTree::root`]).
const ROOT: usize = 1;

/// One physical operator over the list registers: `lists[k]` holds NoK
/// `k`'s current anchors, `cur` the bindings handed down the spine.
#[derive(Debug)]
enum Op {
    /// `lists[nok]` ← the candidate anchors of the NoK root's test.
    Scan { nok: usize },
    /// `lists[nok]` ← its members with a descendant in `lists[child]`.
    AncSemiJoin { nok: usize, child: usize },
    /// `lists[nok]` ← its members at which the NoK matches locally.
    Match { nok: usize },
    /// `cur` ← the bindings of pattern node `path.last()` under
    /// `lists[nok]` (`lists[nok]` itself for an empty path).
    Bindings { nok: usize, path: Vec<usize> },
    /// `lists[nok]` ← its members with an ancestor in `cur`.
    DescSemiJoin { nok: usize },
}

/// An operator with what the planner knew about it.
#[derive(Debug)]
struct Step {
    op: Op,
    /// The tests the operator works on, for `EXPLAIN`.
    what: String,
    /// Exact lengths of the posting lists the operator's inputs derive
    /// from (one for unary operators).
    postings: (u64, u64),
    /// Estimated length of the list the operator produces.
    est: u64,
}

/// A path query compiled to flat operators (see the module docs).
#[derive(Debug)]
pub struct FlatPlan {
    noks: Vec<Nok>,
    /// `/`-rooted: the root NoK's anchors are the document node's
    /// children, not a posting list.
    level1: bool,
    /// Operators in execution order; empty when the result is provably
    /// empty (see `empty`).
    steps: Vec<Step>,
    /// Why the result is empty without looking at the document.
    empty: Option<String>,
}

impl FlatPlan {
    /// Compile the decomposition of a path query whose returning node is
    /// `output` (a node id of the BlossomTree the decomposition was made
    /// from). `Err` names what puts the query outside the flat pipeline;
    /// the caller records it as a plan rewrite and runs the NestedList
    /// pipeline.
    pub fn compile(
        d: &Decomposition,
        output: PatternNodeId,
        doc: &Document,
        stats: &DocStats,
    ) -> Result<FlatPlan, String> {
        let &[(_, root_axis)] = &d.roots[..] else {
            return Err("the flat pipeline evaluates single-rooted patterns".into());
        };
        if !d.pipelinable() {
            return Err("a non-`//` or optional cut edge has no structural semi-join".into());
        }
        let mut plan = FlatPlan {
            noks: Vec::with_capacity(d.noks.len()),
            level1: root_axis == Axis::Child,
            steps: Vec::new(),
            empty: None,
        };
        if !matches!(root_axis, Axis::Child | Axis::Descendant) {
            plan.empty =
                Some(format!("no node is on the {root_axis} axis of the document node"));
            return Ok(plan);
        }
        for (ni, nok) in d.noks.iter().enumerate() {
            match compile_nok(d, ni, nok, doc)? {
                Ok(compiled) => plan.noks.push(compiled),
                Err(absent) => {
                    plan.empty = Some(format!("`{absent}` never occurs in the document"));
                    return Ok(plan);
                }
            }
        }

        let est = Estimator::new(stats);
        let root_test = |ni: usize| &d.noks[ni].pattern.node(d.noks[ni].root()).test;
        let posting = |test: &NodeTest| est.test_count(test) as u64;
        // Estimated length of every NoK's list as the operators shrink it.
        let mut running: Vec<f64> = vec![0.0; d.noks.len()];
        let mut push = |op: Op, what: String, postings: (u64, u64), est_len: f64| {
            plan.steps.push(Step { op, what, postings, est: est_len.max(0.0) as u64 });
        };

        // Bottom-up. Cut children were discovered after their parents, so
        // descending NoK index visits every child before its parent.
        for ni in (0..d.noks.len()).rev() {
            let nok = &d.noks[ni];
            let own = posting(root_test(ni));
            running[ni] = if ni == 0 && plan.level1 { 1.0 } else { own as f64 };
            push(Op::Scan { nok: ni }, root_test(ni).to_string(), (own, 0), running[ni]);
            // Shortest inner list first: the most selective filter shrinks
            // the outer list for the rest.
            let mut root_cuts: Vec<&CutEdge> = d
                .cut_edges
                .iter()
                .filter(|c| c.parent_nok == ni && c.parent_node == nok.root())
                .collect();
            root_cuts.sort_by_key(|c| posting(root_test(c.child_nok)));
            for cut in root_cuts {
                let inner = posting(root_test(cut.child_nok));
                running[ni] *= est.survival(tag_of(root_test(ni)), root_test(cut.child_nok))
                    * est.nok_survival(&d.noks[cut.child_nok]).min(1.0);
                push(
                    Op::AncSemiJoin { nok: ni, child: cut.child_nok },
                    format!("{} ⋉ {}", root_test(ni), root_test(cut.child_nok)),
                    (own, inner),
                    running[ni],
                );
            }
            let root = &plan.noks[ni].nodes[ROOT];
            if root.value.is_some() || !root.attrs.is_empty() || !root.children.is_empty() {
                running[ni] *= est.nok_survival(nok);
                push(Op::Match { nok: ni }, nok_text(nok), (own, 0), running[ni]);
            }
        }

        // Top-down along the spine to the NoK holding the output node.
        let (out_nok, out_local) = d
            .noks
            .iter()
            .enumerate()
            .find_map(|(ni, nok)| nok.local_of(output).map(|local| (ni, local)))
            .ok_or("the output node is in no NoK")?;
        let mut spine: Vec<&CutEdge> = Vec::new();
        let mut at = out_nok;
        while let Some(cut) = d.cut_edges.iter().find(|c| c.child_nok == at) {
            spine.push(cut);
            at = cut.parent_nok;
        }
        let bindings = |ni: usize, target: PatternNodeId| {
            let path = local_path(&d.noks[ni], target);
            let test = &d.noks[ni].pattern.node(target).test;
            (Op::Bindings { nok: ni, path }, test.to_string(), (posting(test), 0))
        };
        for cut in spine.into_iter().rev() {
            let (op, what, postings) = bindings(cut.parent_nok, cut.parent_node);
            push(op, what, postings, running[cut.parent_nok]);
            let parent_test = &d.noks[cut.parent_nok].pattern.node(cut.parent_node).test;
            let (outer, inner) = (posting(parent_test), posting(root_test(cut.child_nok)));
            // A descendant survives in proportion to how many of the
            // ancestors' own posting list are still standing.
            let alive = (running[cut.parent_nok] / (outer.max(1) as f64)).min(1.0);
            running[cut.child_nok] = running[cut.child_nok]
                .min(est.pairs(tag_of(parent_test), root_test(cut.child_nok)) * alive);
            push(
                Op::DescSemiJoin { nok: cut.child_nok },
                format!("{} ⋉ {}", root_test(cut.child_nok), parent_test),
                (inner, outer),
                running[cut.child_nok],
            );
        }
        let (op, what, postings) = bindings(out_nok, out_local);
        push(op, what, postings, running[out_nok]);
        Ok(plan)
    }

    /// Run the plan: the result nodes, distinct and in document order,
    /// and how many root-NoK anchors survived the bottom-up pass (the
    /// component's output cardinality in the planner's ledger).
    ///
    /// Each semi-join runs the kernel its two input lists' lengths call
    /// for — the lists as earlier operators left them, not the posting
    /// lists they started as — unless `force` names one. `poll` is called
    /// between operators and aborts the run with its error; work
    /// per operator is linear in its list lengths, so that is as fine as
    /// cancellation needs to be. With a `sink`, every operator records
    /// its counters under `"<position> <operator>"`.
    pub fn run(
        &self,
        doc: &Document,
        index: &TagIndex,
        force: Option<Kernel>,
        sink: Option<&TraceSink>,
        poll: &dyn Fn() -> Result<(), EngineError>,
    ) -> Result<(Vec<NodeId>, u64), EngineError> {
        let ends = doc.last_desc_column();
        let mut lists: Vec<Cow<'_, [NodeId]>> = vec![Cow::default(); self.noks.len()];
        let mut cur: Cow<'_, [NodeId]> = Cow::default();
        let mut anchors = None;
        for (i, step) in self.steps.iter().enumerate() {
            poll()?;
            let mut c = OpCounters::default();
            let mut kernel = None;
            let produced = match &step.op {
                Op::Scan { nok } => {
                    lists[*nok] = self.scan(doc, index, *nok, &mut c);
                    c.output = lists[*nok].len() as u64;
                    lists[*nok].len()
                }
                Op::AncSemiJoin { nok, child } => {
                    let (outer, inner) = (&lists[*nok], &lists[*child]);
                    let k = force.unwrap_or(Kernel::for_lengths(outer.len(), inner.len()));
                    let out = semijoin_anc(outer, inner, ends, *kernel.insert(k), &mut c);
                    lists[*nok] = Cow::Owned(out);
                    lists[*nok].len()
                }
                Op::Match { nok } => {
                    let m = Matcher { doc, ends, nok: &self.noks[*nok], lists: &lists };
                    let out: Vec<NodeId> =
                        lists[*nok].iter().copied().filter(|&x| m.below(ROOT, x)).collect();
                    c.scanned = lists[*nok].len() as u64;
                    c.matches = out.len() as u64;
                    c.output = out.len() as u64;
                    lists[*nok] = Cow::Owned(out);
                    lists[*nok].len()
                }
                Op::Bindings { nok, path } => {
                    anchors.get_or_insert(lists[0].len() as u64);
                    cur = std::mem::take(&mut lists[*nok]);
                    let m = Matcher { doc, ends, nok: &self.noks[*nok], lists: &lists };
                    for &p in path {
                        cur = Cow::Owned(m.step(p, &cur, &mut c));
                    }
                    c.output = cur.len() as u64;
                    cur.len()
                }
                Op::DescSemiJoin { nok } => {
                    let inner = &lists[*nok];
                    let k = force.unwrap_or(Kernel::for_lengths(cur.len(), inner.len()));
                    let out = semijoin_desc(&cur, inner, ends, *kernel.insert(k), &mut c);
                    lists[*nok] = Cow::Owned(out);
                    lists[*nok].len()
                }
            };
            if let Some(sink) = sink {
                sink.record_op(&format!("{i:02} {}", step.op.name(kernel)), c);
            }
            if produced == 0 {
                // Every edge is mandatory: an empty list anywhere empties
                // the result.
                return Ok((Vec::new(), anchors.unwrap_or(0)));
            }
        }
        Ok((cur.into_owned(), anchors.unwrap_or(0)))
    }

    /// The candidate anchors of NoK `nok`: its root test's posting list
    /// (borrowed: nothing is copied or examined), the children of the
    /// document node for the `/`-rooted root NoK, or a sweep over every
    /// node for a test without a posting list.
    fn scan<'a>(
        &self,
        doc: &'a Document,
        index: &'a TagIndex,
        nok: usize,
        c: &mut OpCounters,
    ) -> Cow<'a, [NodeId]> {
        let test = self.noks[nok].nodes[ROOT].test;
        let mut sweep = |nodes: &mut dyn Iterator<Item = NodeId>| {
            Cow::Owned(nodes.inspect(|_| c.scanned += 1).filter(|&x| test.matches(doc, x)).collect())
        };
        match test {
            _ if nok == 0 && self.level1 => {
                sweep(&mut local_axis(doc, Axis::Child, NodeId::DOCUMENT))
            }
            ResolvedTest::Name(Some(sym)) => Cow::Borrowed(index.stream(sym)),
            _ => sweep(&mut doc.descendants(NodeId::DOCUMENT)),
        }
    }
}

impl Op {
    /// The operator's label; a semi-join's carries its kernel.
    fn name(&self, kernel: Option<Kernel>) -> String {
        let base = match self {
            Op::Scan { .. } => "scan",
            Op::AncSemiJoin { .. } => "anc-semijoin",
            Op::Match { .. } => "nok-match",
            Op::Bindings { .. } => "bindings",
            Op::DescSemiJoin { .. } => "desc-semijoin",
        };
        match kernel {
            Some(kernel) => format!("{base}/{}", kernel.name()),
            None => base.into(),
        }
    }
}

/// The `EXPLAIN` printer: one line per operator with the exact posting
/// lengths its inputs derive from and the estimated output length. A
/// semi-join is labelled with the kernel the *estimated* lengths of its
/// two input lists call for; `EXPLAIN ANALYZE` shows the actual lengths
/// and the kernel they chose at the same position.
impl fmt::Display for FlatPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(why) = &self.empty {
            return writeln!(f, "  (empty result: {why})");
        }
        // The list registers of `run`, holding estimated lengths.
        let mut lists = vec![0; self.noks.len()];
        let mut cur = 0;
        for (i, s) in self.steps.iter().enumerate() {
            let postings = match s.postings {
                (a, 0) => format!("postings {a}"),
                (a, b) => format!("postings {a} x {b}"),
            };
            let kernel = match s.op {
                Op::AncSemiJoin { nok, child } => Some((lists[nok], lists[child])),
                Op::DescSemiJoin { nok } => Some((cur, lists[nok])),
                _ => None,
            }
            .map(|(outer, inner)| Kernel::for_lengths(outer, inner));
            writeln!(
                f,
                "  {i:02} {:<20} {:<34} {postings}, est. out {}",
                s.op.name(kernel),
                s.what,
                s.est
            )?;
            match s.op {
                Op::Bindings { .. } => cur = s.est as usize,
                Op::Scan { nok }
                | Op::AncSemiJoin { nok, .. }
                | Op::Match { nok }
                | Op::DescSemiJoin { nok } => lists[nok] = s.est as usize,
            }
        }
        Ok(())
    }
}

/// Compile one NoK's pattern. The outer `Err` puts the query outside
/// the flat pipeline; the inner `Err` names a tag or attribute that never
/// occurs in the document, which makes the whole result empty.
fn compile_nok(
    d: &Decomposition,
    ni: usize,
    nok: &NokTree,
    doc: &Document,
) -> Result<Result<Nok, String>, String> {
    let mut nodes: Vec<Node> = Vec::with_capacity(nok.pattern.len());
    for id in nok.pattern.ids() {
        let pn = nok.pattern.node(id);
        if pn.mode != EdgeMode::Mandatory {
            return Err("an optional edge needs the NestedList's empty groups".into());
        }
        // (Attribute tests are folded into their parent below; their own
        // slot is never visited and keeps local ids and indices equal.)
        let test = ResolvedTest::resolve(doc, &pn.test);
        if test == ResolvedTest::Name(None) {
            return Ok(Err(pn.test.to_string()));
        }
        let mut node = Node {
            axis: pn.axis,
            test,
            value: pn.value.clone(),
            attrs: Vec::new(),
            children: Vec::new(),
            cuts: Vec::new(),
        };
        for &c in &pn.children {
            let cn = nok.pattern.node(c);
            match &cn.test {
                NodeTest::Attribute(name) => match doc.sym(name) {
                    Some(sym) => node.attrs.push((sym, cn.value.clone())),
                    None => return Ok(Err(format!("@{name}"))),
                },
                _ => node.children.push(c.index()),
            }
        }
        nodes.push(node);
    }
    for cut in d.cut_edges.iter().filter(|c| c.parent_nok == ni && c.parent_node != nok.root()) {
        nodes[cut.parent_node.index()].cuts.push(cut.child_nok);
    }
    Ok(Ok(Nok { nodes }))
}

/// Node-table indices from below the NoK root down to `target`.
fn local_path(nok: &NokTree, target: PatternNodeId) -> Vec<usize> {
    let mut path = Vec::new();
    let mut at = target;
    while at != nok.root() {
        path.push(at.index());
        at = nok.pattern.node(at).parent.expect("NoK nodes hang below the NoK root");
    }
    path.reverse();
    path
}

/// A NoK's pattern on one line, e.g. `item[title][author/last]`.
fn nok_text(nok: &NokTree) -> String {
    fn write(nok: &NokTree, id: PatternNodeId, out: &mut String) {
        let n = nok.pattern.node(id);
        out.push_str(&n.test.to_string());
        if n.value.is_some() {
            out.push_str("[. op v]");
        }
        for &c in &n.children {
            out.push('[');
            match nok.pattern.node(c).axis {
                Axis::Child => {}
                axis => out.push_str(&format!("{axis}::")),
            }
            write(nok, c, out);
            out.push(']');
        }
    }
    let mut out = String::new();
    write(nok, nok.root(), &mut out);
    out
}

/// The nodes reached from `x` along a *local* axis, in document order.
/// All four local axes are one walk down a sibling chain: the children of
/// `x`, the siblings after `x`, the siblings before `x`, or `x` alone.
/// Global axes never appear inside a NoK (decomposition cut them) and
/// yield nothing.
fn local_axis(doc: &Document, axis: Axis, x: NodeId) -> LocalAxis<'_> {
    let (next, stop) = match axis {
        Axis::Child => (doc.first_child(x), None),
        Axis::FollowingSibling => (doc.next_sibling(x), None),
        Axis::PrecedingSibling => (doc.parent(x).and_then(|p| doc.first_child(p)), Some(x)),
        Axis::SelfAxis => (Some(x), doc.next_sibling(x)),
        _ => (None, None),
    };
    LocalAxis { doc, next, stop }
}

/// Iterator of [`local_axis`]: follows `next_sibling` links from `next`
/// until the chain ends or reaches `stop`.
struct LocalAxis<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
    stop: Option<NodeId>,
}

impl Iterator for LocalAxis<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next.filter(|&n| Some(n) != self.stop)?;
        self.next = self.doc.next_sibling(cur);
        Some(cur)
    }
}

/// Existential NoK matching against the current list registers.
struct Matcher<'a> {
    doc: &'a Document,
    ends: &'a [u32],
    nok: &'a Nok,
    lists: &'a [Cow<'a, [NodeId]>],
}

impl Matcher<'_> {
    /// Does the pattern subtree rooted at `p` match with `p` bound to `x`?
    fn exists(&self, p: usize, x: NodeId) -> bool {
        self.nok.nodes[p].test.matches(self.doc, x) && self.below(p, x)
    }

    /// [`Matcher::exists`] for an `x` already known to pass `p`'s kind
    /// test: value and attribute constraints, a witness in every cut-off
    /// NoK, a witness for every local child — first witness wins.
    fn below(&self, p: usize, x: NodeId) -> bool {
        let n = &self.nok.nodes[p];
        n.value.as_ref().is_none_or(|v| node_satisfies(self.doc, x, v))
            && n.attrs.iter().all(|(sym, value)| {
                self.doc.attributes(x).iter().any(|(s, text)| {
                    s == sym
                        && value
                            .as_ref()
                            .is_none_or(|v| node_vs_literal_str(text, v.op, &v.literal))
                })
            })
            && n.cuts.iter().all(|&child| {
                let list = &self.lists[child];
                let first = list.partition_point(|&d| d <= x);
                list.get(first).is_some_and(|d| d.0 <= self.ends[x.index()])
            })
            && n.children.iter().all(|&c| {
                local_axis(self.doc, self.nok.nodes[c].axis, x).any(|w| self.exists(c, w))
            })
    }

    /// One step down a NoK path: the bindings of pattern node `p` under
    /// the bindings `from` of its parent, sorted and distinct. `from`
    /// holds only nodes of full matches, so `p`'s siblings need no
    /// re-check.
    fn step(&self, p: usize, from: &[NodeId], c: &mut OpCounters) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &x in from {
            for w in local_axis(self.doc, self.nok.nodes[p].axis, x) {
                c.scanned += 1;
                if self.exists(p, w) {
                    out.push(w);
                }
            }
        }
        // Nested or sibling contexts interleave their bindings.
        out.sort_unstable();
        out.dedup();
        c.matches += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_anc(doc: &Document, outer: &[NodeId], inner: &[NodeId]) -> Vec<NodeId> {
        outer.iter().copied().filter(|&a| inner.iter().any(|&d| doc.is_ancestor(a, d))).collect()
    }

    fn brute_desc(doc: &Document, outer: &[NodeId], inner: &[NodeId]) -> Vec<NodeId> {
        inner.iter().copied().filter(|&d| outer.iter().any(|&a| doc.is_ancestor(a, d))).collect()
    }

    /// Both kernels, both directions, against `Document::is_ancestor`.
    fn check(doc: &Document, outer: &[NodeId], inner: &[NodeId]) {
        let ends = doc.last_desc_column();
        for kernel in [Kernel::Merge, Kernel::Probe] {
            let mut c = OpCounters::default();
            assert_eq!(
                semijoin_anc(outer, inner, ends, kernel, &mut c),
                brute_anc(doc, outer, inner),
                "{kernel:?} ancestors of {inner:?} among {outer:?}"
            );
            assert_eq!(
                semijoin_desc(outer, inner, ends, kernel, &mut c),
                brute_desc(doc, outer, inner),
                "{kernel:?} descendants of {outer:?} among {inner:?}"
            );
        }
    }

    fn tagged(doc: &Document, tag: &str) -> Vec<NodeId> {
        doc.elements().filter(|&n| doc.tag_name(n) == Some(tag)).collect()
    }

    #[test]
    fn kernels_agree_with_is_ancestor_on_nested_same_tag_regions() {
        let doc = Document::parse_str("<a><a><b/></a><b/></a>").unwrap();
        let (a, b) = (tagged(&doc, "a"), tagged(&doc, "b"));
        assert_eq!((a.len(), b.len()), (2, 2));
        check(&doc, &a, &b);
        check(&doc, &b, &a); // nothing below a leaf
        check(&doc, &a, &a); // self-join on a nesting tag: proper ancestors only
        // The inner `a` alone reaches the first `b` only.
        check(&doc, &a[1..], &b);
        // A deeper mix: nested regions, gaps, and a witness-free tail.
        let doc = Document::parse_str(
            "<r><a><x/><a><b/><a/></a><b/></a><b/><a><a><a><b/></a></a></a><a/><b/></r>",
        )
        .unwrap();
        let (a, b) = (tagged(&doc, "a"), tagged(&doc, "b"));
        check(&doc, &a, &b);
        check(&doc, &a, &a);
    }

    #[test]
    fn kernels_on_every_pair_of_sublists() {
        // Exhaustive over a small recursive document: every subset of the
        // `a`s against every subset of the `b`s.
        let doc =
            Document::parse_str("<a><b/><a><a><b/></a><b/></a><a/><b><a><b/></a></b></a>").unwrap();
        let (a, b) = (tagged(&doc, "a"), tagged(&doc, "b"));
        let subsets = |list: &[NodeId]| -> Vec<Vec<NodeId>> {
            (0..1u32 << list.len())
                .map(|mask| {
                    list.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, &n)| n)
                        .collect()
                })
                .collect()
        };
        for outer in subsets(&a) {
            for inner in subsets(&b) {
                check(&doc, &outer, &inner);
                check(&doc, &inner, &outer);
            }
        }
    }

    #[test]
    fn kernels_on_empty_and_single_element_lists() {
        let doc = Document::parse_str("<r><a><b/></a><a/><b/></r>").unwrap();
        let (a, b) = (tagged(&doc, "a"), tagged(&doc, "b"));
        check(&doc, &[], &[]);
        check(&doc, &a, &[]);
        check(&doc, &[], &b);
        for &one_a in &a {
            for &one_b in &b {
                check(&doc, &[one_a], &[one_b]);
            }
            check(&doc, &[one_a], &b);
        }
    }

    #[test]
    fn outer_is_the_document_root() {
        let doc = Document::parse_str("<r><a><b/></a><b/></r>").unwrap();
        let root = doc.root_element().unwrap();
        let b = tagged(&doc, "b");
        check(&doc, &[root], &b);
        check(&doc, &[NodeId::DOCUMENT], &b);
        check(&doc, &[NodeId::DOCUMENT, root], &[root]);
        // The root's region ends at the last node of the document.
        let last = NodeId(doc.len() as u32 - 1);
        check(&doc, &[root], &[last]);
    }

    #[test]
    fn kernel_follows_the_list_lengths() {
        assert_eq!(Kernel::for_lengths(100, 100), Kernel::Merge);
        assert_eq!(Kernel::for_lengths(100, 100 * PROBE_RATIO), Kernel::Merge);
        assert_eq!(Kernel::for_lengths(100, 100 * PROBE_RATIO + 1), Kernel::Probe);
        assert_eq!(Kernel::for_lengths(0, 1), Kernel::Probe);
        assert_eq!(Kernel::for_lengths(usize::MAX, usize::MAX), Kernel::Merge);
    }
}
