//! FLWOR evaluation on flat columns: binding tables joined set-at-a-time.
//!
//! The NestedList pipeline builds one tree per anchor and joins trees
//! pair by pair. Under `Strategy::Auto` a FLWOR instead compiles once
//! into a [`FlworPlan`] over flat, per-component tables:
//!
//! * **Components.** Every binding over an absolute path starts a
//!   component; a binding over `$v/…` joins `$v`'s. Absolute operands of
//!   `where`, `order by` and `return` share one extra, constant
//!   component. A component without `for` variables has exactly one row.
//! * **Binding table.** A component's rows are its `for` combinations in
//!   nesting order: one document-ordered [`NodeId`] column per `for`
//!   variable. The first column comes from the path plan of its absolute
//!   binding ([`FlatPlan`]: the path pipeline's scan / semi-join / NoK-match
//!   operators), each further one by expanding every row along its
//!   relative binding path. Every `let` variable and every operand is a
//!   *slot*: an `(offset, len)` range per row into one flat node list,
//!   with atomised values or structure hashes alongside where a
//!   predicate needs them.
//! * **Predicates.** A `where` atom over one component filters its rows.
//!   Components join left-deep in binding order; each join is driven by
//!   one atom between the new component and the ones already joined —
//!   `=` and `deep-equal` as a hash join, `<<`/`>>` as a binary search on
//!   the sorted operand — or is a product when no atom can drive it.
//!   Every other atom between the two is a residual filter on the
//!   emitted pairs.
//! * **Order.** Emission walks the joined tuples in order and, per
//!   tuple, the new component's rows in ascending order, which is the
//!   nesting order of the `for` clauses as long as no component's `for`
//!   variables interleave with another's; when they do, the plan sorts
//!   the tuples by their binding vectors once (`resort`).
//!   `order by` decorates each tuple once and sorts stably; construction
//!   reads the slots.
//!
//! Operands are evaluated with the navigational evaluator's semantics
//! (existential comparisons, empty sequences, first-node order and
//! identity), once per row rather than once per tuple, so results equal
//! `Strategy::Navigational`'s byte for byte. A FLWOR outside this algebra
//! ([`FlworPlan::compile`]'s `Err`) runs the NestedList pipeline instead.

use crate::decompose::Decomposition;
use crate::engine::EngineError;
use crate::env::copy_subtree;
use crate::flat::FlatPlan;
use crate::navigational::{self, ResolvedSteps};
use crate::obs::{OpCounters, TraceSink};
use crate::value::sequences_deep_equal;
use blossom_flwor::{BindingKind, BlossomTree, BoolExpr, Comparison, Expr, Flwor, SortOrder};
use blossom_flwor::ValueOperand;
use blossom_xml::fxhash::FxHasher;
use blossom_xml::{DocStats, Document, NodeId, NodeKind, TagIndex, TreeBuilder};
use blossom_xpath::ast::{CmpOp, Literal, PathExpr, PathStart};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// An atomised value: the trimmed string value and its numeric reading.
/// [`Atomic::compare`] is [`crate::value::compare_atomic`] on values trimmed
/// and parsed once instead of on every comparison.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Atomic {
    text: Box<str>,
    num: Option<f64>,
}

/// The equality class of an [`Atomic`] under `compare_atomic`: numbers by
/// value (`-0` is `0`), everything else by trimmed text. `NaN` compares
/// equal to every number, so it has a class of its own that the hash join
/// matches against all numeric rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Key<'a> {
    /// A number other than `NaN`, by its bits (`-0` normalised to `0`).
    Num(u64),
    /// `NaN`: equal to every number.
    NaN,
    /// A non-numeric trimmed string.
    Str(&'a str),
}

impl Atomic {
    /// Atomise a string value.
    pub(crate) fn new(value: &str) -> Atomic {
        let text = value.trim();
        Atomic { text: text.into(), num: text.parse().ok() }
    }

    /// `compare_atomic`: numeric when both sides parse, else by text.
    pub(crate) fn compare(&self, other: &Atomic) -> Ordering {
        match (self.num, other.num) {
            (Some(a), Some(b)) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
            _ => self.text.cmp(&other.text),
        }
    }

    /// The hash-join key: two values are `=` exactly when their keys are
    /// equal or one of them is [`Key::NaN`] and the other is numeric.
    pub(crate) fn key(&self) -> Key<'_> {
        match self.num {
            Some(x) if x.is_nan() => Key::NaN,
            // `-0` and `0` compare equal but differ in their sign bit.
            Some(x) => Key::Num(if x == 0.0 { 0 } else { x.to_bits() }),
            None => Key::Str(&self.text),
        }
    }

    /// `self op literal`, as [`crate::value::node_vs_literal`] decides it.
    fn vs_literal(&self, op: CmpOp, literal: &Literal, atomised: &Atomic) -> bool {
        match literal {
            Literal::Str(_) => op.eval(self.compare(atomised)),
            Literal::Num(n) => {
                self.num.is_some_and(|v| op.eval(v.partial_cmp(n).unwrap_or(Ordering::Equal)))
            }
        }
    }
}

/// A structure hash of a node sequence: equal for `deep-equal` sequences
/// (same length, pairwise equal preorder of relative depth, kind, tag,
/// attributes and text), verified with `Document::deep_equal` on a match.
pub(crate) fn sequence_hash(doc: &Document, nodes: &[NodeId]) -> u64 {
    let mut h = FxHasher::default();
    nodes.len().hash(&mut h);
    for &n in nodes {
        if matches!(doc.kind(n), NodeKind::Document) {
            n.hash(&mut h); // deep-equal on document nodes is identity
            continue;
        }
        let base = doc.level(n);
        for x in n.0..=doc.last_descendant(n).0 {
            let x = NodeId(x);
            (doc.level(x) - base).hash(&mut h);
            match doc.kind(x) {
                NodeKind::Text => doc.text(x).hash(&mut h),
                NodeKind::Element(sym) => {
                    sym.hash(&mut h);
                    doc.attributes(x).hash(&mut h);
                }
                NodeKind::Document => x.hash(&mut h),
            }
        }
    }
    h.finish()
}

/// Where a slot's input nodes come from in each row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Base {
    /// The row's node in one `for` column.
    Col(usize),
    /// The row's nodes in an earlier slot.
    Slot(usize),
    /// The document node (absolute paths).
    Doc,
}

/// A per-row node sequence: a `let` variable or an operand.
#[derive(Debug)]
struct Slot {
    base: Base,
    /// The relative path evaluated from each row's base nodes.
    steps: ResolvedSteps,
    /// The path as written, for `EXPLAIN`.
    text: String,
    /// Computed before the component's filters (filters read it).
    early: bool,
    /// Atomised values are needed (value comparisons).
    atoms: bool,
    /// Structure hashes are needed (a `deep-equal` hash join).
    hash: bool,
}

/// How the first `for` column of a component is produced.
#[derive(Debug)]
enum Source {
    /// The flat path operators over the posting lists.
    Flat(FlatPlan),
    /// The navigational walk (positional, `or`/`not`, or non-`//` cuts).
    Nav(PathExpr),
}

/// One `for` variable's column.
#[derive(Debug)]
struct Column {
    var: String,
    /// The absolute binding of the component's first column, or the
    /// column (of this component) a relative binding starts at.
    from: Result<Source, usize>,
    /// The relative binding's path (empty for the first column).
    steps: ResolvedSteps,
}

/// One component: its `for` columns and its slots.
#[derive(Debug, Default)]
struct Comp {
    cols: Vec<Column>,
    slots: Vec<Slot>,
}

/// An operand: one slot of one component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Opnd {
    comp: usize,
    slot: usize,
}

/// The comparison of a `where` atom.
#[derive(Debug)]
enum Test {
    /// `l << r` (first nodes; `>>` is compiled with operands swapped).
    Before,
    /// `l is r` (`true`) or `l isnot r` (`false`) on first nodes.
    Identity(bool),
    /// Existential general comparison between two sequences.
    Value(CmpOp),
    /// Existential comparison against a literal (pre-atomised).
    Literal(CmpOp, Literal, Atomic),
    /// `deep-equal(l, r)`.
    DeepEqual,
    /// `count(l) op n`.
    Count(CmpOp, f64),
    /// `exists(l)` (`true`) or `empty(l)` (`false`).
    Exists(bool),
}

/// One conjunct of the `where` clause.
#[derive(Debug)]
struct Atom {
    test: Test,
    negated: bool,
    l: Opnd,
    /// The right operand of a binary test.
    r: Option<Opnd>,
    /// The atom as written, for `EXPLAIN`.
    text: String,
}

/// How a join finds the new component's partner rows for one tuple.
#[derive(Debug)]
enum Drive {
    /// Every live row, filtered by the residuals.
    Product,
    /// A hash join on atom `atom` (`=`) over atomised values; `inner` is
    /// the new component's operand.
    Values { atom: usize, inner: Opnd, outer: Opnd },
    /// A hash join on atom `atom` (`deep-equal`) over structure hashes,
    /// each match verified.
    Structure { atom: usize, inner: Opnd, outer: Opnd },
    /// A binary search for atom `atom` (`l << r`) on the new component's
    /// first operand nodes; `inner_is_left` when the new component owns
    /// `l`.
    Order { atom: usize, inner: Opnd, outer: Opnd, inner_is_left: bool },
}

/// One physical operator of a [`FlworPlan`].
#[derive(Debug)]
enum Op {
    /// Produce column `col` of component `comp`.
    Column { comp: usize, col: usize },
    /// Compute the component's slots (`early` ones before its filters).
    Operands { comp: usize, early: bool },
    /// Drop the component's rows that fail atom `atom`.
    Filter { comp: usize, atom: usize },
    /// Start the tuples from the component's live rows.
    Seed { comp: usize },
    /// Extend every tuple by the partner rows of component `comp`.
    Join { comp: usize, drive: Drive, residual: Vec<usize> },
    /// Sort tuples into `for`-nesting order (interleaved components).
    Resort,
    /// Sort tuples by the `order by` keys.
    OrderBy,
    /// Build the `return` expression once per tuple.
    Construct,
}

/// The `return` expression with its paths resolved to operands.
#[derive(Debug)]
enum Ret {
    Text(String),
    Seq(Vec<Ret>),
    Elem { name: String, attrs: Vec<(String, String)>, children: Vec<Ret> },
    Nodes(Opnd),
}

/// A FLWOR compiled to operators over flat per-component tables (see the
/// module docs). Holds one document's symbols and posting-list plans, so
/// it is cached per document like the path plans.
#[derive(Debug)]
pub struct FlworPlan {
    comps: Vec<Comp>,
    atoms: Vec<Atom>,
    order_by: Vec<(Opnd, SortOrder)>,
    ret: Ret,
    /// `(component, column)` of every `for` variable in binding order.
    nesting: Vec<(usize, usize)>,
    ops: Vec<Op>,
}

/// A variable in scope during compilation.
#[derive(Debug, Clone, Copy)]
enum Bound {
    For { comp: usize, col: usize },
    Let { comp: usize, slot: usize },
}

struct Compiler<'a> {
    doc: &'a Document,
    stats: &'a DocStats,
    comps: Vec<Comp>,
    /// The component of absolute operands, once one exists.
    consts: Option<usize>,
    vars: Vec<(String, Bound)>,
    /// `(component, column)` of every `for` variable in binding order.
    nesting: Vec<(usize, usize)>,
}

impl Compiler<'_> {
    fn bound(&self, var: &str) -> Result<Bound, String> {
        self.vars
            .iter()
            .find(|(name, _)| name == var)
            .map(|&(_, b)| b)
            .ok_or_else(|| format!("${var} is not bound"))
    }

    /// The slot holding `path`'s nodes per row, shared by equal paths.
    fn operand(&mut self, path: &PathExpr) -> Result<Opnd, String> {
        let (comp, base) = match &path.start {
            PathStart::Variable(v) => match self.bound(v)? {
                Bound::For { comp, col } => (comp, Base::Col(col)),
                Bound::Let { comp, slot } if path.steps.is_empty() => {
                    return Ok(Opnd { comp, slot })
                }
                Bound::Let { comp, slot } => (comp, Base::Slot(slot)),
            },
            PathStart::Root { .. } => {
                let comp = *self.consts.get_or_insert_with(|| {
                    self.comps.push(Comp::default());
                    self.comps.len() - 1
                });
                (comp, Base::Doc)
            }
            PathStart::Context => return Err("a context-relative path".into()),
        };
        Ok(Opnd { comp, slot: self.slot(comp, base, path) })
    }

    fn slot(&mut self, comp: usize, base: Base, path: &PathExpr) -> usize {
        let slots = &mut self.comps[comp].slots;
        if let Some(i) = slots.iter().position(|s| s.base == base && s.steps.steps() == path.steps) {
            return i;
        }
        slots.push(Slot {
            base,
            steps: ResolvedSteps::new(self.doc, &path.steps),
            text: path.to_string(),
            early: false,
            atoms: false,
            hash: false,
        });
        slots.len() - 1
    }

    fn binding(&mut self, kind: BindingKind, var: &str, path: &PathExpr) -> Result<(), String> {
        if self.vars.iter().any(|(name, _)| name == var) {
            return Err(format!("${var} is bound twice"));
        }
        let bound = match (&path.start, kind) {
            (PathStart::Root { .. }, BindingKind::For) => {
                let source = column_source(path, self.doc, self.stats);
                self.comps.push(Comp::default());
                let comp = self.comps.len() - 1;
                let steps = ResolvedSteps::new(self.doc, &[]);
                let column = Column { var: var.into(), from: Ok(source), steps };
                self.comps[comp].cols.push(column);
                self.nesting.push((comp, 0));
                Bound::For { comp, col: 0 }
            }
            (PathStart::Root { .. }, BindingKind::Let) => {
                self.comps.push(Comp::default());
                let comp = self.comps.len() - 1;
                Bound::Let { comp, slot: self.slot(comp, Base::Doc, path) }
            }
            (PathStart::Variable(v), BindingKind::For) => match self.bound(v)? {
                Bound::For { comp, col } => {
                    let cols = &mut self.comps[comp].cols;
                    let steps = ResolvedSteps::new(self.doc, &path.steps);
                    cols.push(Column { var: var.into(), from: Err(col), steps });
                    self.nesting.push((comp, cols.len() - 1));
                    Bound::For { comp, col: cols.len() - 1 }
                }
                Bound::Let { .. } => {
                    return Err(format!("`for ${var}` iterates a let-bound sequence"))
                }
            },
            (PathStart::Variable(_), BindingKind::Let) => {
                let Opnd { comp, slot } = self.operand(path)?;
                Bound::Let { comp, slot }
            }
            (PathStart::Context, _) => return Err("a context-relative binding".into()),
        };
        self.vars.push((var.into(), bound));
        Ok(())
    }

    fn atoms(&mut self, e: &BoolExpr, negated: bool, out: &mut Vec<Atom>) -> Result<(), String> {
        match e {
            BoolExpr::And(a, b) if !negated => {
                self.atoms(a, false, out)?;
                self.atoms(b, false, out)
            }
            BoolExpr::Not(inner) => self.atoms(inner, !negated, out),
            BoolExpr::Comparison(c) => {
                let (test, l, r) = match c {
                    Comparison::NodeOrder { left, before, right } => {
                        let (l, r) = if *before { (left, right) } else { (right, left) };
                        (Test::Before, self.operand(l)?, Some(self.operand(r)?))
                    }
                    Comparison::NodeIdentity { left, same, right } => {
                        (Test::Identity(*same), self.operand(left)?, Some(self.operand(right)?))
                    }
                    Comparison::Value { left, op, right: ValueOperand::Path(right) } => {
                        (Test::Value(*op), self.operand(left)?, Some(self.operand(right)?))
                    }
                    Comparison::Value { left, op, right: ValueOperand::Literal(lit) } => {
                        let atomised = Atomic::new(&match lit {
                            Literal::Str(s) => s.clone(),
                            Literal::Num(n) => n.to_string(),
                        });
                        (Test::Literal(*op, lit.clone(), atomised), self.operand(left)?, None)
                    }
                    Comparison::DeepEqual { left, right } => {
                        (Test::DeepEqual, self.operand(left)?, Some(self.operand(right)?))
                    }
                    Comparison::Count { path, op, value } => {
                        (Test::Count(*op, *value), self.operand(path)?, None)
                    }
                    Comparison::Exists { path, exists } => {
                        (Test::Exists(*exists), self.operand(path)?, None)
                    }
                };
                let text = match negated {
                    true => format!("not({})", comparison_text(c)),
                    false => comparison_text(c),
                };
                out.push(Atom { test, negated, l, r, text });
                Ok(())
            }
            BoolExpr::And(..) => Err("a negated conjunction".into()),
            BoolExpr::Or(..) => Err("a disjunction".into()),
        }
    }

    fn ret(&mut self, e: &Expr) -> Result<Ret, String> {
        Ok(match e {
            Expr::Text(t) => Ret::Text(t.clone()),
            Expr::Sequence(items) => {
                Ret::Seq(items.iter().map(|i| self.ret(i)).collect::<Result<_, _>>()?)
            }
            Expr::Constructor(c) => Ret::Elem {
                name: c.name.clone(),
                attrs: c.attrs.clone(),
                children: c.children.iter().map(|i| self.ret(i)).collect::<Result<_, _>>()?,
            },
            Expr::Path(p) => Ret::Nodes(self.operand(p)?),
            Expr::Flwor(_) => return Err("a nested FLWOR in the return clause".into()),
        })
    }
}

/// The plan producing an absolute `for` binding's column: the flat path
/// pipeline where the path is inside it, else the navigational walk —
/// the same choice `Auto` makes for the path as a query.
fn column_source(path: &PathExpr, doc: &Document, stats: &DocStats) -> Source {
    if path.has_positional() || path.has_disjunction() {
        return Source::Nav(path.clone());
    }
    let flat = BlossomTree::from_path(path).ok().and_then(|bt| {
        FlatPlan::compile(&Decomposition::decompose(&bt), bt.returning[0], doc, stats).ok()
    });
    flat.map_or_else(|| Source::Nav(path.clone()), Source::Flat)
}

fn comparison_text(c: &Comparison) -> String {
    match c {
        Comparison::NodeOrder { left, before, right } => {
            format!("{left} {} {right}", if *before { "<<" } else { ">>" })
        }
        Comparison::NodeIdentity { left, same, right } => {
            format!("{left} {} {right}", if *same { "is" } else { "isnot" })
        }
        Comparison::Value { left, op, right: ValueOperand::Path(right) } => {
            format!("{left} {op} {right}")
        }
        Comparison::Value { left, op, right: ValueOperand::Literal(lit) } => {
            format!("{left} {op} {lit}")
        }
        Comparison::DeepEqual { left, right } => format!("deep-equal({left}, {right})"),
        Comparison::Count { path, op, value } => format!("count({path}) {op} {value}"),
        Comparison::Exists { path, exists } => {
            format!("{}({path})", if *exists { "exists" } else { "empty" })
        }
    }
}

impl FlworPlan {
    /// Compile `flwor` against one document. `Err` names what puts the
    /// FLWOR outside the flat algebra: a disjunction or negated
    /// conjunction in `where`, a `for` over a `let`-bound sequence, a
    /// nested FLWOR in `return`, a context-relative path, or a variable
    /// bound twice or not at all.
    pub fn compile(flwor: &Flwor, doc: &Document, stats: &DocStats) -> Result<FlworPlan, String> {
        let mut c = Compiler {
            doc,
            stats,
            comps: Vec::new(),
            consts: None,
            vars: Vec::new(),
            nesting: Vec::new(),
        };
        for b in &flwor.bindings {
            c.binding(b.kind, &b.var, &b.path)?;
        }
        let mut atoms = Vec::new();
        if let Some(w) = &flwor.where_clause {
            c.atoms(w, false, &mut atoms)?;
        }
        let order_by = flwor
            .order_by
            .iter()
            .map(|(p, dir)| Ok((c.operand(p)?, *dir)))
            .collect::<Result<Vec<_>, String>>()?;
        let ret = c.ret(&flwor.ret)?;
        let mut comps = c.comps;

        // What each atom needs of its operand slots.
        for a in &atoms {
            for o in [Some(a.l), a.r].into_iter().flatten() {
                let slot = &mut comps[o.comp].slots[o.slot];
                slot.atoms |= matches!(a.test, Test::Value(_) | Test::Literal(..));
            }
        }

        // Filters: atoms inside one component.
        let single = |a: &Atom| a.r.is_none_or(|r| r.comp == a.l.comp);
        for a in atoms.iter().filter(|a| single(a)) {
            for o in [Some(a.l), a.r].into_iter().flatten() {
                let mut s = o.slot;
                loop {
                    let slot = &mut comps[o.comp].slots[s];
                    slot.early = true;
                    match slot.base {
                        Base::Slot(b) => s = b,
                        _ => break,
                    }
                }
            }
        }

        let mut ops = Vec::new();
        for (ci, comp) in comps.iter().enumerate() {
            ops.extend((0..comp.cols.len()).map(|col| Op::Column { comp: ci, col }));
            if comp.slots.iter().any(|s| s.early) {
                ops.push(Op::Operands { comp: ci, early: true });
            }
            for (ai, _) in atoms.iter().enumerate().filter(|(_, a)| single(a) && a.l.comp == ci) {
                ops.push(Op::Filter { comp: ci, atom: ai });
            }
            if comp.slots.iter().any(|s| !s.early) {
                ops.push(Op::Operands { comp: ci, early: false });
            }
        }

        // Joins, left-deep in component order (binding order, constants
        // last). Each crossing atom runs at its later component's join.
        ops.push(Op::Seed { comp: 0 });
        for ci in 1..comps.len() {
            let crossing: Vec<usize> = (0..atoms.len())
                .filter(|&ai| {
                    let a = &atoms[ai];
                    a.r.is_some_and(|r| {
                        (a.l.comp == ci && r.comp < ci) || (r.comp == ci && a.l.comp < ci)
                    })
                })
                .collect();
            let inner_outer = |a: &Atom| {
                let r = a.r.expect("crossing atoms are binary");
                if a.l.comp == ci { (a.l, r, true) } else { (r, a.l, false) }
            };
            let rank = |a: &Atom| match a.test {
                _ if a.negated => None,
                Test::Value(CmpOp::Eq) | Test::DeepEqual => Some(0),
                Test::Before => Some(1),
                _ => None,
            };
            let driver = crossing
                .iter()
                .copied()
                .filter_map(|ai| rank(&atoms[ai]).map(|r| (r, ai)))
                .min()
                .map(|(_, ai)| ai);
            let drive = match driver {
                None => Drive::Product,
                Some(atom) => {
                    let (inner, outer, inner_is_left) = inner_outer(&atoms[atom]);
                    match atoms[atom].test {
                        Test::Before => Drive::Order { atom, inner, outer, inner_is_left },
                        Test::DeepEqual => {
                            comps[inner.comp].slots[inner.slot].hash = true;
                            comps[outer.comp].slots[outer.slot].hash = true;
                            Drive::Structure { atom, inner, outer }
                        }
                        _ => Drive::Values { atom, inner, outer },
                    }
                }
            };
            // Cheapest residuals first: node order and identity read one
            // node per side, deep-equal walks whole subtrees.
            let mut residual: Vec<usize> =
                crossing.into_iter().filter(|&ai| Some(ai) != driver).collect();
            residual.sort_by_key(|&ai| match atoms[ai].test {
                Test::DeepEqual => 2,
                Test::Value(_) | Test::Literal(..) => 1,
                _ => 0,
            });
            ops.push(Op::Join { comp: ci, drive, residual });
        }

        // Emission follows component order; it is nesting order unless
        // some component's `for` variables interleave with a later one's.
        let nesting = c.nesting;
        if nesting.windows(2).any(|w| w[1].0 < w[0].0) {
            ops.push(Op::Resort);
        }
        if !order_by.is_empty() {
            ops.push(Op::OrderBy);
        }
        ops.push(Op::Construct);
        Ok(FlworPlan { comps, atoms, order_by, ret, nesting, ops })
    }

    /// Evaluate the plan, appending each tuple's `return` construction to
    /// `builder`. `poll` runs between operators and once per outer row
    /// inside column expansion, joins and construction; with a `sink`
    /// every operator records one counter row, `"<position> <operator>"`.
    pub fn run(
        &self,
        doc: &Document,
        index: &TagIndex,
        builder: &mut TreeBuilder,
        sink: Option<&TraceSink>,
        poll: &dyn Fn() -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        let mut st = Run {
            plan: self,
            doc,
            tables: self
                .comps
                .iter()
                .map(|comp| Table {
                    rows: 1,
                    live: vec![0],
                    cols: vec![Vec::new(); comp.cols.len()],
                    slots: comp.slots.iter().map(|_| SlotData::default()).collect(),
                })
                .collect(),
            tuples: Vec::new(),
            pos: vec![usize::MAX; self.comps.len()],
            stride: 0,
        };
        for (i, op) in self.ops.iter().enumerate() {
            poll()?;
            let mut c = OpCounters::default();
            match op {
                Op::Column { comp, col } => st.column(*comp, *col, index, sink, poll, i, &mut c)?,
                Op::Operands { comp, early } => st.operands(*comp, *early, &mut c),
                Op::Filter { comp, atom } => {
                    let t = &st.tables[*comp];
                    c.scanned = t.live.len() as u64;
                    let holds = |&r: &u32| st.holds(*atom, &|_| r as usize);
                    let live: Vec<u32> = t.live.iter().copied().filter(holds).collect();
                    c.output = live.len() as u64;
                    st.tables[*comp].live = live;
                }
                Op::Seed { comp } => {
                    st.tuples = st.tables[*comp].live.clone();
                    st.pos[*comp] = 0;
                    st.stride = 1;
                    c.output = st.tuples.len() as u64;
                }
                Op::Join { comp, drive, residual } => {
                    st.join(*comp, drive, residual, poll, &mut c)?
                }
                Op::Resort => {
                    let keys: Vec<Vec<NodeId>> = (0..st.count())
                        .map(|t| {
                            self.nesting
                                .iter()
                                .map(|&(comp, col)| st.tables[comp].cols[col][st.row(t, comp)])
                                .collect()
                        })
                        .collect();
                    st.permute(|a, b| keys[a].cmp(&keys[b]));
                    c.scanned = keys.len() as u64;
                }
                Op::OrderBy => {
                    let mut scratch = String::new();
                    let keys: Vec<Vec<Box<str>>> = (0..st.count())
                        .map(|t| {
                            self.order_by
                                .iter()
                                .map(|&(o, _)| {
                                    scratch.clear();
                                    if let Some(&n) = st.nodes(o, st.row(t, o.comp)).first() {
                                        doc.string_value_into(n, &mut scratch);
                                    }
                                    Box::from(scratch.as_str())
                                })
                                .collect()
                        })
                        .collect();
                    st.permute(|a, b| {
                        for (k, &(_, dir)) in self.order_by.iter().enumerate() {
                            let ord = keys[a][k].cmp(&keys[b][k]);
                            let ord =
                                if dir == SortOrder::Descending { ord.reverse() } else { ord };
                            if ord != Ordering::Equal {
                                return ord;
                            }
                        }
                        Ordering::Equal
                    });
                    c.scanned = keys.len() as u64;
                }
                Op::Construct => {
                    for t in 0..st.count() {
                        poll()?;
                        st.construct(builder, &self.ret, t);
                    }
                    c.output = st.count() as u64;
                }
            }
            if let Some(sink) = sink {
                sink.record_op(&format!("{i:02} {}", op.name()), c);
            }
            if st.tables.iter().any(|t| t.live.is_empty()) {
                break; // some component has no rows left: no tuples
            }
        }
        Ok(())
    }
}

/// One component's binding table.
struct Table {
    rows: usize,
    /// Rows that passed the component's filters, ascending.
    live: Vec<u32>,
    cols: Vec<Vec<NodeId>>,
    slots: Vec<SlotData>,
}

/// One slot's per-row ranges into its flat node list.
#[derive(Default)]
struct SlotData {
    ranges: Vec<(u32, u32)>,
    nodes: Vec<NodeId>,
    /// Parallel to `nodes` when the slot's values are compared.
    atoms: Vec<Atomic>,
    /// Per row, when a `deep-equal` hash join reads the slot.
    hashes: Vec<u64>,
}

impl SlotData {
    fn range(&self, row: usize) -> std::ops::Range<usize> {
        let (off, len) = self.ranges[row];
        off as usize..(off + len) as usize
    }
}

/// The state of one [`FlworPlan::run`].
struct Run<'a> {
    plan: &'a FlworPlan,
    doc: &'a Document,
    tables: Vec<Table>,
    /// Joined tuples, `stride` row indices each.
    tuples: Vec<u32>,
    /// A component's position inside a tuple (`usize::MAX`: not joined).
    pos: Vec<usize>,
    stride: usize,
}

impl Run<'_> {
    fn count(&self) -> usize {
        self.tuples.len().checked_div(self.stride).unwrap_or(0)
    }

    fn row(&self, t: usize, comp: usize) -> usize {
        self.tuples[t * self.stride + self.pos[comp]] as usize
    }

    fn nodes(&self, o: Opnd, row: usize) -> &[NodeId] {
        let s = &self.tables[o.comp].slots[o.slot];
        &s.nodes[s.range(row)]
    }

    fn atoms(&self, o: Opnd, row: usize) -> &[Atomic] {
        let s = &self.tables[o.comp].slots[o.slot];
        &s.atoms[s.range(row)]
    }

    #[allow(clippy::too_many_arguments)]
    fn column(
        &mut self,
        comp: usize,
        col: usize,
        index: &TagIndex,
        sink: Option<&TraceSink>,
        poll: &dyn Fn() -> Result<(), EngineError>,
        position: usize,
        c: &mut OpCounters,
    ) -> Result<(), EngineError> {
        let doc = self.doc;
        let column = &self.plan.comps[comp].cols[col];
        let t = &mut self.tables[comp];
        match &column.from {
            Ok(Source::Flat(flat)) => {
                let label = format!("{position:02}.");
                t.cols[col] = flat.run_labelled(doc, index, None, sink, poll, &label)?.0;
            }
            Ok(Source::Nav(path)) => t.cols[col] = navigational::eval_path(doc, path, &[]),
            Err(parent) => {
                // Expand every row by its bindings, keeping nesting order.
                let mut cols: Vec<Vec<NodeId>> = vec![Vec::new(); col + 1];
                let mut found = Vec::new();
                for r in 0..t.rows {
                    poll()?;
                    found.clear();
                    column.steps.eval_into(doc, &[t.cols[*parent][r]], &mut found);
                    c.scanned += 1;
                    for &b in &found {
                        for (k, out) in cols.iter_mut().enumerate().take(col) {
                            out.push(t.cols[k][r]);
                        }
                        cols[col].push(b);
                    }
                }
                cols.resize(t.cols.len(), Vec::new());
                t.cols = cols;
            }
        }
        t.rows = t.cols[col].len();
        t.live = (0..t.rows as u32).collect();
        c.output = t.rows as u64;
        Ok(())
    }

    /// Compute the component's `early` (or remaining) slots for its live
    /// rows; other rows get empty ranges.
    fn operands(&mut self, comp: usize, early: bool, c: &mut OpCounters) {
        let doc = self.doc;
        let t = &mut self.tables[comp];
        let mut scratch = String::new();
        for (si, slot) in self.plan.comps[comp].slots.iter().enumerate() {
            if slot.early != early {
                continue;
            }
            let (done, rest) = t.slots.split_at_mut(si);
            let data = &mut rest[0];
            data.ranges = vec![(0, 0); t.rows];
            for &r in &t.live {
                let r = r as usize;
                let from = match slot.base {
                    Base::Col(k) => std::slice::from_ref(&t.cols[k][r]),
                    Base::Slot(b) => &done[b].nodes[done[b].range(r)],
                    Base::Doc => &[NodeId::DOCUMENT],
                };
                let off = data.nodes.len();
                slot.steps.eval_into(doc, from, &mut data.nodes);
                data.ranges[r] = (off as u32, (data.nodes.len() - off) as u32);
            }
            if slot.atoms {
                data.atoms = data
                    .nodes
                    .iter()
                    .map(|&n| {
                        scratch.clear();
                        doc.string_value_into(n, &mut scratch);
                        Atomic::new(&scratch)
                    })
                    .collect();
            }
            if slot.hash {
                data.hashes =
                    (0..t.rows).map(|r| sequence_hash(doc, &data.nodes[data.range(r)])).collect();
            }
            c.scanned += t.live.len() as u64;
            c.output += data.nodes.len() as u64;
        }
    }

    /// Does atom `ai` hold with each operand's component at `row_of(comp)`?
    fn holds(&self, ai: usize, row_of: &dyn Fn(usize) -> usize) -> bool {
        let a = &self.plan.atoms[ai];
        let (l, lrow) = (a.l, row_of(a.l.comp));
        let right = a.r.map(|r| (r, row_of(r.comp)));
        let first = |o: Opnd, row: usize| self.nodes(o, row).first().copied();
        let holds = match (&a.test, right) {
            (Test::Before, Some((r, rrow))) => {
                matches!((first(l, lrow), first(r, rrow)), (Some(x), Some(y)) if x < y)
            }
            (Test::Identity(same), Some((r, rrow))) => {
                matches!((first(l, lrow), first(r, rrow)), (Some(x), Some(y)) if (x == y) == *same)
            }
            (Test::Value(op), Some((r, rrow))) => {
                let rs = self.atoms(r, rrow);
                self.atoms(l, lrow).iter().any(|x| rs.iter().any(|y| op.eval(x.compare(y))))
            }
            (Test::DeepEqual, Some((r, rrow))) => {
                sequences_deep_equal(self.doc, self.nodes(l, lrow), self.nodes(r, rrow))
            }
            (Test::Literal(op, lit, atomised), None) => {
                self.atoms(l, lrow).iter().any(|x| x.vs_literal(*op, lit, atomised))
            }
            (Test::Count(op, n), None) => {
                let len = self.nodes(l, lrow).len() as f64;
                op.eval(len.partial_cmp(n).unwrap_or(Ordering::Equal))
            }
            (Test::Exists(exists), None) => self.nodes(l, lrow).is_empty() != *exists,
            _ => unreachable!("binary tests have two operands"),
        };
        holds != a.negated
    }

    fn join(
        &mut self,
        comp: usize,
        drive: &Drive,
        residual: &[usize],
        poll: &dyn Fn() -> Result<(), EngineError>,
        c: &mut OpCounters,
    ) -> Result<(), EngineError> {
        let live = &self.tables[comp].live;
        // Partner lookup structures over the new component's live rows.
        // Their keys are document values, so the maps keep the default,
        // collision-resistant hasher.
        let mut by_key: HashMap<Key<'_>, Vec<u32>> = HashMap::new();
        let (mut numeric, mut nan) = (Vec::new(), Vec::new());
        let mut by_hash: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut sorted: Vec<(NodeId, u32)> = Vec::new();
        match *drive {
            Drive::Product => {}
            Drive::Structure { inner, .. } => {
                let s = &self.tables[inner.comp].slots[inner.slot];
                for &r in live {
                    by_hash.entry(s.hashes[r as usize]).or_default().push(r);
                }
            }
            Drive::Values { inner, .. } => {
                for &r in live {
                    let atoms = self.atoms(inner, r as usize);
                    if atoms.iter().any(|a| a.num.is_some()) {
                        numeric.push(r);
                    }
                    for a in atoms {
                        match a.key() {
                            Key::NaN => nan.push(r),
                            key => {
                                let rows = by_key.entry(key).or_default();
                                if rows.last() != Some(&r) {
                                    rows.push(r);
                                }
                            }
                        }
                    }
                }
                nan.dedup();
            }
            Drive::Order { inner, .. } => {
                sorted = live
                    .iter()
                    .filter_map(|&r| self.nodes(inner, r as usize).first().map(|&n| (n, r)))
                    .collect();
                sorted.sort_unstable();
            }
        }

        let mut out = Vec::new();
        let mut partners: Vec<u32> = Vec::new();
        for t in 0..self.count() {
            poll()?;
            partners.clear();
            match *drive {
                Drive::Product => partners.extend_from_slice(live),
                Drive::Structure { outer, .. } => {
                    let h = self.tables[outer.comp].slots[outer.slot].hashes[self.row(t, outer.comp)];
                    partners.extend(by_hash.get(&h).into_iter().flatten());
                }
                Drive::Values { outer, .. } => {
                    for a in self.atoms(outer, self.row(t, outer.comp)) {
                        match a.key() {
                            Key::NaN => partners.extend_from_slice(&numeric),
                            key => {
                                partners.extend(by_key.get(&key).into_iter().flatten());
                                if let Key::Num(_) = key {
                                    partners.extend_from_slice(&nan);
                                }
                            }
                        }
                    }
                    partners.sort_unstable();
                    partners.dedup();
                }
                Drive::Order { outer, inner_is_left, .. } => {
                    let orow = self.row(t, outer.comp);
                    if let Some(&x) = self.nodes(outer, orow).first() {
                        let range = if inner_is_left {
                            0..sorted.partition_point(|&(n, _)| n < x)
                        } else {
                            sorted.partition_point(|&(n, _)| n <= x)..sorted.len()
                        };
                        partners.extend(sorted[range].iter().map(|&(_, r)| r));
                        partners.sort_unstable();
                    }
                }
            }
            c.scanned += partners.len() as u64;
            let verify = match *drive {
                Drive::Structure { atom, .. } => Some(atom),
                _ => None,
            };
            for &r in &partners {
                let row_of = |x: usize| if x == comp { r as usize } else { self.row(t, x) };
                // A structure-hash match is verified after the residuals.
                if residual.iter().copied().chain(verify).all(|ai| self.holds(ai, &row_of)) {
                    out.extend_from_slice(&self.tuples[t * self.stride..(t + 1) * self.stride]);
                    out.push(r);
                }
            }
        }
        self.pos[comp] = self.stride;
        self.stride += 1;
        self.tuples = out;
        c.output = self.count() as u64;
        c.matches = c.output;
        if self.count() == 0 {
            self.tables[comp].live.clear();
        }
        Ok(())
    }

    /// Reorder the tuples by `cmp` over tuple indices (stable).
    fn permute(&mut self, cmp: impl Fn(usize, usize) -> Ordering) {
        let mut order: Vec<usize> = (0..self.count()).collect();
        order.sort_by(|&a, &b| cmp(a, b));
        let stride = self.stride;
        self.tuples = order
            .iter()
            .flat_map(|&t| self.tuples[t * stride..(t + 1) * stride].iter().copied())
            .collect();
    }

    fn construct(&self, builder: &mut TreeBuilder, ret: &Ret, t: usize) {
        match ret {
            Ret::Text(text) => builder.text(text),
            Ret::Seq(items) => items.iter().for_each(|i| self.construct(builder, i, t)),
            Ret::Elem { name, attrs, children } => {
                builder.start_element(name);
                for (k, v) in attrs {
                    builder.attribute(k, v);
                }
                children.iter().for_each(|i| self.construct(builder, i, t));
                builder.end_element();
            }
            Ret::Nodes(o) => {
                for &n in self.nodes(*o, self.row(t, o.comp)) {
                    copy_subtree(builder, self.doc, n);
                }
            }
        }
    }
}

impl Op {
    fn name(&self) -> &'static str {
        match self {
            Op::Column { .. } => "column",
            Op::Operands { .. } => "operands",
            Op::Filter { .. } => "filter",
            Op::Seed { .. } => "seed",
            Op::Join { drive: Drive::Product, .. } => "product",
            Op::Join { drive: Drive::Values { .. } | Drive::Structure { .. }, .. } => "hash-join",
            Op::Join { drive: Drive::Order { .. }, .. } => "order-join",
            Op::Resort => "resort",
            Op::OrderBy => "order-by",
            Op::Construct => "construct",
        }
    }
}

/// The `EXPLAIN` printer: one line per operator (a column's flat path
/// plan indented below it), at the positions the profile's counter rows
/// carry.
impl fmt::Display for FlworPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            write!(f, "  {i:02} {:<11} ", op.name())?;
            match op {
                Op::Column { comp, col } => {
                    let column = &self.comps[*comp].cols[*col];
                    match &column.from {
                        Ok(Source::Flat(flat)) => {
                            writeln!(f, "c{comp} ${} (flat path plan)", column.var)?;
                            for line in flat.to_string().lines() {
                                writeln!(f, "    {line}")?;
                            }
                        }
                        Ok(Source::Nav(path)) => {
                            writeln!(f, "c{comp} ${} (navigational {path})", column.var)?
                        }
                        Err(parent) => {
                            let from = &self.comps[*comp].cols[*parent].var;
                            let path = PathExpr {
                                start: PathStart::Variable(from.clone()),
                                steps: column.steps.steps().to_vec(),
                            };
                            writeln!(f, "c{comp} ${} in {path}", column.var)?
                        }
                    }
                }
                Op::Operands { comp, early } => {
                    let texts: Vec<&str> = self.comps[*comp]
                        .slots
                        .iter()
                        .filter(|s| s.early == *early)
                        .map(|s| s.text.as_str())
                        .collect();
                    writeln!(f, "c{comp} [{}]", texts.join(", "))?
                }
                Op::Filter { comp, atom } => writeln!(f, "c{comp} {}", self.atoms[*atom].text)?,
                Op::Seed { comp } => writeln!(f, "c{comp}")?,
                Op::Join { comp, drive, residual } => {
                    write!(f, "c{comp}")?;
                    match drive {
                        Drive::Product => {}
                        Drive::Values { atom, .. }
                        | Drive::Structure { atom, .. }
                        | Drive::Order { atom, .. } => {
                            write!(f, " on {}", self.atoms[*atom].text)?
                        }
                    }
                    for &ai in residual {
                        write!(f, ", residual {}", self.atoms[ai].text)?;
                    }
                    writeln!(f)?
                }
                Op::OrderBy => writeln!(f, "{} key(s)", self.order_by.len())?,
                Op::Resort | Op::Construct => writeln!(f)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::compare_atomic;

    /// The hash join's key must partition values exactly as
    /// `compare_atomic` equality does; these are its corners.
    #[test]
    fn keys_follow_compare_atomic_equality() {
        let values = [
            "10", " 10 ", "1e1", "10.0", "+10", "-0", "0", "0.0", "NaN", "nan", "inf", "-inf",
            "abc", " abc", "ABC", "", " ", "1e", "0x10", "9", "1e400",
        ];
        for a in values {
            for b in values {
                let equal = compare_atomic(a, b) == Ordering::Equal;
                let (x, y) = (Atomic::new(a), Atomic::new(b));
                assert_eq!(x.compare(&y), compare_atomic(a, b), "{a:?} vs {b:?}");
                let keyed = match (x.key(), y.key()) {
                    (Key::NaN, Key::NaN | Key::Num(_)) | (Key::Num(_), Key::NaN) => true,
                    (k, l) => k == l,
                };
                assert_eq!(keyed, equal, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn key_corners() {
        // Trimming, numeric normalisation, and NaN equal to every number.
        assert_eq!(Atomic::new(" 10 ").key(), Atomic::new("10").key());
        assert_eq!(Atomic::new("10").key(), Atomic::new("1e1").key());
        assert_eq!(Atomic::new("-0").key(), Atomic::new("0").key());
        assert_eq!(Atomic::new("NaN").key(), Key::NaN);
        assert_eq!(compare_atomic("NaN", "42"), Ordering::Equal);
        assert_eq!(compare_atomic("NaN", "NaN"), Ordering::Equal);
        assert_ne!(compare_atomic("NaN", "abc"), Ordering::Equal);
        assert_eq!(Atomic::new("abc").key(), Key::Str("abc"));
    }

    #[test]
    fn structure_hash_agrees_with_deep_equal() {
        let doc = Document::parse_str(
            r#"<r><a x="1"><b>t</b></a><a x="1"><b>t</b></a><a x="2"><b>t</b></a><a><b>t</b></a>
               <a><b>u</b></a><a><b/>t</a><a><c>t</c></a></r>"#,
        )
        .unwrap();
        let root = doc.root_element().unwrap();
        let kids: Vec<NodeId> = doc.children(root).collect();
        for &a in &kids {
            for &b in &kids {
                if doc.deep_equal(a, b) {
                    assert_eq!(sequence_hash(&doc, &[a]), sequence_hash(&doc, &[b]));
                }
            }
        }
        assert_eq!(sequence_hash(&doc, &kids[..2]), sequence_hash(&doc, &kids[1..2].repeat(2)));
        assert_ne!(sequence_hash(&doc, &[]), sequence_hash(&doc, &kids[..1]));
    }
}
