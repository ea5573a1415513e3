//! The BlossomTree formalism (Definition 1 of the paper).
//!
//! A BlossomTree is an annotated directed graph built from a FLWOR
//! expression: the *tree edges* come from the path expressions of the
//! `for`/`let` bindings (annotated with an axis and a matching mode — `f`
//! for mandatory, `l` for optional), and the *crossing edges* come from
//! the `where` clause (structural `<<`/`>>`, value comparisons, or the
//! mixed structural+value `deep-equal`). Vertices carry tag-name and
//! value constraints; a vertex bound to a variable is a *blossom*.
//!
//! We reuse [`PatternTree`] for the tree part: the paper's (possibly
//! multi-rooted) BlossomTree gets an artificial super-root (Section 3.3),
//! which is exactly `PatternTree`'s virtual root. Returning nodes are
//! addressed by Dewey IDs assigned over the *returning tree* before
//! decomposition.

use crate::ast::{
    BindingKind, BoolExpr, Comparison, Expr, Flwor, ValueOperand,
};
use blossom_xml::Dewey;
use blossom_xpath::ast::{CmpOp, PathExpr, PathStart};
use blossom_xpath::pattern::{EdgeMode, PatternNodeId, PatternTree, ValueTest};
use std::fmt;

/// Relationship carried by a crossing edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossRel {
    /// `$l << $r` — left strictly before right in document order.
    Before,
    /// Value comparison between the two nodes' sequences (existential
    /// general-comparison semantics).
    Value(CmpOp),
    /// Negated value comparison: `not(l op r)` — *no* pair satisfies `op`.
    NotValue(CmpOp),
    /// `deep-equal(l, r)` over the two bound sequences.
    DeepEqual,
    /// `not(deep-equal(l, r))`.
    NotDeepEqual,
    /// `l is r` — same node.
    Is,
    /// `l isnot r` — different nodes (the paper's isnot-join).
    IsNot,
}

impl fmt::Display for CrossRel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossRel::Before => f.write_str("<<"),
            CrossRel::Value(op) => write!(f, "{op}"),
            CrossRel::NotValue(op) => write!(f, "not {op}"),
            CrossRel::DeepEqual => f.write_str("deep-equal"),
            CrossRel::NotDeepEqual => f.write_str("not deep-equal"),
            CrossRel::Is => f.write_str("is"),
            CrossRel::IsNot => f.write_str("isnot"),
        }
    }
}

/// A crossing edge between two pattern nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossingEdge {
    /// Left vertex.
    pub left: PatternNodeId,
    /// Right vertex.
    pub right: PatternNodeId,
    /// The relationship.
    pub rel: CrossRel,
}

/// The BlossomTree: a pattern digraph plus crossing edges, with Dewey IDs
/// assigned to its returning nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct BlossomTree {
    /// Tree edges + vertices (the super-root is `PatternNodeId::ROOT`).
    pub pattern: PatternTree,
    /// Crossing edges from the `where` clause.
    pub crossing: Vec<CrossingEdge>,
    /// Document URIs referenced by `doc(...)` calls, in first-use order.
    pub documents: Vec<String>,
    /// Pattern nodes to sort output tuples by (from `order by`), in key
    /// priority order.
    pub order_by: Vec<PatternNodeId>,
    /// Dewey IDs of the returning nodes (parallel to
    /// [`BlossomTree::returning`]).
    pub deweys: Vec<Dewey>,
    /// Returning pattern nodes in Dewey order.
    pub returning: Vec<PatternNodeId>,
}

/// Errors during BlossomTree construction.
#[derive(Debug, Clone, PartialEq)]
pub enum BlossomError {
    /// A path referenced `$v` before any binding defined it.
    UnboundVariable(String),
    /// A construct outside the supported subset.
    Unsupported(String),
}

impl fmt::Display for BlossomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlossomError::UnboundVariable(v) => write!(f, "unbound variable ${v}"),
            BlossomError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
        }
    }
}

impl std::error::Error for BlossomError {}

impl BlossomTree {
    /// Build the BlossomTree of a FLWOR expression.
    pub fn from_flwor(flwor: &Flwor) -> Result<BlossomTree, BlossomError> {
        let mut builder = Builder {
            pattern: PatternTree::new(),
            crossing: Vec::new(),
            documents: Vec::new(),
            for_vars: Vec::new(),
        };
        for (i, binding) in flwor.bindings.iter().enumerate() {
            // A rebinding shadows the earlier variable for later clauses;
            // the pattern has one vertex per variable name.
            if flwor.bindings[..i].iter().any(|b| b.var == binding.var) {
                return Err(BlossomError::Unsupported(format!(
                    "${} is bound twice",
                    binding.var
                )));
            }
            if binding.kind == BindingKind::For {
                builder.for_vars.push(binding.var.clone());
            }
            let mode = match binding.kind {
                BindingKind::For => EdgeMode::Mandatory,
                BindingKind::Let => EdgeMode::Optional,
            };
            // Bindings always create fresh vertices (Figure 1 has two
            // distinct `book` blossoms for the two identical for-paths);
            // only where/return references reuse existing chains.
            let node = builder.graft(&binding.path, mode, false)?;
            match node {
                Some(node) => builder.pattern.set_var(node, &binding.var),
                None => {
                    return Err(BlossomError::Unsupported(
                        "binding to the document root".into(),
                    ))
                }
            }
        }
        if let Some(w) = &flwor.where_clause {
            builder.add_where(w, false)?;
        }
        // Optional: a tuple without a sort key sorts with the empty
        // string, it is not filtered out.
        let mut order_by = Vec::with_capacity(flwor.order_by.len());
        for (path, _) in &flwor.order_by {
            let node = builder
                .graft(path, EdgeMode::Optional, true)?
                .ok_or_else(|| BlossomError::Unsupported("order by document root".into()))?;
            builder.pattern.set_returning(node, true);
            order_by.push(node);
        }
        // Also make every node referenced by the return clause returning,
        // so tuples carry what result construction needs.
        mark_return_paths(&mut builder, &flwor.ret)?;

        let (returning, deweys) = assign_deweys(&builder.pattern);
        Ok(BlossomTree {
            pattern: builder.pattern,
            crossing: builder.crossing,
            documents: builder.documents,
            order_by,
            deweys,
            returning,
        })
    }

    /// Build a BlossomTree for a standalone path expression (a one-path
    /// "FLWOR" with a single returning blossom).
    pub fn from_path(path: &PathExpr) -> Result<BlossomTree, BlossomError> {
        let mut builder = Builder {
            pattern: PatternTree::new(),
            crossing: Vec::new(),
            documents: Vec::new(),
            for_vars: Vec::new(),
        };
        let node = builder
            .graft(path, EdgeMode::Mandatory, false)?
            .ok_or_else(|| BlossomError::Unsupported("empty path".into()))?;
        builder.pattern.set_returning(node, true);
        let (returning, deweys) = assign_deweys(&builder.pattern);
        Ok(BlossomTree {
            pattern: builder.pattern,
            crossing: builder.crossing,
            documents: builder.documents,
            order_by: Vec::new(),
            deweys,
            returning,
        })
    }

    /// Recompute the returning-node list and Dewey IDs after callers have
    /// toggled `returning` flags on the pattern (e.g. the decomposition
    /// step marks cut-edge endpoints returning so joins can address them).
    pub fn reassign_deweys(&mut self) {
        let (returning, deweys) = assign_deweys(&self.pattern);
        self.returning = returning;
        self.deweys = deweys;
    }

    /// The Dewey ID of a returning pattern node.
    pub fn dewey_of(&self, node: PatternNodeId) -> Option<&Dewey> {
        self.returning.iter().position(|&n| n == node).map(|i| &self.deweys[i])
    }

    /// The pattern node with the given Dewey ID.
    pub fn node_of(&self, dewey: &Dewey) -> Option<PatternNodeId> {
        self.deweys.iter().position(|d| d == dewey).map(|i| self.returning[i])
    }
}

fn mark_return_paths(builder: &mut Builder, expr: &Expr) -> Result<(), BlossomError> {
    match expr {
        Expr::Path(p) => {
            if matches!(p.start, PathStart::Variable(_)) {
                // Return-clause paths are optional: a tuple whose
                // projection is empty still constructs (an empty splice).
                if let Some(node) = builder.graft(p, EdgeMode::Optional, true)? {
                    builder.pattern.set_returning(node, true);
                }
            }
            Ok(())
        }
        Expr::Constructor(c) => {
            for child in &c.children {
                mark_return_paths(builder, child)?;
            }
            Ok(())
        }
        Expr::Sequence(es) => {
            for e in es {
                mark_return_paths(builder, e)?;
            }
            Ok(())
        }
        Expr::Text(_) => Ok(()),
        Expr::Flwor(_) => Err(BlossomError::Unsupported("nested FLWOR in return".into())),
    }
}

/// Assign Dewey IDs over the returning tree (Section 4.1): extract the
/// returning nodes; two are connected iff they are closest
/// ancestor-descendant among returning nodes; number children in pattern
/// pre-order under an artificial root `1`.
fn assign_deweys(pattern: &PatternTree) -> (Vec<PatternNodeId>, Vec<Dewey>) {
    let mut returning = Vec::new();
    let mut deweys = Vec::new();
    // The artificial root is Dewey `1`; walk the pattern in pre-order and
    // maintain the Dewey of the nearest returning ancestor.
    fn rec(
        pattern: &PatternTree,
        node: PatternNodeId,
        parent_dewey: &Dewey,
        next_child: &mut u32,
        returning: &mut Vec<PatternNodeId>,
        deweys: &mut Vec<Dewey>,
    ) {
        let n = pattern.node(node);
        if n.returning {
            let dewey = parent_dewey.child(*next_child);
            *next_child += 1;
            returning.push(node);
            deweys.push(dewey.clone());
            let mut inner_next = 1u32;
            for &c in &n.children {
                rec(pattern, c, &dewey, &mut inner_next, returning, deweys);
            }
        } else {
            for &c in &n.children {
                rec(pattern, c, parent_dewey, next_child, returning, deweys);
            }
        }
    }
    let root_dewey = Dewey::root();
    let mut next = 1u32;
    for &c in &pattern.node(PatternNodeId::ROOT).children {
        rec(pattern, c, &root_dewey, &mut next, &mut returning, &mut deweys);
    }
    (returning, deweys)
}

struct Builder {
    pattern: PatternTree,
    crossing: Vec<CrossingEdge>,
    documents: Vec<String>,
    /// Variables bound by `for` (each binds exactly one node per tuple).
    for_vars: Vec<String>,
}

impl Builder {
    /// Resolve a path to a pattern node, grafting missing steps. Returns
    /// `None` only when the path denotes the document root itself. With
    /// `reuse` set, predicate-free steps re-resolve to existing identical
    /// non-blossom children instead of adding duplicates.
    fn graft(
        &mut self,
        path: &PathExpr,
        mode: EdgeMode,
        reuse: bool,
    ) -> Result<Option<PatternNodeId>, BlossomError> {
        let base = match &path.start {
            PathStart::Root { doc } => {
                if let Some(uri) = doc {
                    if !self.documents.iter().any(|d| d == uri) {
                        self.documents.push(uri.clone());
                    }
                }
                PatternNodeId::ROOT
            }
            PathStart::Variable(v) => match self.pattern.var_node(v) {
                Some(node) => node,
                None => return Err(BlossomError::UnboundVariable(v.clone())),
            },
            PathStart::Context => {
                return Err(BlossomError::Unsupported(
                    "context-relative path outside a predicate".into(),
                ))
            }
        };
        if path.steps.is_empty() {
            return Ok((base != PatternNodeId::ROOT).then_some(base));
        }
        // Reuse an existing child chain when steps carry no predicates;
        // otherwise add fresh branches (predicates could differ).
        let mut current = base;
        let mut first = true;
        for step in &path.steps {
            let edge_mode = if first { mode } else { EdgeMode::Mandatory };
            first = false;
            let existing = if reuse && step.predicates.is_empty() {
                self.pattern
                    .node(current)
                    .children
                    .iter()
                    .copied()
                    .find(|&c| {
                        let cn = self.pattern.node(c);
                        cn.axis == step.axis
                            && cn.test == step.test
                            && cn.value.is_none()
                            && cn.mode == edge_mode
                            && cn.vars.is_empty()
                    })
            } else {
                None
            };
            current = match existing {
                Some(c) => c,
                None => {
                    let added =
                        self.pattern.add_node(current, step.axis, edge_mode, step.test.clone());
                    for pred in &step.predicates {
                        self.add_predicate(added, pred)?;
                    }
                    added
                }
            };
        }
        Ok(Some(current))
    }

    fn add_predicate(
        &mut self,
        node: PatternNodeId,
        pred: &blossom_xpath::ast::Predicate,
    ) -> Result<(), BlossomError> {
        use blossom_xpath::ast::Predicate;
        match pred {
            Predicate::Exists(p) => {
                self.pattern
                    .add_path(node, &p.steps, EdgeMode::Mandatory)
                    .map_err(|e| BlossomError::Unsupported(e.to_string()))?;
                Ok(())
            }
            Predicate::Value { path: None, op, literal } => {
                self.pattern.set_value(node, ValueTest { op: *op, literal: literal.clone() });
                Ok(())
            }
            Predicate::Value { path: Some(p), op, literal } => {
                let leaf = self
                    .pattern
                    .add_path(node, &p.steps, EdgeMode::Mandatory)
                    .map_err(|e| BlossomError::Unsupported(e.to_string()))?;
                if let Some(leaf) = leaf {
                    self.pattern.set_value(leaf, ValueTest { op: *op, literal: literal.clone() });
                }
                Ok(())
            }
            Predicate::And(a, b) => {
                self.add_predicate(node, a)?;
                self.add_predicate(node, b)
            }
            other => Err(BlossomError::Unsupported(format!(
                "predicate {other:?} in a BlossomTree binding"
            ))),
        }
    }

    fn add_where(&mut self, expr: &BoolExpr, negated: bool) -> Result<(), BlossomError> {
        match expr {
            BoolExpr::And(a, b) if !negated => {
                self.add_where(a, false)?;
                self.add_where(b, false)
            }
            BoolExpr::Not(inner) => self.add_where(inner, !negated),
            BoolExpr::Comparison(c) => self.add_comparison(c, negated),
            BoolExpr::And(_, _) => Err(BlossomError::Unsupported(
                "negated conjunction in where clause".into(),
            )),
            BoolExpr::Or(_, _) => Err(BlossomError::Unsupported(
                "disjunction in where clause".into(),
            )),
        }
    }

    fn add_comparison(&mut self, c: &Comparison, negated: bool) -> Result<(), BlossomError> {
        match c {
            Comparison::NodeOrder { left, before, right } => {
                if negated {
                    return Err(BlossomError::Unsupported("not(<<)".into()));
                }
                let l = self.resolve_operand(left)?;
                let r = self.resolve_operand(right)?;
                // Normalize to `<<` (a >> b  ==  b << a).
                let (l, r) = if *before { (l, r) } else { (r, l) };
                self.crossing.push(CrossingEdge { left: l, right: r, rel: CrossRel::Before });
                Ok(())
            }
            Comparison::Value { left, op, right } => match right {
                ValueOperand::Literal(lit) => {
                    if negated {
                        return Err(BlossomError::Unsupported(
                            "not(path = literal) in where clause".into(),
                        ));
                    }
                    // A literal comparison is false on an empty operand, so
                    // the grafted edge is mandatory and carries the value
                    // test directly (the paper's vertex value constraint).
                    let node = self.resolve_operand_with(left, EdgeMode::Mandatory)?;
                    self.pattern
                        .set_value(node, ValueTest { op: *op, literal: lit.clone() });
                    Ok(())
                }
                ValueOperand::Path(rp) => {
                    let l = self.resolve_operand(left)?;
                    let r = self.resolve_operand(rp)?;
                    let rel =
                        if negated { CrossRel::NotValue(*op) } else { CrossRel::Value(*op) };
                    self.crossing.push(CrossingEdge { left: l, right: r, rel });
                    Ok(())
                }
            },
            Comparison::DeepEqual { left, right } => {
                let l = self.resolve_operand(left)?;
                let r = self.resolve_operand(right)?;
                let rel = if negated { CrossRel::NotDeepEqual } else { CrossRel::DeepEqual };
                self.crossing.push(CrossingEdge { left: l, right: r, rel });
                Ok(())
            }
            Comparison::Count { .. } | Comparison::Exists { .. } => {
                Err(BlossomError::Unsupported(
                    "count()/exists()/empty() in where clause (evaluated by the \
                     naive engine)"
                        .into(),
                ))
            }
            Comparison::NodeIdentity { left, same, right } => {
                // `isnot` is false on an empty operand, `not(is)` true:
                // the two agree only when neither side can be empty.
                let bare_for = |p: &PathExpr| {
                    p.steps.is_empty()
                        && matches!(&p.start, PathStart::Variable(v) if self.for_vars.contains(v))
                };
                if negated && !(bare_for(left) && bare_for(right)) {
                    return Err(BlossomError::Unsupported(
                        "not(is) over an operand that can be empty".into(),
                    ));
                }
                let l = self.resolve_operand(left)?;
                let r = self.resolve_operand(right)?;
                let rel = if *same != negated { CrossRel::Is } else { CrossRel::IsNot };
                self.crossing.push(CrossingEdge { left: l, right: r, rel });
                Ok(())
            }
        }
    }

    /// Resolve a where-clause operand path to a pattern node, grafting
    /// `$v/...` extensions as *optional* tree edges (an empty operand
    /// must reach the predicate — `not($a = $b)` and `deep-equal` are
    /// true on empty sequences) and marking them returning so joins can
    /// project them.
    fn resolve_operand(&mut self, path: &PathExpr) -> Result<PatternNodeId, BlossomError> {
        self.resolve_operand_with(path, EdgeMode::Optional)
    }

    fn resolve_operand_with(
        &mut self,
        path: &PathExpr,
        mode: EdgeMode,
    ) -> Result<PatternNodeId, BlossomError> {
        match self.graft(path, mode, true)? {
            Some(node) => {
                self.pattern.set_returning(node, true);
                Ok(node)
            }
            None => Err(BlossomError::Unsupported(
                "comparison operand resolves to the document root".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::parse::parse_query;
    use blossom_xml::Axis;
    use blossom_xpath::ast::NodeTest;

    const EXAMPLE1: &str = r#"<bib>{
        for $book1 in doc("bib.xml")//book,
            $book2 in doc("bib.xml")//book
        let $aut1 := $book1/author
        let $aut2 := $book2/author
        where $book1 << $book2
          and not($book1/title = $book2/title)
          and deep-equal($aut1, $aut2)
        return <book-pair>{ $book1/title }{ $book2/title }</book-pair>
    }</bib>"#;

    fn example1_tree() -> BlossomTree {
        let q = parse_query(EXAMPLE1).unwrap();
        let f = match &q {
            Expr::Constructor(c) => match &c.children[0] {
                Expr::Flwor(f) => f.as_ref().clone(),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        };
        BlossomTree::from_flwor(&f).unwrap()
    }

    #[test]
    fn example1_structure_matches_figure1() {
        let bt = example1_tree();
        // Vertices: root, book1, book2, author1, author2, title1, title2.
        assert_eq!(bt.pattern.len(), 7);
        // Two blossoms under the super-root (book, book) via `//`.
        let root_children = &bt.pattern.node(PatternNodeId::ROOT).children;
        assert_eq!(root_children.len(), 2);
        for &b in root_children {
            let n = bt.pattern.node(b);
            assert_eq!(n.axis, Axis::Descendant);
            assert_eq!(n.test, NodeTest::Name("book".into()));
            assert!(n.returning);
            // Each book has an optional author edge and a mandatory title
            // edge.
            let kids: Vec<_> = n.children.iter().map(|&c| bt.pattern.node(c)).collect();
            assert_eq!(kids.len(), 2);
            let author = kids
                .iter()
                .find(|k| k.test == NodeTest::Name("author".into()))
                .unwrap();
            assert_eq!(author.mode, EdgeMode::Optional);
            // Figure 1 renders the where-grafted title edges bold ("f"),
            // but XQuery's `not($b1/title = $b2/title)` must evaluate on
            // an *empty* title sequence too, so operand grafts are
            // optional here (a deliberate, documented deviation).
            let title = kids
                .iter()
                .find(|k| k.test == NodeTest::Name("title".into()))
                .unwrap();
            assert_eq!(title.mode, EdgeMode::Optional);
        }
        // Crossing edges: <<, not(=) on titles, deep-equal on authors.
        assert_eq!(bt.crossing.len(), 3);
        let rels: Vec<_> = bt.crossing.iter().map(|c| c.rel).collect();
        assert!(rels.contains(&CrossRel::Before));
        assert!(rels.contains(&CrossRel::NotValue(CmpOp::Eq)));
        assert!(rels.contains(&CrossRel::DeepEqual));
        assert_eq!(bt.documents, vec!["bib.xml".to_string()]);
    }

    #[test]
    fn example1_deweys_match_section33() {
        let bt = example1_tree();
        // Section 3.3: $book1 -> 1.1, $book2 -> 1.2, and under each book
        // its two returning children get x.1/x.2 in pattern order
        // (author before title for book1 since the let grafted author
        // first... pattern order is author then title for both books).
        let b1 = bt.pattern.var_node("book1").unwrap();
        let b2 = bt.pattern.var_node("book2").unwrap();
        assert_eq!(bt.dewey_of(b1).unwrap().to_string(), "1.1");
        assert_eq!(bt.dewey_of(b2).unwrap().to_string(), "1.2");
        let a1 = bt.pattern.var_node("aut1").unwrap();
        let a2 = bt.pattern.var_node("aut2").unwrap();
        let d_a1 = bt.dewey_of(a1).unwrap();
        let d_a2 = bt.dewey_of(a2).unwrap();
        assert!(d_a1.to_string().starts_with("1.1."));
        assert!(d_a2.to_string().starts_with("1.2."));
        // All six returning nodes got ids.
        assert_eq!(bt.returning.len(), 6);
        assert_eq!(bt.deweys.len(), 6);
        // node_of inverts dewey_of.
        for (&n, d) in bt.returning.iter().zip(&bt.deweys) {
            assert_eq!(bt.node_of(d), Some(n));
        }
    }

    #[test]
    fn let_alias_shares_node() {
        let q = parse_query("for $a in //x let $b := $a return $b").unwrap();
        let f = match q {
            Expr::Flwor(f) => *f,
            other => panic!("unexpected {other:?}"),
        };
        let bt = BlossomTree::from_flwor(&f).unwrap();
        // $b aliases $a's node: only root + x in the pattern.
        assert_eq!(bt.pattern.len(), 2);
        assert_eq!(bt.pattern.var_node("b"), bt.pattern.var_node("a"));
    }

    #[test]
    fn literal_where_becomes_value_constraint() {
        let q =
            parse_query(r#"for $b in //book where $b/author = "Knuth" return $b"#).unwrap();
        let f = match q {
            Expr::Flwor(f) => *f,
            other => panic!("unexpected {other:?}"),
        };
        let bt = BlossomTree::from_flwor(&f).unwrap();
        assert!(bt.crossing.is_empty());
        let author = bt
            .pattern
            .ids()
            .find(|&id| bt.pattern.node(id).test == NodeTest::Name("author".into()))
            .unwrap();
        assert!(bt.pattern.node(author).value.is_some());
    }

    #[test]
    fn unbound_variable_is_error() {
        let q = parse_query("for $a in //x where $zzz = \"1\" return $a").unwrap();
        let f = match q {
            Expr::Flwor(f) => *f,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(
            BlossomTree::from_flwor(&f),
            Err(BlossomError::UnboundVariable("zzz".into()))
        );
    }

    #[test]
    fn from_path_single_blossom() {
        let p = blossom_xpath::parse_path("//a[//b]//c").unwrap();
        let bt = BlossomTree::from_path(&p).unwrap();
        assert_eq!(bt.returning.len(), 1);
        assert_eq!(bt.deweys[0].to_string(), "1.1");
        assert_eq!(
            bt.pattern.node(bt.returning[0]).test,
            NodeTest::Name("c".into())
        );
    }

    #[test]
    fn reuse_of_identical_chains() {
        // $b/title used twice (where + return) must create one node.
        let q = parse_query(
            r#"for $b in //book where $b/title = "X" return $b/title"#,
        )
        .unwrap();
        let f = match q {
            Expr::Flwor(f) => *f,
            other => panic!("unexpected {other:?}"),
        };
        let bt = BlossomTree::from_flwor(&f).unwrap();
        // root, book, title(with value)... the where-grafted title carries a
        // value test so the return graft cannot reuse it -> 2 title nodes.
        // But grafting twice from *return* must reuse.
        let titles = bt
            .pattern
            .ids()
            .filter(|&id| bt.pattern.node(id).test == NodeTest::Name("title".into()))
            .count();
        assert!(titles <= 2, "graft should reuse chains: got {titles} title nodes");
    }

    #[test]
    fn order_by_is_marked() {
        let q = parse_query("for $b in //book order by $b/title return $b").unwrap();
        let f = match q {
            Expr::Flwor(f) => *f,
            other => panic!("unexpected {other:?}"),
        };
        let bt = BlossomTree::from_flwor(&f).unwrap();
        assert_eq!(bt.order_by.len(), 1);
        let ob = bt.order_by[0];
        assert!(bt.pattern.node(ob).returning);
        assert_eq!(bt.pattern.node(ob).test, NodeTest::Name("title".into()));
    }

    #[test]
    fn impl_eq_for_error() {
        assert_ne!(
            BlossomError::UnboundVariable("a".into()),
            BlossomError::Unsupported("a".into())
        );
    }
}
