//! Variable environments, tuple extraction and result construction.
//!
//! The paper's Figure 2 data flow ends with `Env` — the abstract data
//! type produced when variables are bound to values in a NestedList —
//! from which the final XML result is constructed. The paper scopes Env
//! out; this module implements the part the restricted FLWOR grammar
//! needs: enumerate the `for`-variable combinations of each NestedList
//! (unnesting `for` positions, keeping `let` positions as sequences),
//! optionally sort by the `order by` key, and build the result document
//! from the `return` expression into a [`ResultSink`].

use crate::navigational;
use crate::nestedlist::{NestedList, NlNode};
use crate::shape::{Shape, ShapeId};
use blossom_flwor::Expr;
use blossom_xml::fxhash::{FxHashMap, FxHashSet};
use blossom_xml::{Document, NodeId, ResultSink};
use blossom_xpath::ast::PathStart;
use std::fmt;

/// One variable binding tuple: shape position → bound node sequence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tuple {
    assignments: FxHashMap<ShapeId, Vec<NodeId>>,
}

impl Tuple {
    /// Bound nodes at a shape position (empty sequence if unbound).
    pub fn get(&self, shape: ShapeId) -> &[NodeId] {
        self.assignments.get(&shape).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Resolve a variable through the shape.
    pub fn var(&self, shape: &Shape, name: &str) -> &[NodeId] {
        match shape.by_var(name) {
            Some(id) => self.get(id),
            None => &[],
        }
    }
}

/// Errors from tuple extraction / construction.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvError {
    /// A `for` variable is nested under a `let` position.
    ForUnderLet(String),
    /// The return expression referenced an unknown variable.
    UnboundVariable(String),
    /// Nested FLWOR in the return clause.
    NestedFlwor,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::ForUnderLet(v) => {
                write!(f, "for-variable ${v} nested under a let-bound position")
            }
            EnvError::UnboundVariable(v) => write!(f, "unbound variable ${v} in return clause"),
            EnvError::NestedFlwor => f.write_str("nested FLWOR in return clause"),
        }
    }
}

impl std::error::Error for EnvError {}

/// Enumerate the `for` combinations of one NestedList. `for_positions`
/// holds the shape ids of `for`-bound blossoms; every other position
/// contributes its full node sequence to each tuple.
pub fn enumerate_tuples(
    nl: &NestedList,
    for_positions: &FxHashSet<ShapeId>,
) -> Vec<Tuple> {
    try_enumerate_tuples(nl, for_positions, &|| true).expect("uncancellable enumeration")
}

/// [`enumerate_tuples`] with a cooperative cancellation hook: the
/// cross-product expansion of nested `for` clauses can be
/// combinatorially explosive (|a|×|b|×|c| tuples from one NestedList),
/// and without a check inside the expansion a deadline could only fire
/// after the full product materialized — potentially gigabytes later.
/// `keep_going` is polled once per partial-product row; returning
/// `false` abandons the enumeration and yields `None`.
pub fn try_enumerate_tuples(
    nl: &NestedList,
    for_positions: &FxHashSet<ShapeId>,
    keep_going: &dyn Fn() -> bool,
) -> Option<Vec<Tuple>> {
    fn collect_all(shape: &Shape, shape_id: ShapeId, node: &NlNode, into: &mut Tuple) {
        if let Some(n) = node.node {
            into.assignments.entry(shape_id).or_default().push(n);
        }
        for (pos, &child) in shape.node(shape_id).children.iter().enumerate() {
            for item in &node.groups[pos] {
                collect_all(shape, child, item, into);
            }
        }
    }

    fn rec(
        shape: &Shape,
        shape_id: ShapeId,
        node: &NlNode,
        for_positions: &FxHashSet<ShapeId>,
        keep_going: &dyn Fn() -> bool,
    ) -> Option<Vec<Tuple>> {
        let mut base = Tuple::default();
        if let Some(n) = node.node {
            base.assignments.insert(shape_id, vec![n]);
        }
        let mut alternatives = vec![base];
        for (pos, &child) in shape.node(shape_id).children.iter().enumerate() {
            let group = &node.groups[pos];
            if for_positions.contains(&child) {
                // Unnest: one alternative per item (and none when empty —
                // a for over the empty sequence yields no iterations).
                let mut per_item: Vec<Tuple> = Vec::new();
                for item in group {
                    if item.node.is_none() {
                        continue;
                    }
                    per_item.extend(rec(shape, child, item, for_positions, keep_going)?);
                }
                if per_item.is_empty() {
                    return Some(Vec::new());
                }
                alternatives = product(alternatives, per_item, keep_going)?;
            } else {
                // Sequence semantics: merge everything below.
                let mut seq = Tuple::default();
                for item in group {
                    collect_all(shape, child, item, &mut seq);
                }
                alternatives = product(alternatives, vec![seq], keep_going)?;
            }
        }
        Some(alternatives)
    }

    fn product(
        left: Vec<Tuple>,
        right: Vec<Tuple>,
        keep_going: &dyn Fn() -> bool,
    ) -> Option<Vec<Tuple>> {
        let mut out = Vec::with_capacity(left.len() * right.len());
        for l in &left {
            // The poll lives on the outer loop: each pass appends
            // |right| rows, so cancellation latency is one row-block,
            // not one full product.
            if !keep_going() {
                return None;
            }
            for r in &right {
                let mut merged = l.clone();
                for (k, v) in &r.assignments {
                    merged.assignments.entry(*k).or_default().extend(v.iter().copied());
                }
                out.push(merged);
            }
        }
        Some(out)
    }

    rec(&nl.shape, 0, &nl.root, for_positions, keep_going)
}

/// Sort tuples by the string values of the `order by` keys, in priority
/// order, honouring each key's direction.
///
/// Keys are decorated once per tuple — serialized through one reused
/// buffer — rather than re-serialized (twice!) inside every comparison
/// of the sort.
pub fn order_tuples(
    doc: &Document,
    tuples: &mut [Tuple],
    keys: &[(ShapeId, blossom_flwor::SortOrder)],
) {
    use std::cmp::Ordering;
    if keys.is_empty() || tuples.len() <= 1 {
        return;
    }
    let mut scratch = String::new();
    let mut decorated: Vec<(Vec<Box<str>>, usize)> = Vec::with_capacity(tuples.len());
    for (i, t) in tuples.iter().enumerate() {
        let mut ks = Vec::with_capacity(keys.len());
        for &(shape, _) in keys {
            scratch.clear();
            if let Some(&n) = t.get(shape).first() {
                doc.string_value_into(n, &mut scratch);
            }
            ks.push(Box::<str>::from(scratch.as_str()));
        }
        decorated.push((ks, i));
    }
    decorated.sort_by(|a, b| {
        for (k, &(_, direction)) in keys.iter().enumerate() {
            let ord = a.0[k].cmp(&b.0[k]);
            let ord = if direction == blossom_flwor::SortOrder::Descending {
                ord.reverse()
            } else {
                ord
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    // Apply the permutation in place by following its cycles. The swap
    // loop realises `dest[q[i]] = src[i]`, so feed it the inverse:
    // `inv[original index] = sorted position`.
    let mut inv = vec![0usize; tuples.len()];
    for (pos, &(_, orig)) in decorated.iter().enumerate() {
        inv[orig] = pos;
    }
    for i in 0..inv.len() {
        while inv[i] != i {
            let j = inv[i];
            tuples.swap(i, j);
            inv.swap(i, j);
        }
    }
}

/// Construct the return expression for one tuple into `sink`.
pub fn construct(
    sink: &mut dyn ResultSink,
    doc: &Document,
    shape: &Shape,
    tuple: &Tuple,
    expr: &Expr,
) -> Result<(), EnvError> {
    match expr {
        Expr::Text(t) => {
            sink.text(t);
            Ok(())
        }
        Expr::Sequence(items) => {
            for item in items {
                construct(sink, doc, shape, tuple, item)?;
            }
            Ok(())
        }
        Expr::Constructor(c) => {
            sink.start_element(&c.name);
            for (k, v) in &c.attrs {
                sink.attribute(k, v);
            }
            for child in &c.children {
                construct(sink, doc, shape, tuple, child)?;
            }
            sink.end_element();
            Ok(())
        }
        Expr::Path(p) => {
            match &p.start {
                PathStart::Variable(v) => {
                    if shape.by_var(v).is_none() {
                        return Err(EnvError::UnboundVariable(v.clone()));
                    }
                    let bound = tuple.var(shape, v);
                    if p.steps.is_empty() {
                        sink.copy(doc, bound);
                    } else {
                        sink.copy(doc, &navigational::eval_from(doc, &p.steps, bound));
                    }
                }
                _ => sink.copy(doc, &navigational::eval_path(doc, p, &[])),
            }
            Ok(())
        }
        Expr::Flwor(_) => Err(EnvError::NestedFlwor),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::Decomposition;
    use crate::nok::NokMatcher;
    use blossom_flwor::{parse_query, BlossomTree};
    use blossom_xml::writer;

    fn flwor(q: &str) -> blossom_flwor::Flwor {
        match parse_query(q).unwrap() {
            Expr::Flwor(f) => *f,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tuples_unnest_for_and_keep_let() {
        let doc = Document::parse_str(
            "<bib><book><title>A</title><author>x</author><author>y</author></book>\
             <book><title>B</title></book></bib>",
        )
        .unwrap();
        let f = flwor("for $b in //book let $a := $b/author return $b");
        let bt = BlossomTree::from_flwor(&f).unwrap();
        let d = Decomposition::decompose(&bt);
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let nls = m.scan();
        assert_eq!(nls.len(), 2);
        let b_pos = d.shape.by_var("b").unwrap();
        let a_pos = d.shape.by_var("a").unwrap();
        let mut for_positions = FxHashSet::default();
        for_positions.insert(b_pos);
        let t0 = enumerate_tuples(&nls[0], &for_positions);
        assert_eq!(t0.len(), 1);
        assert_eq!(t0[0].get(b_pos).len(), 1);
        assert_eq!(t0[0].get(a_pos).len(), 2, "let keeps the author sequence");
        let t1 = enumerate_tuples(&nls[1], &for_positions);
        assert_eq!(t1[0].get(a_pos).len(), 0, "empty let sequence");
    }

    #[test]
    fn nested_for_unnests_inner_items() {
        let doc = Document::parse_str(
            "<bib><book><author>x</author><author>y</author></book></bib>",
        )
        .unwrap();
        let f = flwor("for $b in //book for $a in $b/author return $a");
        let bt = BlossomTree::from_flwor(&f).unwrap();
        let d = Decomposition::decompose(&bt);
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let nls = m.scan();
        let mut for_positions = FxHashSet::default();
        for_positions.insert(d.shape.by_var("b").unwrap());
        for_positions.insert(d.shape.by_var("a").unwrap());
        let tuples = enumerate_tuples(&nls[0], &for_positions);
        assert_eq!(tuples.len(), 2, "two authors → two tuples");
        let a_pos = d.shape.by_var("a").unwrap();
        assert!(tuples.iter().all(|t| t.get(a_pos).len() == 1));
    }

    #[test]
    fn for_over_empty_sequence_yields_no_tuples() {
        let doc = Document::parse_str("<bib><book><title>A</title></book></bib>").unwrap();
        let f = flwor("for $b in //book for $a in $b/author return $a");
        let bt = BlossomTree::from_flwor(&f).unwrap();
        let d = Decomposition::decompose(&bt);
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        // The author edge is mandatory (for-binding), so the NoK already
        // rejects the book.
        assert!(m.scan().is_empty());
    }

    #[test]
    fn construct_copies_and_wraps() {
        let doc = Document::parse_str(
            "<bib><book><title>A &amp; B</title></book></bib>",
        )
        .unwrap();
        let f = flwor("for $b in //book return <pair>{ $b/title }</pair>");
        let bt = BlossomTree::from_flwor(&f).unwrap();
        let d = Decomposition::decompose(&bt);
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let nls = m.scan();
        let mut for_positions = FxHashSet::default();
        for_positions.insert(d.shape.by_var("b").unwrap());
        let tuples = enumerate_tuples(&nls[0], &for_positions);
        let mut builder = Document::builder();
        builder.start_element("out");
        for t in &tuples {
            construct(&mut builder, &doc, &d.shape, t, &f.ret).unwrap();
        }
        builder.end_element();
        let result = builder.finish();
        assert_eq!(
            writer::to_string(&result),
            "<out><pair><title>A &amp; B</title></pair></out>"
        );
    }

    #[test]
    fn order_tuples_by_value() {
        let doc = Document::parse_str(
            "<bib><book><title>zeta</title></book><book><title>alpha</title></book></bib>",
        )
        .unwrap();
        let f = flwor("for $b in //book order by $b/title return $b/title");
        let bt = BlossomTree::from_flwor(&f).unwrap();
        let d = Decomposition::decompose(&bt);
        let ob_shape = d.shape.by_pattern(bt.order_by[0]).unwrap();
        let m = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
        let mut for_positions = FxHashSet::default();
        for_positions.insert(d.shape.by_var("b").unwrap());
        let mut tuples: Vec<Tuple> = m
            .scan()
            .iter()
            .flat_map(|nl| enumerate_tuples(nl, &for_positions))
            .collect();
        order_tuples(&doc, &mut tuples, &[(ob_shape, blossom_flwor::SortOrder::Ascending)]);
        let first = tuples[0].get(ob_shape)[0];
        assert_eq!(doc.string_value(first), "alpha");
        order_tuples(&doc, &mut tuples, &[(ob_shape, blossom_flwor::SortOrder::Descending)]);
        let first = tuples[0].get(ob_shape)[0];
        assert_eq!(doc.string_value(first), "zeta");
    }

    #[test]
    fn unbound_variable_error() {
        let doc = Document::parse_str("<a/>").unwrap();
        let shape = {
            let bt = BlossomTree::from_path(&blossom_xpath::parse_path("//a").unwrap()).unwrap();
            Decomposition::decompose(&bt).shape
        };
        let mut builder = Document::builder();
        builder.start_element("out");
        let err = construct(
            &mut builder,
            &doc,
            &shape,
            &Tuple::default(),
            &Expr::Path(blossom_xpath::PathExpr::variable("nope")),
        )
        .unwrap_err();
        assert_eq!(err, EnvError::UnboundVariable("nope".into()));
    }
}
