//! The navigational baseline evaluator.
//!
//! A straightforward tree-walking XPath evaluator over the AST — the
//! *navigational approach* of Section 2.1. It supports the full parsed
//! subset including the constructs pattern trees cannot express
//! (positional predicates, `or`, `not`), which makes it both
//!
//! 1. the stand-in for the paper's X-Hive/DB baseline (a general-purpose
//!    engine that does not exploit the specialized join operators), and
//! 2. the correctness oracle that every join algorithm is property-tested
//!    against.

use crate::nok::ResolvedTest;
use crate::obs::Meter;
use crate::value::node_vs_literal;
use blossom_xml::Axis;
use blossom_xml::{Document, NodeId};
use blossom_xpath::ast::{NodeTest, PathExpr, PathStart, Predicate, Step};
use std::borrow::Cow;

/// Evaluate `path` against `doc`. `context` supplies the start nodes for
/// context-relative paths; absolute paths start at the document node.
/// Variable-rooted paths must be resolved by the caller (see
/// [`eval_from`]). The result is in document order without duplicates.
pub fn eval_path(doc: &Document, path: &PathExpr, context: &[NodeId]) -> Vec<NodeId> {
    eval_path_counted(doc, path, context, &mut Meter::off())
}

/// [`eval_path`] with work counting ([`crate::obs`]): axis candidates
/// examined land in `scanned`, candidates surviving the node test and
/// predicates in `matches`. Pass [`Meter::off`] to make every bump a
/// no-op.
pub fn eval_path_counted(
    doc: &Document,
    path: &PathExpr,
    context: &[NodeId],
    meter: &mut Meter,
) -> Vec<NodeId> {
    let start: Vec<NodeId> = match &path.start {
        PathStart::Root { .. } => vec![NodeId::DOCUMENT],
        PathStart::Context => context.to_vec(),
        PathStart::Variable(v) => {
            panic!("navigational eval_path cannot resolve ${v}; use eval_from")
        }
    };
    eval_from_counted(doc, &path.steps, &start, meter)
}

/// Evaluate a step list from explicit start nodes.
pub fn eval_from(doc: &Document, steps: &[Step], start: &[NodeId]) -> Vec<NodeId> {
    eval_from_counted(doc, steps, start, &mut Meter::off())
}

/// [`eval_from`] with work counting (see [`eval_path_counted`]).
pub fn eval_from_counted(
    doc: &Document,
    steps: &[Step],
    start: &[NodeId],
    meter: &mut Meter,
) -> Vec<NodeId> {
    let mut current = Cow::Borrowed(start);
    for step in steps {
        // A name test is resolved to its symbol once per step; a name the
        // document never uses matches no candidate.
        let test = ResolvedTest::resolve(doc, &step.test);
        let mut next: Vec<NodeId> = Vec::new();
        for &ctx in current.iter() {
            // Candidates along the axis, in document order, filtered by
            // the node test.
            let mut candidates = axis_candidates(doc, step.axis, ctx);
            meter.scanned(candidates.len() as u64);
            test.retain(doc, &mut candidates);
            // Predicates see positions within this context's candidate
            // list (XPath semantics).
            let mut filtered = candidates;
            for pred in &step.predicates {
                filtered = filtered
                    .iter()
                    .enumerate()
                    .filter(|&(i, &n)| eval_predicate(doc, pred, n, i + 1))
                    .map(|(_, &n)| n)
                    .collect();
            }
            meter.matches(filtered.len() as u64);
            if next.is_empty() {
                next = filtered;
            } else {
                next.extend(filtered);
            }
        }
        // One context's candidates are already distinct and in document
        // order; several contexts' interleave.
        if current.len() > 1 {
            next.sort_unstable();
            next.dedup();
        }
        current = Cow::Owned(next);
    }
    current.into_owned()
}

fn axis_candidates(doc: &Document, axis: Axis, ctx: NodeId) -> Vec<NodeId> {
    match axis {
        Axis::Child => doc.children(ctx).collect(),
        Axis::Descendant => doc.descendants(ctx).collect(),
        Axis::FollowingSibling => {
            let mut out = Vec::new();
            let mut sib = doc.next_sibling(ctx);
            while let Some(s) = sib {
                out.push(s);
                sib = doc.next_sibling(s);
            }
            out
        }
        Axis::PrecedingSibling => match doc.parent(ctx) {
            Some(p) => doc.children(p).take_while(|&c| c != ctx).collect(),
            None => Vec::new(),
        },
        Axis::Following => {
            let first = doc.last_descendant(ctx).0 + 1;
            (first..doc.len() as u32).map(NodeId).collect()
        }
        Axis::Preceding => (1..ctx.0)
            .map(NodeId)
            .filter(|&n| doc.last_descendant(n).0 < ctx.0)
            .collect(),
        Axis::SelfAxis => vec![ctx],
    }
}

fn eval_predicate(doc: &Document, pred: &Predicate, ctx: NodeId, position: usize) -> bool {
    match pred {
        Predicate::Position(p) => position == *p as usize,
        Predicate::Exists(path) => !eval_pred_path(doc, path, ctx).is_empty(),
        Predicate::Value { path, op, literal } => match path {
            None => node_vs_literal(doc, ctx, *op, literal),
            Some(p) => {
                // Attribute access: @name compares the attribute string.
                if let Some(value) = single_attribute_path(doc, p, ctx) {
                    return match value {
                        Some(v) => crate::value::node_vs_literal_str(&v, *op, literal),
                        None => false,
                    };
                }
                eval_pred_path(doc, p, ctx)
                    .iter()
                    .any(|&n| node_vs_literal(doc, n, *op, literal))
            }
        },
        Predicate::And(a, b) => {
            eval_predicate(doc, a, ctx, position) && eval_predicate(doc, b, ctx, position)
        }
        Predicate::Or(a, b) => {
            eval_predicate(doc, a, ctx, position) || eval_predicate(doc, b, ctx, position)
        }
        Predicate::Not(p) => !eval_predicate(doc, p, ctx, position),
    }
}

/// A predicate path that is a single `@attr` step: returns
/// `Some(attribute value)` so the caller compares strings; `None` when the
/// path is not attribute-shaped.
fn single_attribute_path(
    doc: &Document,
    path: &PathExpr,
    ctx: NodeId,
) -> Option<Option<String>> {
    if path.steps.len() == 1 {
        if let NodeTest::Attribute(name) = &path.steps[0].test {
            return Some(doc.attribute(ctx, name).map(str::to_string));
        }
    }
    None
}

/// Evaluate a predicate path. A bare `@attr` existence test is handled
/// here too.
fn eval_pred_path(doc: &Document, path: &PathExpr, ctx: NodeId) -> Vec<NodeId> {
    if path.steps.len() == 1 {
        if let NodeTest::Attribute(name) = &path.steps[0].test {
            return if doc.attribute(ctx, name).is_some() { vec![ctx] } else { Vec::new() };
        }
    }
    eval_from(doc, &path.steps, &[ctx])
}

/// Convenience: evaluate a path given as text.
pub fn eval_str(doc: &Document, path: &str) -> Result<Vec<NodeId>, blossom_xpath::SyntaxError> {
    let parsed = blossom_xpath::parse_path(path)?;
    Ok(eval_path(doc, &parsed, &[]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blossom_xml::Document;

    fn names(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
        nodes
            .iter()
            .map(|&n| doc.tag_name(n).unwrap_or("#text").to_string())
            .collect()
    }

    const BIB: &str = r#"<bib>
        <book year="1994"><title>TCP/IP</title><author>Stevens</author><price>65</price></book>
        <book year="2000"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author><price>39</price></book>
        <book year="1999"><title>Economics</title><editor>Gerbarg</editor><price>129</price></book>
    </bib>"#;

    #[test]
    fn simple_paths() {
        let doc = Document::parse_str(BIB).unwrap();
        assert_eq!(eval_str(&doc, "/bib/book").unwrap().len(), 3);
        assert_eq!(eval_str(&doc, "//author").unwrap().len(), 3);
        assert_eq!(eval_str(&doc, "//book/author").unwrap().len(), 3);
        assert_eq!(eval_str(&doc, "/book").unwrap().len(), 0);
        assert_eq!(eval_str(&doc, "//bib//title").unwrap().len(), 3);
    }

    #[test]
    fn predicates() {
        let doc = Document::parse_str(BIB).unwrap();
        assert_eq!(eval_str(&doc, "//book[author]").unwrap().len(), 2);
        assert_eq!(eval_str(&doc, "//book[editor]").unwrap().len(), 1);
        assert_eq!(
            eval_str(&doc, r#"//book[author="Stevens"]/title"#).unwrap().len(),
            1
        );
        assert_eq!(eval_str(&doc, "//book[price < 100]").unwrap().len(), 2);
        assert_eq!(eval_str(&doc, "//book[price >= 65]").unwrap().len(), 2);
    }

    #[test]
    fn positional_predicates() {
        let doc = Document::parse_str(BIB).unwrap();
        let second = eval_str(&doc, "//book[2]/title").unwrap();
        assert_eq!(second.len(), 1);
        let doc2 = Document::parse_str("<r><a><b>1</b><b>2</b></a><a><b>3</b></a></r>").unwrap();
        // [1] is per-context: first b of each a.
        let firsts = eval_str(&doc2, "//a/b[1]").unwrap();
        assert_eq!(firsts.len(), 2);
    }

    #[test]
    fn boolean_connectives() {
        let doc = Document::parse_str(BIB).unwrap();
        assert_eq!(eval_str(&doc, "//book[author or editor]").unwrap().len(), 3);
        assert_eq!(eval_str(&doc, "//book[author and editor]").unwrap().len(), 0);
        assert_eq!(eval_str(&doc, "//book[not(author)]").unwrap().len(), 1);
        assert_eq!(
            eval_str(&doc, r#"//book[not(author = "Stevens")]"#).unwrap().len(),
            2
        );
    }

    #[test]
    fn attribute_predicates() {
        let doc = Document::parse_str(BIB).unwrap();
        assert_eq!(eval_str(&doc, r#"//book[@year = "2000"]"#).unwrap().len(), 1);
        assert_eq!(eval_str(&doc, "//book[@year]").unwrap().len(), 3);
        assert_eq!(eval_str(&doc, r#"//book[@year > 1995]"#).unwrap().len(), 2);
        assert_eq!(eval_str(&doc, r#"//book[@missing]"#).unwrap().len(), 0);
    }

    #[test]
    fn wildcard_and_text() {
        let doc = Document::parse_str(BIB).unwrap();
        let all_children = eval_str(&doc, "/bib/book/*").unwrap();
        assert_eq!(all_children.len(), 10);
        let texts = eval_str(&doc, "//title/text()").unwrap();
        assert_eq!(texts.len(), 3);
        assert!(texts.iter().all(|&t| doc.text(t).is_some()));
    }

    #[test]
    fn result_is_dedup_doc_order() {
        // //a//b where nested a's both reach the same b.
        let doc = Document::parse_str("<a><a><b/></a><b/></a>").unwrap();
        let bs = eval_str(&doc, "//a//b").unwrap();
        assert_eq!(bs.len(), 2);
        assert!(bs[0] < bs[1]);
        let _ = names(&doc, &bs);
    }

    #[test]
    fn relative_and_from() {
        let doc = Document::parse_str(BIB).unwrap();
        let books = eval_str(&doc, "//book").unwrap();
        let p = blossom_xpath::parse_path("author").unwrap();
        let authors = eval_path(&doc, &p, &books);
        assert_eq!(authors.len(), 3);
    }

    #[test]
    fn recursive_document() {
        let doc =
            Document::parse_str("<a><b/><a><b/><a><b/></a></a></a>").unwrap();
        assert_eq!(eval_str(&doc, "//a/b").unwrap().len(), 3);
        assert_eq!(eval_str(&doc, "//a//a/b").unwrap().len(), 2);
        assert_eq!(eval_str(&doc, "//a[b]//a").unwrap().len(), 2);
        assert_eq!(eval_str(&doc, "/a/a/a/b").unwrap().len(), 1);
    }
}
