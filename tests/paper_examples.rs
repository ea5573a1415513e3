//! Integration tests reproducing the paper's running examples exactly:
//! Example 1/2 (the book-pair query), Example 4 (the theta join of two
//! NoK streams), Example 5 (the `<<`-join is not order-preserving), and
//! the Section 2.1 decomposition example.

use blossomtree::core::decompose::Decomposition;
use blossomtree::core::nok::NokMatcher;
use blossomtree::core::ops::{project_seq, theta_join, CrossPred};
use blossomtree::core::{Engine, Strategy};
use blossomtree::flwor::{parse_query, BlossomTree, CrossRel, Expr};
use blossomtree::xml::{writer, Document};

const EXAMPLE2_DOC: &str = r#"<bib>
    <book><title>Maximum Security</title></book>
    <book><title>The Art of Computer Programming</title>
          <author><last>Knuth</last><first>Donald</first></author></book>
    <book><title>Terrorist Hunter</title></book>
    <book><title>TeX Book</title>
          <author><last>Knuth</last><first>Donald</first></author></book>
</bib>"#;

const EXAMPLE1_QUERY: &str = r#"<bib>{
    for $book1 in doc("bib.xml")//book,
        $book2 in doc("bib.xml")//book
    let $aut1 := $book1/author
    let $aut2 := $book2/author
    where $book1 << $book2
      and not($book1/title = $book2/title)
      and deep-equal($aut1, $aut2)
    return <book-pair>{ $book1/title }{ $book2/title }</book-pair>
}</bib>"#;

fn flwor_of(expr: &Expr) -> &blossomtree::flwor::Flwor {
    match expr {
        Expr::Constructor(c) => match &c.children[0] {
            Expr::Flwor(f) => f,
            other => panic!("unexpected {other:?}"),
        },
        Expr::Flwor(f) => f,
        other => panic!("unexpected {other:?}"),
    }
}

/// Example 1 evaluates to exactly Example 2's output under every engine
/// strategy (the paper's "Terrorist Hunger" is its own typo for the
/// "Terrorist Hunter" title it parsed earlier).
#[test]
fn example1_produces_example2_output() {
    let engine = Engine::from_xml(EXAMPLE2_DOC).unwrap();
    let expected = "<bib>\
        <book-pair><title>Maximum Security</title><title>Terrorist Hunter</title></book-pair>\
        <book-pair><title>The Art of Computer Programming</title><title>TeX Book</title></book-pair>\
        </bib>";
    for strategy in [
        Strategy::Auto,
        Strategy::Navigational,
        Strategy::Pipelined,
        Strategy::BoundedNestedLoop,
        Strategy::NaiveNestedLoop,
    ] {
        let result = engine.eval_query_str(EXAMPLE1_QUERY, strategy).unwrap();
        assert_eq!(writer::to_string(&result), expected, "strategy {strategy}");
    }
}

/// Example 1 with its where-atoms written in every operand order — `>>`
/// for `<<`, the value and `deep-equal` operands swapped — means the same
/// thing, and every strategy must say so.
#[test]
fn example1_with_operands_swapped() {
    let engine = Engine::from_xml(EXAMPLE2_DOC).unwrap();
    let expected = writer::to_string(&engine.eval_query_str(EXAMPLE1_QUERY, Strategy::Auto).unwrap());
    let orders = ["$book1 << $book2", "$book2 >> $book1"];
    let values = ["not($book1/title = $book2/title)", "not($book2/title = $book1/title)"];
    let deeps = ["deep-equal($aut1, $aut2)", "deep-equal($aut2, $aut1)"];
    for order in orders {
        for value in values {
            for deep in deeps {
                let query = EXAMPLE1_QUERY.replace(
                    "$book1 << $book2\n      and not($book1/title = $book2/title)\n      \
                     and deep-equal($aut1, $aut2)",
                    &format!("{order} and {value} and {deep}"),
                );
                assert!(query.contains(deep), "the where clause was rewritten: {query}");
                for strategy in [
                    Strategy::Auto,
                    Strategy::Navigational,
                    Strategy::Pipelined,
                    Strategy::BoundedNestedLoop,
                    Strategy::NaiveNestedLoop,
                ] {
                    let result = engine.eval_query_str(&query, strategy).unwrap();
                    assert_eq!(writer::to_string(&result), expected, "{strategy}: {query}");
                }
            }
        }
    }
}

/// The paper counts 18 path expressions in Example 1 (counting each
/// variable reference); our AST folds `$v/p` into a single path, giving
/// 12 folded paths over the same 18 references.
#[test]
fn example1_path_census() {
    let q = parse_query(EXAMPLE1_QUERY).unwrap();
    let f = flwor_of(&q);
    assert_eq!(f.bindings.len(), 4);
    assert_eq!(f.path_count(), 12);
}

/// Example 4: the two NoK streams of Figure 5, joined with
/// ϕ = (1.1.x ≠ 1.2.y) ∧ deep-equal(authors), produce exactly the
/// (b1,b3) and (b2,b4) combinations.
#[test]
fn example4_join_combinations() {
    let doc = Document::parse_str(EXAMPLE2_DOC).unwrap();
    let q = parse_query(EXAMPLE1_QUERY).unwrap();
    let bt = BlossomTree::from_flwor(flwor_of(&q)).unwrap();
    let d = Decomposition::decompose(&bt);
    assert_eq!(d.noks.len(), 2, "Figure 5: two NoK operators");
    assert!(d.cut_edges.is_empty());

    let m1 = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
    let m2 = NokMatcher::new(&doc, &d.noks[1], d.shape.clone(), None);
    let left = m1.scan();
    let right = m2.scan();
    assert_eq!(left.len(), 4, "four books match NoK1");
    assert_eq!(right.len(), 4);

    let preds: Vec<CrossPred> = d
        .crossing
        .iter()
        .map(|c| CrossPred { left: c.left.1, rel: c.rel, right: c.right.1 })
        .collect();
    assert_eq!(preds.len(), 3);
    let joined = theta_join(&doc, &left, &right, &preds);
    assert_eq!(joined.len(), 2, "exactly the two book pairs of Example 4");

    // Check the pairs are (b1, b3) and (b2, b4) by document position.
    let books: Vec<_> = doc
        .elements()
        .filter(|&n| doc.tag_name(n) == Some("book"))
        .collect();
    let b1_shape = d.shape.by_var("book1").unwrap();
    let b2_shape = d.shape.by_var("book2").unwrap();
    let pairs: Vec<(usize, usize)> = joined
        .iter()
        .map(|nl| {
            let l = nl.project_shape(b1_shape)[0];
            let r = nl.project_shape(b2_shape)[0];
            (
                books.iter().position(|&b| b == l).unwrap() + 1,
                books.iter().position(|&b| b == r).unwrap() + 1,
            )
        })
        .collect();
    assert_eq!(pairs, vec![(1, 3), (2, 4)]);
}

/// Example 5: the `<<`-join is *not* order-preserving — projecting
/// Dewey 1.2 over the join result yields [b2, b3, b4, b3, b4, b4].
#[test]
fn example5_before_join_not_order_preserving() {
    let doc = Document::parse_str(EXAMPLE2_DOC).unwrap();
    let q = parse_query(
        "for $book1 in //book, $book2 in //book \
         where $book1 << $book2 return <p>{$book1}{$book2}</p>",
    )
    .unwrap();
    let bt = BlossomTree::from_flwor(flwor_of(&q)).unwrap();
    let d = Decomposition::decompose(&bt);
    let m1 = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None);
    let m2 = NokMatcher::new(&doc, &d.noks[1], d.shape.clone(), None);
    let preds: Vec<CrossPred> = d
        .crossing
        .iter()
        .map(|c| CrossPred { left: c.left.1, rel: c.rel, right: c.right.1 })
        .collect();
    assert_eq!(preds[0].rel, CrossRel::Before);
    let joined = theta_join(&doc, &m1.scan(), &m2.scan(), &preds);
    assert_eq!(joined.len(), 6, "all ordered pairs of the four books");

    let dewey_b2 = d.shape.node(d.shape.by_var("book2").unwrap()).dewey.clone();
    let projected = project_seq(&joined, &dewey_b2);
    let books: Vec<_> = doc
        .elements()
        .filter(|&n| doc.tag_name(n) == Some("book"))
        .collect();
    let positions: Vec<usize> = projected
        .iter()
        .map(|&n| books.iter().position(|&b| b == n).unwrap() + 1)
        .collect();
    // The paper's Example 5: [b2, b3, b4, b3, b4, b4] — not document order.
    assert_eq!(positions, vec![2, 3, 4, 3, 4, 4]);
    assert!(
        positions.windows(2).any(|w| w[0] > w[1]),
        "projection is NOT in document order"
    );
}

/// Section 2.1's motivating decomposition:
/// doc("bib.xml")/book[//author="Smith"]/title splits into the NoK
/// patterns book/title and author[.="Smith"].
#[test]
fn section21_decomposition() {
    let path = blossomtree::xpath::parse_path(r#"/book[//author="Smith"]/title"#).unwrap();
    let bt = BlossomTree::from_path(&path).unwrap();
    let d = Decomposition::decompose(&bt);
    assert_eq!(d.noks.len(), 2);
    // NoK 0 contains book and title; NoK 1 is author with the value test.
    let tags0: Vec<String> = d.noks[0]
        .pattern
        .ids()
        .skip(1)
        .map(|id| d.noks[0].pattern.node(id).test.to_string())
        .collect();
    assert_eq!(tags0, vec!["book", "title"]);
    let author = d.noks[1].pattern.node(d.noks[1].root());
    assert_eq!(author.test.to_string(), "author");
    assert!(author.value.is_some());
}

/// End-to-end check of that Section 2.1 query.
#[test]
fn section21_query_evaluates() {
    let engine = Engine::from_xml(
        r#"<bib>
            <book><author>Smith</author><title>Good</title></book>
            <book><author>Jones</author><title>Other</title></book>
            <book><chapter><author>Smith</author></chapter><title>Nested</title></book>
        </bib>"#,
    )
    .unwrap();
    // Note: /book fails (root element is bib), /bib/book works.
    for strategy in [
        Strategy::Navigational,
        Strategy::Pipelined,
        Strategy::TwigStack,
        Strategy::BoundedNestedLoop,
    ] {
        let titles = engine
            .eval_path_str(r#"/bib/book[//author="Smith"]/title"#, strategy)
            .unwrap();
        let texts: Vec<String> =
            titles.iter().map(|&t| engine.doc().string_value(t)).collect();
        assert_eq!(texts, vec!["Good", "Nested"], "strategy {strategy}");
    }
}

/// The "l"-annotated (optional) edges of Example 2: both author-less
/// books pair because deep-equal((), ()) is true.
#[test]
fn optional_edges_and_empty_deep_equal() {
    let engine = Engine::from_xml(
        "<bib><book><title>A</title></book><book><title>B</title></book></bib>",
    )
    .unwrap();
    let query = r#"for $b1 in //book, $b2 in //book
        let $a1 := $b1/author let $a2 := $b2/author
        where $b1 << $b2 and deep-equal($a1, $a2)
        return <pair>{$b1/title}{$b2/title}</pair>"#;
    for strategy in [Strategy::Navigational, Strategy::Pipelined] {
        let result = engine.eval_query_str(query, strategy).unwrap();
        assert_eq!(
            writer::to_string(&result),
            "<result><pair><title>A</title><title>B</title></pair></result>",
            "strategy {strategy}"
        );
    }
}
