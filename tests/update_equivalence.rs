//! Update-path equivalence: after **each** mutation of a script, every
//! engine configuration (navigational plus every strategy) must return
//! byte-identical query results on the incrementally
//! maintained snapshot, and those bytes must equal evaluating the same
//! query over a document rebuilt from scratch. Plus the scoped
//! invalidation contract: an update touches exactly one document's plans
//! and statistics — everything else stays warm.

use blossom_bench::diff::run_mutation_case;
use blossom_xmlgen::{generate, random_mutations, random_query_full, Dataset};
use blossomtree::core::{apply_mutations, Engine, EngineOptions, SharedPlanCache, Strategy};
use blossomtree::xml::mutate::parse_mutations;
use blossomtree::xml::{writer, DocStats, Document, TagIndex};
use std::sync::Arc;

const BIB: &str = "<bib><book><title>b1</title><price>10</price></book>\
                   <book><title>b2</title><author>x</author><price>90</price></book>\
                   <book><title>b3</title><price>40</price></book></bib>";

const SCRIPT: [&str; 5] = [
    "insert 1 0 <book><title>b0</title><price>5</price></book>",
    "replace 1.3.1 <title>B2</title>",
    "delete 1.2",
    "insert 1.3 1 <author>y</author>",
    "delete 1.1.2",
];

/// Every cumulative prefix of the script is its own mutation case: the
/// spliced document must serialize identically to the rebuilt one, and
/// the query must agree across the whole matrix on the incrementally
/// maintained parts. That *is* the "after each mutation" guarantee.
#[test]
fn each_mutation_step_agrees_across_the_matrix() {
    for k in 1..=SCRIPT.len() {
        let prefix = SCRIPT[..k].join("\n");
        for q in ["//book/title", "//book[author]/title", "//book[price < 50]",
                  "for $b in //book order by $b/price return <p>{$b/title}</p>"] {
            let r = run_mutation_case(BIB, &prefix, q);
            assert!(r.ok(), "step {k}, {q}: {:?}", r.mismatches.first());
            assert!(r.agreed > 1, "step {k}, {q}: matrix must actually evaluate");
        }
    }
}

/// Seeded generated sequences over a paper dataset, checked per step
/// like the fixed script above.
#[test]
fn generated_sequences_agree_per_step() {
    for seed in 0..4u64 {
        let doc = generate(Dataset::D3Catalog, 90, seed);
        let xml = writer::to_string(&doc);
        let lines: Vec<String> =
            random_mutations(&doc, 5, seed * 977 + 3).iter().map(|m| m.to_string()).collect();
        let query = random_query_full(&doc, seed ^ 0xD1FF);
        for k in 1..=lines.len() {
            let prefix = lines[..k].join("\n");
            let r = run_mutation_case(&xml, &prefix, &query);
            assert!(r.ok(), "seed {seed} step {k}: {:?}", r.mismatches.first());
        }
    }
}

/// Chain single-mutation updates and pin, at every step, that the
/// incrementally spliced index is posting-for-posting equal to a
/// from-scratch build and that the statistics were recomputed for the
/// new snapshot.
#[test]
fn incremental_index_and_stats_match_rebuild_at_every_step() {
    let mut doc = Arc::new(Document::parse_str(BIB).unwrap());
    let mut index = Arc::new(TagIndex::build(&doc));
    let muts = parse_mutations(&SCRIPT.join("\n")).unwrap();
    for (step, m) in muts.iter().enumerate() {
        let updated = apply_mutations(&doc, &index, std::slice::from_ref(m), None)
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        let fresh = TagIndex::build(&updated.doc);
        for (sym, name) in updated.doc.symbols().iter() {
            assert_eq!(
                updated.index.stream(sym),
                fresh.stream(sym),
                "step {step}: postings of {name}"
            );
        }
        assert_eq!(*updated.stats, DocStats::compute(&updated.doc), "step {step}");
        assert_ne!(updated.doc.uid(), doc.uid(), "step {step}: fresh uid per swap");
        doc = updated.doc;
        index = updated.index;
    }
}

/// Scoped invalidation: updating document A drops exactly A's plan-cache
/// entries. B's plans keep hitting (counter-asserted), and B's DocStats
/// are the very same allocation afterwards — never recomputed.
#[test]
fn update_invalidation_is_scoped_to_the_mutated_document() {
    let plans = Arc::new(SharedPlanCache::new(32));
    let mk = |xml: &str| {
        let doc = Arc::new(Document::parse_str(xml).unwrap());
        let index = Arc::new(TagIndex::build(&doc));
        let stats = Arc::new(DocStats::compute(&doc));
        (doc, index, stats)
    };
    let (doc_a, index_a, stats_a) = mk(BIB);
    let (doc_b, index_b, stats_b) = mk("<lib><item><name>n</name></item></lib>");
    let engine = |d: &Arc<Document>, x: &Arc<TagIndex>, s: &Arc<DocStats>| {
        Engine::with_shared(d.clone(), x.clone(), s.clone(), plans.clone(), EngineOptions::default())
    };

    engine(&doc_a, &index_a, &stats_a).eval_query_str("//book/title", Strategy::Auto).unwrap();
    engine(&doc_b, &index_b, &stats_b).eval_query_str("//item/name", Strategy::Auto).unwrap();
    assert_eq!(plans.stats().len, 2);

    let muts = parse_mutations("delete 1.2").unwrap();
    let updated = apply_mutations(&doc_a, &index_a, &muts, None).unwrap();
    assert_eq!(plans.invalidate_doc(doc_a.uid()), 1, "exactly A's entry dropped");
    assert_eq!(plans.stats().len, 1);

    // B's plan stayed warm: the next evaluation is a pure cache hit.
    let hits = plans.stats().hits;
    engine(&doc_b, &index_b, &stats_b).eval_query_str("//item/name", Strategy::Auto).unwrap();
    assert_eq!(plans.stats().hits, hits + 1, "untouched document re-planned");

    // B's statistics are untouched (same Arc, no recompute); A's were
    // recomputed once for the new snapshot only.
    assert_eq!(Arc::strong_count(&stats_b), 1 + 0, "no stray stats clones for B");
    assert_eq!(*stats_b, DocStats::compute(&doc_b));
    assert_eq!(*updated.stats, DocStats::compute(&updated.doc));
    assert_ne!(*updated.stats, *stats_a, "the mutated doc's stats did change");
}
