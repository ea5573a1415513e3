//! Bounded owned-vs-mapped differential smoke test: every round encodes
//! a generated document into a BLM2 snapshot, reopens it over mapped
//! column windows, and requires byte-identical serialization and query
//! results across the whole engine configuration matrix
//! (`blossom_bench::diff::config_matrix`, 7 configurations).
//!
//! The seed schedule matches `tests/differential.rs`, so any failure
//! reproduces with
//! `cargo run --release -p blossom-bench --bin diff -- --storage --seed <base> --rounds <n>`.

use blossom_bench::diff::run_storage_case;
use blossom_xmlgen::{generate, random_query_full, Dataset};

const DATASETS: [Dataset; 5] = [
    Dataset::D1Recursive,
    Dataset::D2Address,
    Dataset::D3Catalog,
    Dataset::D4Treebank,
    Dataset::D5Dblp,
];

/// Run `rounds` rounds of the owned-vs-mapped schedule from `base_seed`.
fn sweep(base_seed: u64, nodes: usize, rounds: u64) {
    let mut agreed = 0usize;
    let mut failures = Vec::new();
    for round in 0..rounds {
        let dataset = DATASETS[(round % DATASETS.len() as u64) as usize];
        let doc_seed = base_seed
            .wrapping_add(round)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let doc = generate(dataset, nodes, doc_seed);
        let xml = blossom_xml::writer::to_string(&doc);
        let query = random_query_full(&doc, doc_seed ^ 0xD1FF);
        let result = run_storage_case(&xml, &query);
        agreed += result.agreed;
        for m in &result.mismatches {
            failures.push(format!(
                "seed {base_seed:#x} round {round} ({dataset:?}): {:?} diverged\n  query: {query}\n  mapped: {}\n  owned:  {}",
                m.config, m.engine, m.oracle
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // Each passing round contributes the serialization agreement plus
    // every accepting configuration; a degenerate harness (everything
    // skipped) fails here rather than silently passing.
    assert!(
        agreed >= 2 * rounds as usize,
        "only {agreed} agreements across {rounds} rounds — harness degenerated"
    );
}

/// Same base seed as the engine-vs-oracle smoke, disjoint concern.
#[test]
fn smoke_owned_vs_mapped_default_seed() {
    sweep(0xB10550, 64, 100);
}

/// A second, disjoint seed stream with larger documents so multi-word
/// posting lists and text blobs cross section boundaries.
#[test]
fn smoke_owned_vs_mapped_larger_documents() {
    sweep(0x5704A6E, 256, 25);
}
