//! The one adapter between the harness and the system under test.
//!
//! Every product symbol the benchmark touches is named in this file and
//! nowhere else, so a refactor of the product edits at most this file.
//! The server and the CLI are not here: they are driven through the
//! `blossom` binary's flags and over HTTP (`proc.rs`, `http.rs`).
//!
//! Product symbols used:
//!
//! * `blossom_xml`: `Document` (`parse_str`, `len`, `approx_heap_bytes`, `root_element`,
//!   `children`, `uid`),
//!   `NodeId`, `TagIndex` (`build`, `approx_heap_bytes`), `DocStats`
//!   (`compute`, `approx_heap_bytes`), `writer::{to_string, write_node}`,
//!   `mutate::parse_mutations`
//! * `blossom_xmlgen`: `Dataset::all`, `Dataset::name`, `generate`, `Gen`
//! * `blossom_storage`: `snapshot::{encode, open_path}`, `EncodeOptions`,
//!   `OpenMode::{Map, Heap}`, `StoreDir::{open, publish}`
//! * `blossom_xpath`: `parse_path`, `ast::PathExpr`
//! * `blossom_flwor`: `parse_query`, `Expr`, `Flwor`, `BlossomTree::{from_path, from_flwor}`
//! * `blossom_core`: `Engine` (`from_xml`, `with_shared`, `plan_cache`, `doc`,
//!   `eval_path_str`, `eval_query_str`, `eval_path_traced`, `eval_query_traced`,
//!   `cache_stats`), `EngineOptions { trace, ..default }`, `Strategy` (by its
//!   CLI names), `SharedPlanCache::invalidate_doc`, `QueryTrace::to_json`,
//!   `Decomposition::decompose`, `plan::{choose, choose_flwor}`,
//!   `update::apply_mutations`
//! * `blossom_oracle`: `Oracle::{new, eval_query_str}`
//!
//! Deliberately absent, because ROADMAP marks them for deletion:
//! `skip_joins`, `cost_based_planner`, `replan_factor`,
//! `plan_cache_capacity`, `IoModel` / `--io-model` / `run_blocking`,
//! BLM1 / `--format blm1`, `TagIndex::splice`. Engines run at
//! `EngineOptions::default()` apart from `trace`.

use blossom_core::{Decomposition, Engine, EngineOptions, Strategy};
use blossom_flwor::{BlossomTree, Expr, Flwor};
use blossom_storage::{snapshot, EncodeOptions, OpenMode, StoreDir};
use blossom_xml::{writer, DocStats, Document, NodeId, TagIndex};
use blossom_xpath::ast::PathExpr;
use std::path::Path;
use std::sync::Arc;

pub type Nodes = Vec<NodeId>;

/// A loaded document with its access paths, shareable between engines.
#[derive(Clone)]
pub struct Parts {
    pub doc: Arc<Document>,
    pub index: Arc<TagIndex>,
    pub stats: Arc<DocStats>,
}

impl Parts {
    pub fn nodes(&self) -> usize {
        self.doc.len()
    }

    /// Number of children of the root element.
    pub fn root_arity(&self) -> usize {
        self.doc
            .root_element()
            .map_or(0, |root| self.doc.children(root).count())
    }

    /// Is `node` the root element? (Results are in document order, so a
    /// result that holds the root holds it first.)
    pub fn is_root(&self, node: Option<&NodeId>) -> bool {
        node.is_some() && node.copied() == self.doc.root_element()
    }

    /// Heap bytes the product reports for the document, its tag index
    /// and its statistics.
    pub fn heap_bytes(&self) -> usize {
        self.doc.approx_heap_bytes()
            + self.index.approx_heap_bytes()
            + self.stats.approx_heap_bytes()
    }
}

// ---- xmlgen ----------------------------------------------------------

/// The Table 1 dataset names, in order.
pub fn dataset_names() -> Vec<&'static str> {
    blossom_xmlgen::Dataset::all()
        .iter()
        .map(|d| d.name())
        .collect()
}

pub fn generate(dataset: &str, nodes: usize, seed: u64) -> Document {
    let ds = blossom_xmlgen::Dataset::all()
        .into_iter()
        .find(|d| d.name() == dataset)
        .unwrap_or_else(|| panic!("unknown dataset {dataset}"));
    blossom_xmlgen::generate(ds, nodes, seed)
}

/// The product's seeded tree builder, for the bibliography the FLWOR
/// workload runs on (`inputs::bib`).
pub type Gen = blossom_xmlgen::Gen;

// ---- xml -------------------------------------------------------------

pub fn to_xml(doc: &Document) -> String {
    writer::to_string(doc)
}

pub fn parse_xml(text: &str) -> Document {
    Document::parse_str(text).expect("generated XML is well-formed")
}

pub fn build_index(doc: &Document) -> TagIndex {
    TagIndex::build(doc)
}

pub fn compute_stats(doc: &Document) -> DocStats {
    DocStats::compute(doc)
}

pub fn parts(doc: Document, index: TagIndex, stats: DocStats) -> Parts {
    Parts {
        doc: Arc::new(doc),
        index: Arc::new(index),
        stats: Arc::new(stats),
    }
}

/// The bytes `blossom query` prints for a path result (without the
/// trailing newline): the nodes' subtrees inside one `<result>` element.
pub fn write_result(doc: &Document, nodes: &[NodeId], out: &mut String) {
    if nodes.is_empty() {
        out.push_str("<result/>");
        return;
    }
    out.push_str("<result>");
    for &n in nodes {
        writer::write_node(doc, n, out);
    }
    out.push_str("</result>");
}

// ---- storage ---------------------------------------------------------

pub fn encode_snapshot(p: &Parts) -> Vec<u8> {
    snapshot::encode(&p.doc, &p.index, &p.stats, EncodeOptions::default())
        .expect("generated documents fit the snapshot format")
}

pub fn open_snapshot(path: &Path, mapped: bool) -> Parts {
    let mode = if mapped {
        OpenMode::Map
    } else {
        OpenMode::Heap
    };
    let snap = snapshot::open_path(path, mode).expect("snapshot written at set-up opens");
    parts(snap.doc, snap.index, snap.stats)
}

pub fn publish_generation(dir: &Path, name: &str, generation: u64, bytes: &[u8]) {
    let store = StoreDir::open(dir).expect("store directory inside the work directory opens");
    store
        .publish(name, generation, bytes)
        .expect("publish into the work directory");
}

// ---- query front ends and planner, as separate stages -----------------

pub fn parse_path(query: &str) -> PathExpr {
    blossom_xpath::parse_path(query).expect("frozen path parses")
}

pub fn blossom_of_path(path: &PathExpr) -> BlossomTree {
    BlossomTree::from_path(path).expect("frozen path is inside the pattern algebra")
}

pub fn parse_query(query: &str) -> Expr {
    blossom_flwor::parse_query(query).expect("frozen query parses")
}

/// The FLWOR inside a parsed query (top level, or the content of a
/// top-level constructor as in the paper's Example 1).
pub fn flwor_of(expr: &Expr) -> Option<&Flwor> {
    match expr {
        Expr::Flwor(f) => Some(f),
        Expr::Constructor(c) => c.children.iter().find_map(flwor_of),
        Expr::Sequence(items) => items.iter().find_map(flwor_of),
        Expr::Path(_) | Expr::Text(_) => None,
    }
}

pub fn blossom_of_flwor(flwor: &Flwor) -> BlossomTree {
    BlossomTree::from_flwor(flwor).expect("frozen FLWOR is inside the BlossomTree subset")
}

pub fn decompose(bt: &BlossomTree) -> Decomposition {
    Decomposition::decompose(bt)
}

pub fn choose_path_plan(path: &PathExpr, d: &Decomposition, stats: &DocStats) -> String {
    blossom_core::plan::choose(path, d, stats)
        .strategy
        .to_string()
}

pub fn choose_flwor_plan(d: &Decomposition, stats: &DocStats) -> String {
    blossom_core::plan::choose_flwor(d, stats).0.to_string()
}

// ---- engine ----------------------------------------------------------

/// An engine over shared parts with a plan cache of its own.
pub struct Sut {
    engine: Engine,
}

pub fn strategy(cli_name: &str) -> Strategy {
    cli_name.parse().unwrap_or_else(|e| panic!("{e}"))
}

/// The strategies a forced sweep names, by their CLI spellings.
pub const FORCED: [&str; 6] = [
    "navigational",
    "twigstack",
    "pathstack",
    "pipelined",
    "bnlj",
    "nlj",
];

impl Sut {
    /// `trace` turns on the product's operator counters (profile JSON);
    /// every other option stays at its default.
    pub fn new(p: &Parts, trace: bool) -> Sut {
        // A fresh default-sized plan cache, without naming its capacity.
        let plans = Engine::from_xml("<r/>")
            .expect("literal parses")
            .plan_cache();
        let options = EngineOptions {
            trace,
            ..EngineOptions::default()
        };
        Sut {
            engine: Engine::with_shared(
                p.doc.clone(),
                p.index.clone(),
                p.stats.clone(),
                plans,
                options,
            ),
        }
    }

    pub fn doc(&self) -> &Document {
        self.engine.doc()
    }

    pub fn eval_path(&self, query: &str, strategy: Strategy) -> Result<Nodes, String> {
        self.engine
            .eval_path_str(query, strategy)
            .map_err(|e| e.to_string())
    }

    pub fn eval_query(&self, query: &str, strategy: Strategy) -> Result<Document, String> {
        self.engine
            .eval_query_str(query, strategy)
            .map_err(|e| e.to_string())
    }

    /// Evaluate a path and return the product's profile JSON text.
    pub fn profile_path(&self, query: &str, strategy: Strategy) -> Result<(Nodes, String), String> {
        self.engine
            .eval_path_traced(query, strategy)
            .map(|(n, t)| (n, t.to_json()))
            .map_err(|e| e.to_string())
    }

    /// Evaluate a full query and return the product's profile JSON text.
    pub fn profile_query(
        &self,
        query: &str,
        strategy: Strategy,
    ) -> Result<(Document, String), String> {
        self.engine
            .eval_query_traced(query, strategy)
            .map(|(d, t)| (d, t.to_json()))
            .map_err(|e| e.to_string())
    }

    /// Drop this document's cached plans, as the server does after an
    /// update: the next evaluation of each query plans from scratch.
    pub fn invalidate_plans(&self) {
        self.engine
            .plan_cache()
            .invalidate_doc(self.engine.doc().uid());
    }

    /// Plan-cache `(hits, misses)` so far.
    pub fn cache_counts(&self) -> (u64, u64) {
        let c = self.engine.cache_stats();
        (c.hits, c.misses)
    }
}

// ---- update ----------------------------------------------------------

/// Apply a mutation script (the `POST /update` body syntax) in process.
pub fn apply_update(p: &Parts, script: &str) -> Result<Parts, String> {
    let muts = blossom_xml::mutate::parse_mutations(script)?;
    let updated = blossom_core::update::apply_mutations(&p.doc, &p.index, &muts, None)
        .map_err(|e| e.to_string())?;
    Ok(Parts {
        doc: updated.doc,
        index: updated.index,
        stats: updated.stats,
    })
}

// ---- oracle ----------------------------------------------------------

/// The reference evaluator's serialised answer (no trailing newline).
pub fn oracle_answer(doc: &Document, query: &str) -> Result<String, String> {
    blossom_oracle::Oracle::new(doc)
        .eval_query_str(query)
        .map_err(|e| e.to_string())
}
