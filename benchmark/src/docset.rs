//! d1–d5 built the way a user's documents come to exist — generated,
//! written out as XML, parsed, indexed, summarised — with the expected
//! answer of every Table 3 cell computed beside them.

use crate::inputs::{fnv64, Cell, CELLS};
use crate::span::Probe;
use crate::sut;
use crate::workload::Config;
use std::path::{Path, PathBuf};

/// Node count of the replicas the reference evaluator is run on.
const ORACLE_NODES: usize = 2_000;

pub struct DocSet {
    /// Dataset names, `d1`…`d5`; `xml[i]` and `parts[i]` belong to `names[i]`.
    pub names: Vec<&'static str>,
    pub xml: Vec<String>,
    pub parts: Vec<sut::Parts>,
    /// FNV of each cell's expected answer (the bytes `blossom query`
    /// prints, without the trailing newline), in `CELLS` order.
    pub expected: Vec<u64>,
    /// Length of each cell's expected answer.
    pub answer_bytes: Vec<usize>,
    /// Per document: does some cell return its root element? Such a
    /// document cannot be updated under load, because that cell's answer
    /// would change while an inserted subtree is in it.
    pub root_returned: Vec<bool>,
}

impl DocSet {
    /// Build the five documents at `nodes` nodes each and the expected
    /// answers, each stage under its layer's span.
    pub fn build(cfg: &Config, nodes: usize, probe: &mut Probe) -> DocSet {
        let names = sut::dataset_names();
        let mut xml = Vec::new();
        let mut parts = Vec::new();
        for name in &names {
            let text = {
                let generated = probe.call("xmlgen", || sut::generate(name, nodes, cfg.seed));
                probe.call("setup.to_xml", || sut::to_xml(&generated))
            };
            let doc = probe.call("xml.parser", || sut::parse_xml(&text));
            let index = probe.call("xml.index", || sut::build_index(&doc));
            let stats = probe.call("xml.stats", || sut::compute_stats(&doc));
            xml.push(text);
            parts.push(sut::parts(doc, index, stats));
        }
        let root_returned = vec![false; names.len()];
        let mut set = DocSet {
            names,
            xml,
            parts,
            expected: Vec::new(),
            answer_bytes: Vec::new(),
            root_returned,
        };
        probe.call("setup.expected", || set.compute_expected());
        set
    }

    /// The position in `names` of the document `cell` runs on.
    pub fn doc_of(&self, cell: &Cell) -> usize {
        self.names
            .iter()
            .position(|n| *n == cell.dataset)
            .expect("cell names a known dataset")
    }

    /// Expected answers come from the navigational strategy — the
    /// baseline evaluator, not the one the timed operations use.
    fn compute_expected(&mut self) {
        let engines: Vec<sut::Sut> = self.parts.iter().map(|p| sut::Sut::new(p, false)).collect();
        let navigational = sut::strategy("navigational");
        let mut buf = String::new();
        for cell in &CELLS {
            let doc = self.doc_of(cell);
            let engine = &engines[doc];
            let nodes = engine
                .eval_path(cell.query, navigational)
                .expect("frozen cell evaluates");
            self.root_returned[doc] |= self.parts[doc].is_root(nodes.first());
            buf.clear();
            sut::write_result(engine.doc(), &nodes, &mut buf);
            self.expected.push(fnv64(buf.as_bytes()));
            self.answer_bytes.push(buf.len());
        }
    }

    pub fn xml_bytes(&self) -> usize {
        self.xml.iter().map(String::len).sum()
    }

    pub fn heap_bytes(&self) -> usize {
        self.parts.iter().map(sut::Parts::heap_bytes).sum()
    }

    /// Write each document's XML into `dir` as `<name>.xml`.
    pub fn write_xml(&self, dir: &Path) -> Vec<PathBuf> {
        self.names
            .iter()
            .zip(&self.xml)
            .map(|(name, text)| {
                let path = dir.join(format!("{name}.xml"));
                std::fs::write(&path, text).expect("work directory is writable");
                path
            })
            .collect()
    }
}

/// Cross-check the engine's default strategy against the reference
/// evaluator on small replicas of the same generators and seed, and the
/// harness's own result serialisation against the product's. Returns
/// the number of disagreements.
pub fn oracle_mismatches(cfg: &Config) -> u64 {
    let auto = sut::strategy("auto");
    let mut bad = 0;
    let mut buf = String::new();
    for name in sut::dataset_names() {
        let doc = sut::generate(name, ORACLE_NODES, cfg.seed);
        let index = sut::build_index(&doc);
        let stats = sut::compute_stats(&doc);
        let engine = sut::Sut::new(&sut::parts(doc, index, stats), false);
        for cell in CELLS.iter().filter(|c| c.dataset == name) {
            let want = sut::oracle_answer(engine.doc(), cell.query).expect("oracle evaluates");
            let via_query = engine.eval_query(cell.query, auto).map(|d| sut::to_xml(&d));
            buf.clear();
            if let Ok(nodes) = engine.eval_path(cell.query, auto) {
                sut::write_result(engine.doc(), &nodes, &mut buf);
            }
            if via_query.as_deref() != Ok(want.as_str()) || buf != want {
                eprintln!("oracle mismatch on {} at {ORACLE_NODES} nodes", cell.name());
                bad += 1;
            }
        }
    }
    bad
}
