//! Differential conformance testing: every engine configuration against
//! the spec-direct oracle.
//!
//! A *case* is one `(document, query)` pair. [`run_case`] evaluates it
//! under the full configuration matrix — navigational plus every join
//! strategy and `Auto` — and compares each serialized result
//! byte-for-byte with [`blossom_oracle::Oracle`].
//! Explicit join strategies may reject a query as outside their shape
//! (that's a *skip*, not a failure), but `Auto` and `Navigational` must
//! accept everything the oracle accepts, and every successful evaluation
//! must match the oracle exactly.
//!
//! Each accepting configuration is additionally run once through a
//! *traced* engine: the bytes must be identical to the untraced run
//! (tracing is observational only), the trace must account for the
//! strategy that actually executed — an executed strategy differing from
//! the resolved plan without a recorded fallback event is a mismatch —
//! and [`CaseResult::executed`] records what each configuration really
//! ran.
//!
//! Each accepting configuration is also run through the byte path,
//! [`Engine::eval_query_bytes`] (what the server and `blossom query`
//! print): it must accept exactly when the document path does and
//! return the document's serialization plus one newline. The storage
//! and mutation cases check it the same way.
//!
//! On mismatch, [`shrink`] greedily minimizes first the document
//! (subtree deletion, then text truncation) and then the query (clause /
//! step / predicate removal and simplification), re-checking the full
//! matrix after each candidate edit, until a fixpoint. The result is
//! written as a fixture under `tests/fixtures/diff/` by
//! [`write_fixture`] and replayed forever after by
//! `tests/differential_regressions.rs`.
//!
//! A *mutation case* ([`run_mutation_case`]) is a `(document,
//! mutation-script, query)` triple: the engine applies the script
//! incrementally (column splices + [`TagIndex::splice`]) while the
//! oracle rebuilds from scratch (`blossom_oracle::mutate`). The spliced
//! and rebuilt documents must serialize identically, and the query must
//! then agree across the full matrix *running on the incrementally
//! maintained parts*. [`shrink_mutation_case`] adds a greedy
//! mutation-drop pass in front of the document and query passes.

use blossom_core::{Engine, EngineOptions, SharedPlanCache, Strategy};
use blossom_oracle::output::{serialize, Frag};
use blossom_oracle::Oracle;
use blossom_xml::{writer, Document, NodeId, TagIndex};
use blossom_xpath::ast::{PathExpr, Predicate};
use std::sync::Arc;

/// The configuration matrix: navigational plus every join strategy and
/// `Auto`, each at the engine's default options.
pub fn config_matrix() -> Vec<Strategy> {
    vec![
        Strategy::Navigational,
        Strategy::TwigStack,
        Strategy::PathStack,
        Strategy::Pipelined,
        Strategy::BoundedNestedLoop,
        Strategy::NaiveNestedLoop,
        Strategy::Auto,
    ]
}

/// Strategies that must accept everything the oracle accepts.
fn must_support(strategy: Strategy) -> bool {
    matches!(strategy, Strategy::Navigational | Strategy::Auto)
}

/// The byte path against the document path on one engine: the same
/// acceptance, and `via_doc`'s bytes plus one newline.
fn check_bytes<E: std::fmt::Display>(
    engine: &Engine,
    query: &str,
    strategy: Strategy,
    via_doc: &Result<String, E>,
    oracle: &str,
) -> Option<Mismatch> {
    let bytes = engine
        .eval_query_bytes(query, strategy)
        .map(|(b, _)| String::from_utf8(b).unwrap_or_else(|e| format!("invalid UTF-8: {e}")));
    let shown = |r: Result<&str, String>| match r {
        Ok(s) => s.to_string(),
        Err(e) => format!("error: {e}"),
    };
    match (via_doc, &bytes) {
        (Ok(doc), Ok(b)) if b.strip_suffix('\n') == Some(doc.as_str()) => None,
        (Err(_), Err(_)) => None,
        _ => Some(Mismatch {
            config: format!("{strategy} bytes"),
            engine: format!(
                "bytes: {} / document: {}",
                shown(bytes.as_deref().map_err(|e| e.to_string())),
                shown(via_doc.as_deref().map_err(|e| e.to_string())),
            ),
            oracle: oracle.to_string(),
        }),
    }
}

/// One disagreement between a configuration and the oracle.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The configuration that disagreed, formatted for display (an
    /// engine strategy, or `server http` for the live-server row).
    pub config: String,
    /// What the engine produced (or its error, prefixed `error: `).
    pub engine: String,
    /// What the oracle produced (or its error, prefixed `error: `).
    pub oracle: String,
}

/// The outcome of one case across the matrix.
#[derive(Debug, Clone, Default)]
pub struct CaseResult {
    /// Configurations that evaluated and agreed with the oracle.
    pub agreed: usize,
    /// Configurations that rejected the query as out of shape.
    pub skipped: usize,
    /// Disagreements (empty means the case passes).
    pub mismatches: Vec<Mismatch>,
    /// The strategy each accepting configuration *actually* executed,
    /// from its trace (`Auto` never appears here: it always resolves).
    pub executed: Vec<(Strategy, Strategy)>,
}

impl CaseResult {
    /// Did every applicable configuration agree?
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// A long-lived in-process `blossomd` instance the harness can route
/// cases through: each case loads its document over `POST /load` (same
/// catalog slot every time) and evaluates over `GET /query`, so the
/// whole HTTP path — framing, percent-encoding, the shared plan cache
/// across *different* documents — sits in the differential loop too.
pub struct ServerTarget {
    handle: Option<blossom_server::ServerHandle>,
    client: blossom_server::Client,
}

impl ServerTarget {
    /// Spawn a server on an ephemeral port and connect to it.
    pub fn spawn() -> std::io::Result<ServerTarget> {
        let handle =
            blossom_server::Server::bind(blossom_server::ServerConfig::default())?.spawn();
        let client = blossom_server::Client::connect(handle.addr())?;
        Ok(ServerTarget { handle: Some(handle), client })
    }

    /// Load `xml` under a fixed catalog name and evaluate `query` over
    /// HTTP. `Ok` carries the body minus the protocol's trailing
    /// newline (the serialized result); `Err` carries the error body.
    fn eval(&mut self, xml: &str, query: &str) -> Result<String, String> {
        let io = |e: std::io::Error| format!("transport: {e}");
        let loaded = self.client.load("diffcase", xml.as_bytes()).map_err(io)?;
        if loaded.status != 200 {
            return Err(format!("load {}: {}", loaded.status, loaded.body_str()));
        }
        let response = self.client.query("diffcase", query, &[]).map_err(io)?;
        if response.status != 200 {
            return Err(format!("{}: {}", response.status, response.body_str().trim_end()));
        }
        let mut body = response.body_str();
        if body.ends_with('\n') {
            body.pop();
        }
        Ok(body)
    }
}

impl Drop for ServerTarget {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// Evaluate one `(document, query)` case under the whole matrix.
///
/// The query is additionally evaluated *twice* per configuration so the
/// second run exercises the plan cache against the first.
pub fn run_case(xml: &str, query: &str) -> CaseResult {
    run_case_with(xml, query, None)
}

/// [`run_case`], optionally extended with one more row: the same case
/// routed through a live [`ServerTarget`]. The server runs `Auto`, so
/// like `Auto` it must accept everything the oracle accepts and match
/// it byte-for-byte.
pub fn run_case_with(xml: &str, query: &str, server: Option<&mut ServerTarget>) -> CaseResult {
    let mut result = run_case_matrix(xml, query);
    let Some(server) = server else {
        return result;
    };
    if Document::parse_str(xml).is_err() {
        return result; // nothing loaded, nothing to compare
    }
    let expected = Oracle::new(&Document::parse_str(xml).expect("reparse")).eval_query_str(query);
    match (&expected, server.eval(xml, query)) {
        (Ok(want), Ok(got)) => {
            if *want == got {
                result.agreed += 1;
            } else {
                result.mismatches.push(Mismatch {
                    config: "server http".to_string(),
                    engine: got,
                    oracle: want.clone(),
                });
            }
        }
        (Err(_), Err(_)) => result.agreed += 1,
        (Ok(want), Err(e)) => result.mismatches.push(Mismatch {
            config: "server http".to_string(),
            engine: format!("error: {e}"),
            oracle: want.clone(),
        }),
        (Err(oe), Ok(got)) => result.mismatches.push(Mismatch {
            config: "server http".to_string(),
            engine: got,
            oracle: format!("error: {oe}"),
        }),
    }
    result
}

fn run_case_matrix(xml: &str, query: &str) -> CaseResult {
    let doc = match Document::parse_str(xml) {
        Ok(d) => d,
        Err(_) => return CaseResult::default(), // unparseable fixture: nothing to test
    };
    let oracle = Oracle::new(&doc);
    let expected = oracle.eval_query_str(query);
    let expected_str = match &expected {
        Ok(s) => s.clone(),
        Err(e) => format!("error: {e}"),
    };

    let mut result = CaseResult::default();
    for strategy in config_matrix() {
        let engine = Engine::new(Document::parse_str(xml).expect("reparse"));
        let first = engine.eval_query_str(query, strategy).map(|d| writer::to_string(&d));
        let second = engine.eval_query_str(query, strategy).map(|d| writer::to_string(&d));
        // Traced re-run: tracing must not change acceptance or bytes, and
        // the trace must account for the strategy that actually ran.
        let traced = Engine::with_options(
            Document::parse_str(xml).expect("reparse"),
            EngineOptions { trace: true, ..EngineOptions::default() },
        );
        match (&first, traced.eval_query_traced(query, strategy)) {
            (Ok(plain), Ok((doc, trace))) => {
                let traced_str = writer::to_string(&doc);
                if *plain != traced_str {
                    result.mismatches.push(Mismatch {
                        config: strategy.to_string(),
                        engine: format!("untraced: {plain} / traced: {traced_str}"),
                        oracle: expected_str.clone(),
                    });
                    continue;
                }
                if trace.executed != trace.resolved && trace.fallbacks.is_empty() {
                    result.mismatches.push(Mismatch {
                        config: strategy.to_string(),
                        engine: format!(
                            "trace: resolved {} but executed {} with no fallback event",
                            trace.resolved, trace.executed
                        ),
                        oracle: expected_str.clone(),
                    });
                    continue;
                }
                result.executed.push((strategy, trace.executed));
            }
            (Ok(plain), Err(e)) => {
                result.mismatches.push(Mismatch {
                    config: strategy.to_string(),
                    engine: format!("untraced: {plain} / traced error: {e}"),
                    oracle: expected_str.clone(),
                });
                continue;
            }
            (Err(_), Ok((doc, _))) => {
                result.mismatches.push(Mismatch {
                    config: strategy.to_string(),
                    engine: format!("untraced error / traced: {}", writer::to_string(&doc)),
                    oracle: expected_str.clone(),
                });
                continue;
            }
            (Err(_), Err(_)) => {}
        }
        let got = match (&first, &second) {
            (Ok(a), Ok(b)) if a != b => {
                // The cached plan disagreed with the fresh one.
                result.mismatches.push(Mismatch {
                    config: strategy.to_string(),
                    engine: format!("first: {a} / cached: {b}"),
                    oracle: expected_str.clone(),
                });
                continue;
            }
            _ => first,
        };
        if let Some(m) = check_bytes(&engine, query, strategy, &got, &expected_str) {
            result.mismatches.push(m);
            continue;
        }
        match (&expected, got) {
            (Ok(want), Ok(got)) => {
                if *want == got {
                    result.agreed += 1;
                } else {
                    result.mismatches.push(Mismatch {
                        config: strategy.to_string(),
                        engine: got,
                        oracle: want.clone(),
                    });
                }
            }
            (Err(_), Err(_)) => result.agreed += 1, // both reject: agreement
            (Ok(want), Err(e)) => {
                if must_support(strategy) {
                    result.mismatches.push(Mismatch {
                        config: strategy.to_string(),
                        engine: format!("error: {e}"),
                        oracle: want.clone(),
                    });
                } else {
                    result.skipped += 1;
                }
            }
            (Err(oe), Ok(got)) => {
                // The oracle rejected a query the engine accepts: the
                // oracle's subset model is wrong. Always a finding.
                result.mismatches.push(Mismatch {
                    config: strategy.to_string(),
                    engine: got,
                    oracle: format!("error: {oe}"),
                });
            }
        }
    }
    result
}

// ---------------------------------------------------------------------
// Storage cases: owned vs mapped columns
// ---------------------------------------------------------------------

/// Evaluate one `(document, query)` case twice per configuration — once
/// over the parsed, heap-owned arena and once over a BLM2 snapshot
/// reopened with mapped columns — and require byte-identical behaviour.
///
/// The mapped side round-trips through the full storage pipeline
/// (`encode` → `verify` → reassembly over `Col::Mapped` windows, with
/// the decoded tag index and statistics shared via
/// [`Engine::with_shared`]), so any divergence between the owned and
/// mapped column representations — alignment, endianness, a
/// mis-sliced posting list — surfaces as a mismatch here. Acceptance
/// must agree too: a strategy that rejects the query on one side must
/// reject it on the other.
pub fn run_storage_case(xml: &str, query: &str) -> CaseResult {
    let doc = match Document::parse_str(xml) {
        Ok(d) => d,
        Err(_) => return CaseResult::default(), // unparseable fixture: nothing to test
    };
    let index = TagIndex::build(&doc);
    let stats = doc.stats();
    let mut result = CaseResult::default();
    let bytes = match blossom_storage::snapshot::encode(
        &doc,
        &index,
        &stats,
        blossom_storage::EncodeOptions { succinct: true },
    ) {
        Ok(b) => b,
        Err(e) => {
            result.mismatches.push(Mismatch {
                config: "storage encode".to_string(),
                engine: format!("error: {e}"),
                oracle: "a valid BLM2 image".to_string(),
            });
            return result;
        }
    };
    let snap = match blossom_storage::snapshot::open_bytes(&bytes) {
        Ok(s) => s,
        Err(e) => {
            result.mismatches.push(Mismatch {
                config: "storage decode".to_string(),
                engine: format!("error: {e}"),
                oracle: "a reopenable snapshot".to_string(),
            });
            return result;
        }
    };

    // The reopened document must serialize byte-identically before any
    // query runs; a column-level divergence fails loudly here.
    let owned_xml = writer::to_string(&doc);
    let mapped_xml = writer::to_string(&snap.doc);
    if owned_xml != mapped_xml {
        result.mismatches.push(Mismatch {
            config: "storage serialization".to_string(),
            engine: mapped_xml,
            oracle: owned_xml,
        });
        return result;
    }
    result.agreed += 1;

    let mapped_doc = Arc::new(snap.doc);
    let mapped_index = Arc::new(snap.index);
    let mapped_stats = Arc::new(snap.stats);
    for strategy in config_matrix() {
        let owned_engine = Engine::new(Document::parse_str(xml).expect("reparse"));
        let mapped_engine = Engine::with_shared(
            mapped_doc.clone(),
            mapped_index.clone(),
            mapped_stats.clone(),
            Arc::new(SharedPlanCache::new(8)),
            EngineOptions::default(),
        );
        let owned =
            owned_engine.eval_query_str(query, strategy).map(|d| writer::to_string(&d));
        let mapped =
            mapped_engine.eval_query_str(query, strategy).map(|d| writer::to_string(&d));
        let reference =
            owned.as_deref().map_or_else(|e| format!("owned error: {e}"), str::to_string);
        let byte_paths = [(&owned_engine, &owned), (&mapped_engine, &mapped)];
        if let Some(m) = byte_paths.into_iter().find_map(|(engine, via_doc)| {
            check_bytes(engine, query, strategy, via_doc, &reference)
        }) {
            result.mismatches.push(m);
            continue;
        }
        match (owned, mapped) {
            (Ok(a), Ok(b)) if a == b => result.agreed += 1,
            (Err(_), Err(_)) => result.skipped += 1, // both reject: agreement
            (Ok(a), Ok(b)) => result.mismatches.push(Mismatch {
                config: strategy.to_string(),
                engine: b,
                oracle: a,
            }),
            (Ok(a), Err(e)) => result.mismatches.push(Mismatch {
                config: strategy.to_string(),
                engine: format!("mapped error: {e}"),
                oracle: a,
            }),
            (Err(e), Ok(b)) => result.mismatches.push(Mismatch {
                config: strategy.to_string(),
                engine: b,
                oracle: format!("owned error: {e}"),
            }),
        }
    }
    result
}

// ---------------------------------------------------------------------
// Mutation cases
// ---------------------------------------------------------------------

/// Evaluate one `(document, mutation-script, query)` triple.
///
/// The engine side applies the script through
/// `blossom_core::update::apply_mutations` — column splices with the tag
/// index maintained incrementally at every step — and the oracle side
/// through `blossom_oracle::mutate::rebuild_with` — Frag-tree edits,
/// serialize, reparse. Both sides rejecting the script is agreement;
/// one side rejecting is a mismatch. When both apply, the two documents
/// must serialize byte-identically, and `query` is then run under the
/// whole configuration matrix **on the incrementally maintained parts**
/// (shared doc / index / stats via `Engine::with_shared`) against the
/// oracle over the rebuilt document.
pub fn run_mutation_case(xml: &str, script: &str, query: &str) -> CaseResult {
    let doc = match Document::parse_str(xml) {
        Ok(d) => d,
        Err(_) => return CaseResult::default(), // unparseable fixture: nothing to test
    };
    let muts = match blossom_xml::mutate::parse_mutations(script) {
        Ok(m) => m,
        Err(_) => return CaseResult::default(), // script syntax is shared, not differential
    };
    let index = TagIndex::build(&doc);
    let incremental = blossom_core::update::apply_mutations(&doc, &index, &muts, None);
    let reference = blossom_oracle::mutate::rebuild_with(&doc, &muts);

    let mut result = CaseResult::default();
    let (updated, rebuilt) = match (incremental, reference) {
        (Ok(u), Ok(r)) => (u, r),
        (Err(_), Err(_)) => {
            result.agreed += 1; // both reject the script: agreement
            return result;
        }
        (Ok(u), Err(e)) => {
            result.mismatches.push(Mismatch {
                config: "mutation apply".to_string(),
                engine: writer::to_string(&u.doc),
                oracle: format!("error: {e}"),
            });
            return result;
        }
        (Err(e), Ok(r)) => {
            result.mismatches.push(Mismatch {
                config: "mutation apply".to_string(),
                engine: format!("error: {e}"),
                oracle: writer::to_string(&r),
            });
            return result;
        }
    };

    // The spliced document must be byte-identical to the rebuilt one.
    let spliced_xml = writer::to_string(&updated.doc);
    let rebuilt_xml = writer::to_string(&rebuilt);
    if spliced_xml != rebuilt_xml {
        result.mismatches.push(Mismatch {
            config: "mutation serialization".to_string(),
            engine: spliced_xml,
            oracle: rebuilt_xml,
        });
        return result;
    }
    result.agreed += 1;

    // Query matrix over the incrementally maintained parts. Unlike
    // `run_case_matrix`, the engines here deliberately share the spliced
    // document and the incrementally spliced index — a stale posting
    // list or region label surfaces as a query-result mismatch.
    let oracle = Oracle::new(&rebuilt);
    let expected = oracle.eval_query_str(query);
    for strategy in config_matrix() {
        let engine = Engine::with_shared(
            updated.doc.clone(),
            updated.index.clone(),
            updated.stats.clone(),
            Arc::new(SharedPlanCache::new(8)),
            EngineOptions::default(),
        );
        let first = engine.eval_query_str(query, strategy).map(|d| writer::to_string(&d));
        let second = engine.eval_query_str(query, strategy).map(|d| writer::to_string(&d));
        let got = match (&first, &second) {
            (Ok(a), Ok(b)) if a != b => {
                result.mismatches.push(Mismatch {
                    config: strategy.to_string(),
                    engine: format!("first: {a} / cached: {b}"),
                    oracle: expected.clone().unwrap_or_else(|e| format!("error: {e}")),
                });
                continue;
            }
            _ => first,
        };
        // Traced re-run on the same shared parts (mirrors `run_case`):
        // tracing must not change acceptance or bytes, and the trace
        // must account for the strategy that actually ran.
        let traced = Engine::with_shared(
            updated.doc.clone(),
            updated.index.clone(),
            updated.stats.clone(),
            Arc::new(SharedPlanCache::new(8)),
            EngineOptions { trace: true, ..EngineOptions::default() },
        );
        let expected_str =
            || expected.clone().unwrap_or_else(|e| format!("error: {e}"));
        match (&got, traced.eval_query_traced(query, strategy)) {
            (Ok(plain), Ok((doc, trace))) => {
                let traced_str = writer::to_string(&doc);
                if *plain != traced_str {
                    result.mismatches.push(Mismatch {
                        config: strategy.to_string(),
                        engine: format!("untraced: {plain} / traced: {traced_str}"),
                        oracle: expected_str(),
                    });
                    continue;
                }
                if trace.executed != trace.resolved && trace.fallbacks.is_empty() {
                    result.mismatches.push(Mismatch {
                        config: strategy.to_string(),
                        engine: format!(
                            "trace: resolved {} but executed {} with no fallback event",
                            trace.resolved, trace.executed
                        ),
                        oracle: expected_str(),
                    });
                    continue;
                }
                result.executed.push((strategy, trace.executed));
            }
            (Ok(plain), Err(e)) => {
                result.mismatches.push(Mismatch {
                    config: strategy.to_string(),
                    engine: format!("untraced: {plain} / traced error: {e}"),
                    oracle: expected_str(),
                });
                continue;
            }
            (Err(_), Ok((doc, _))) => {
                result.mismatches.push(Mismatch {
                    config: strategy.to_string(),
                    engine: format!("untraced error / traced: {}", writer::to_string(&doc)),
                    oracle: expected_str(),
                });
                continue;
            }
            (Err(_), Err(_)) => {}
        }
        if let Some(m) = check_bytes(&engine, query, strategy, &got, &expected_str()) {
            result.mismatches.push(m);
            continue;
        }
        match (&expected, got) {
            (Ok(want), Ok(got)) => {
                if *want == got {
                    result.agreed += 1;
                } else {
                    result.mismatches.push(Mismatch {
                        config: strategy.to_string(),
                        engine: got,
                        oracle: want.clone(),
                    });
                }
            }
            (Err(_), Err(_)) => result.agreed += 1,
            (Ok(want), Err(e)) => {
                if must_support(strategy) {
                    result.mismatches.push(Mismatch {
                        config: strategy.to_string(),
                        engine: format!("error: {e}"),
                        oracle: want.clone(),
                    });
                } else {
                    result.skipped += 1;
                }
            }
            (Err(oe), Ok(got)) => {
                result.mismatches.push(Mismatch {
                    config: strategy.to_string(),
                    engine: got,
                    oracle: format!("error: {oe}"),
                });
            }
        }
    }
    result
}

/// One greedy mutation-shrink pass: try dropping each script line,
/// keeping the first drop that preserves the mismatch. Dropping a line
/// may invalidate later Dewey keys — then both sides reject, the case
/// agrees, and the candidate is discarded.
fn shrink_muts_once(xml: &str, script: &str, query: &str) -> Option<String> {
    let lines: Vec<&str> = script.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.len() <= 1 {
        return None;
    }
    for i in 0..lines.len() {
        let candidate: String = lines
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, l)| *l)
            .collect::<Vec<_>>()
            .join("\n");
        if !run_mutation_case(xml, &candidate, query).ok() {
            return Some(candidate);
        }
    }
    None
}

/// Deterministically minimize a mismatching mutation case: greedy
/// mutation-drop, then document and query passes (re-checked with
/// [`run_mutation_case`]), until a fixpoint. Returns
/// `(xml, script, query)`.
pub fn shrink_mutation_case(xml: &str, script: &str, query: &str) -> (String, String, String) {
    let mut xml = xml.to_string();
    let mut script = script.to_string();
    let mut query = query.to_string();
    debug_assert!(
        !run_mutation_case(&xml, &script, &query).ok(),
        "shrink_mutation_case() requires a mismatching case"
    );
    loop {
        let mut progressed = false;
        while let Some(smaller) = shrink_muts_once(&xml, &script, &query) {
            script = smaller;
            progressed = true;
        }
        // Document pass, mirroring shrink_doc_once under the triple.
        'doc: loop {
            let Ok(doc) = Document::parse_str(&xml) else { break };
            let Some(root) = doc.root_element() else { break };
            for i in 0..doc.len() as u32 {
                let n = NodeId(i);
                if n == NodeId::DOCUMENT || n == root {
                    continue;
                }
                let candidate = doc_without(&doc, n, None);
                if Document::parse_str(&candidate).is_ok()
                    && !run_mutation_case(&candidate, &script, &query).ok()
                {
                    xml = candidate;
                    progressed = true;
                    continue 'doc;
                }
            }
            break;
        }
        let mut q_progress = true;
        while q_progress {
            q_progress = false;
            for candidate in query_candidates(&query) {
                if candidate != query
                    && blossom_flwor::parse_query(&candidate).is_ok()
                    && !run_mutation_case(&xml, &script, &candidate).ok()
                {
                    query = candidate;
                    progressed = true;
                    q_progress = true;
                    break;
                }
            }
        }
        if !progressed {
            return (xml, script, query);
        }
    }
}

/// Serialize `doc` minus the subtree under `skip`, or with `skip`'s text
/// replaced (when `replace` is `Some`).
fn doc_without(doc: &Document, skip: NodeId, replace: Option<&str>) -> String {
    fn walk(
        doc: &Document,
        n: NodeId,
        skip: NodeId,
        replace: Option<&str>,
        out: &mut Vec<Frag>,
    ) {
        if n == skip {
            if let Some(t) = replace {
                if !t.trim().is_empty() {
                    out.push(Frag::Text(t.to_string()));
                }
            }
            return;
        }
        if let Some(t) = doc.text(n) {
            if !t.trim().is_empty() {
                out.push(Frag::Text(t.to_string()));
            }
            return;
        }
        match doc.tag_name(n) {
            Some(tag) => {
                let attrs = doc
                    .attributes(n)
                    .iter()
                    .map(|(sym, v)| (doc.symbols().name(*sym).to_string(), v.to_string()))
                    .collect();
                let mut children = Vec::new();
                for c in doc.children(n) {
                    walk(doc, c, skip, replace, &mut children);
                }
                out.push(Frag::Elem { name: tag.to_string(), attrs, children });
            }
            None => {
                for c in doc.children(n) {
                    walk(doc, c, skip, replace, out);
                }
            }
        }
    }
    let mut frags = Vec::new();
    walk(doc, NodeId::DOCUMENT, skip, replace, &mut frags);
    serialize(&frags)
}

/// One greedy document-shrink pass: try deleting every deletable subtree
/// and truncating every text node, keeping any edit that preserves the
/// mismatch. Returns the smaller document and whether anything changed.
fn shrink_doc_once(xml: &str, query: &str) -> Option<String> {
    let doc = Document::parse_str(xml).ok()?;
    let root = doc.root_element()?;
    for i in 0..doc.len() as u32 {
        let n = NodeId(i);
        if n == NodeId::DOCUMENT || n == root {
            continue;
        }
        let candidate = doc_without(&doc, n, None);
        if Document::parse_str(&candidate).is_ok() && !run_case(&candidate, query).ok() {
            return Some(candidate);
        }
    }
    // Text truncation after structure is minimal.
    for i in 0..doc.len() as u32 {
        let n = NodeId(i);
        if let Some(t) = doc.text(n) {
            for cut in [t.len() / 2, 1] {
                if cut == 0 || cut >= t.len() || !t.is_char_boundary(cut) {
                    continue;
                }
                let shorter = &t[..cut];
                if shorter.trim().is_empty() {
                    continue;
                }
                let candidate = doc_without(&doc, n, Some(shorter));
                if Document::parse_str(&candidate).is_ok() && !run_case(&candidate, query).ok() {
                    return Some(candidate);
                }
            }
        }
    }
    None
}

/// Structural query-shrink candidates, smallest-change first. Candidates
/// that fail to parse or no longer mismatch are rejected by the caller.
fn query_candidates(query: &str) -> Vec<String> {
    let mut out = Vec::new();
    match blossom_flwor::parse_query(query) {
        Ok(blossom_flwor::ast::Expr::Path(p)) => path_candidates(&p, &mut out),
        Ok(blossom_flwor::ast::Expr::Flwor(f)) => flwor_candidates(&f, &mut out),
        _ => {}
    }
    out
}

fn path_candidates(p: &PathExpr, out: &mut Vec<String>) {
    // Drop one step.
    if p.steps.len() > 1 {
        for i in 0..p.steps.len() {
            let mut q = p.clone();
            q.steps.remove(i);
            out.push(q.to_string());
        }
    }
    // Drop or simplify one predicate.
    for (i, step) in p.steps.iter().enumerate() {
        for j in 0..step.predicates.len() {
            let mut q = p.clone();
            q.steps[i].predicates.remove(j);
            out.push(q.to_string());
            for simpler in predicate_simplifications(&step.predicates[j]) {
                let mut q = p.clone();
                q.steps[i].predicates[j] = simpler;
                out.push(q.to_string());
            }
        }
    }
}

fn predicate_simplifications(pred: &Predicate) -> Vec<Predicate> {
    match pred {
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            vec![(**a).clone(), (**b).clone()]
        }
        Predicate::Not(p) => vec![(**p).clone()],
        Predicate::Value { path: Some(p), .. } => vec![Predicate::Exists(p.clone())],
        _ => Vec::new(),
    }
}

fn flwor_candidates(f: &blossom_flwor::Flwor, out: &mut Vec<String>) {
    use blossom_flwor::ast::{BoolExpr, Expr};
    // Drop the where clause, or keep only one side of a connective.
    if let Some(w) = &f.where_clause {
        let mut g = f.clone();
        g.where_clause = None;
        out.push(Expr::Flwor(Box::new(g)).to_string());
        let sides: Vec<BoolExpr> = match w {
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => vec![(**a).clone(), (**b).clone()],
            BoolExpr::Not(inner) => vec![(**inner).clone()],
            _ => Vec::new(),
        };
        for s in sides {
            let mut g = f.clone();
            g.where_clause = Some(s);
            out.push(Expr::Flwor(Box::new(g)).to_string());
        }
    }
    // Drop order-by keys.
    if !f.order_by.is_empty() {
        let mut g = f.clone();
        g.order_by.clear();
        out.push(Expr::Flwor(Box::new(g)).to_string());
        if f.order_by.len() > 1 {
            for i in 0..f.order_by.len() {
                let mut g = f.clone();
                g.order_by.remove(i);
                out.push(Expr::Flwor(Box::new(g)).to_string());
            }
        }
    }
    // Drop one binding (unbound-variable candidates are rejected later).
    if f.bindings.len() > 1 {
        for i in 0..f.bindings.len() {
            let mut g = f.clone();
            g.bindings.remove(i);
            out.push(Expr::Flwor(Box::new(g)).to_string());
        }
    }
    // Simplify the return clause to each of its embedded expressions.
    if let Expr::Constructor(c) = &f.ret {
        for child in &c.children {
            if matches!(child, Expr::Path(_) | Expr::Flwor(_)) {
                let mut g = f.clone();
                g.ret = child.clone();
                out.push(Expr::Flwor(Box::new(g)).to_string());
            }
        }
    }
}

/// Deterministically minimize a mismatching case. Alternates document
/// and query passes until neither shrinks further; the result still
/// mismatches under [`run_case`].
pub fn shrink(xml: &str, query: &str) -> (String, String) {
    let mut xml = xml.to_string();
    let mut query = query.to_string();
    debug_assert!(!run_case(&xml, &query).ok(), "shrink() requires a mismatching case");
    loop {
        let mut progressed = false;
        while let Some(smaller) = shrink_doc_once(&xml, &query) {
            xml = smaller;
            progressed = true;
        }
        let mut q_progress = true;
        while q_progress {
            q_progress = false;
            for candidate in query_candidates(&query) {
                if candidate != query
                    && blossom_flwor::parse_query(&candidate).is_ok()
                    && !run_case(&xml, &candidate).ok()
                {
                    query = candidate;
                    progressed = true;
                    q_progress = true;
                    break;
                }
            }
        }
        if !progressed {
            return (xml, query);
        }
    }
}

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

/// Render a fixture file: comment header, then `query:` and `xml:`
/// lines. Both payloads are single-line by construction.
pub fn fixture_contents(query: &str, xml: &str, provenance: &str) -> String {
    // FLWOR `Display` is multi-line; the fixture format is line-oriented.
    // Newlines are plain whitespace to both parsers, so flattening the
    // query preserves its meaning.
    let query = query.split_whitespace().collect::<Vec<_>>().join(" ");
    format!(
        "# minimized differential regression ({provenance})\n\
         # replay: every config in diff::config_matrix() must match the oracle\n\
         query: {query}\n\
         xml: {xml}\n"
    )
}

/// Render a mutation-case fixture: like [`fixture_contents`] plus one
/// `mut:` line per mutation (mutations are single-line by construction).
pub fn mutation_fixture_contents(query: &str, xml: &str, script: &str, provenance: &str) -> String {
    let query = query.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut out = format!(
        "# minimized mutation differential regression ({provenance})\n\
         # replay: splice+index-splice vs rebuild must serialize identically,\n\
         # then every config in diff::config_matrix() must match the oracle\n\
         query: {query}\n\
         xml: {xml}\n"
    );
    for line in script.lines().filter(|l| !l.trim().is_empty()) {
        out.push_str("mut: ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Parse a fixture file produced by [`fixture_contents`]. Returns
/// `(query, xml)`.
pub fn parse_fixture(contents: &str) -> Option<(String, String)> {
    parse_fixture_full(contents).map(|(query, xml, _)| (query, xml))
}

/// Parse either fixture flavour. Returns `(query, xml, script)`; the
/// script is empty for plain `(document, query)` fixtures — dispatch on
/// that to choose [`run_case`] or [`run_mutation_case`].
pub fn parse_fixture_full(contents: &str) -> Option<(String, String, String)> {
    let mut query = None;
    let mut xml = None;
    let mut script = String::new();
    for line in contents.lines() {
        if let Some(rest) = line.strip_prefix("query: ") {
            query = Some(rest.to_string());
        } else if let Some(rest) = line.strip_prefix("xml: ") {
            xml = Some(rest.to_string());
        } else if let Some(rest) = line.strip_prefix("mut: ") {
            script.push_str(rest);
            script.push('\n');
        }
    }
    Some((query?, xml?, script))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_navigational_and_every_strategy() {
        let m = config_matrix();
        assert_eq!(m.len(), 7);
        for s in ["navigational", "ts", "ps", "pl", "bnlj", "nlj", "auto"] {
            assert!(m.contains(&s.parse().unwrap()), "{s}");
        }
    }

    #[test]
    fn simple_cases_agree() {
        let xml = "<bib><book><title>A</title><price>10</price></book>\
                   <book><title>B</title><price>90</price></book></bib>";
        for q in [
            "//book/title",
            "//book[price < 50]",
            "for $b in //book order by $b/price descending return $b/title",
        ] {
            let r = run_case(xml, q);
            assert!(r.ok(), "{q}: {:?}", r.mismatches.first());
            assert!(r.agreed > 0);
        }
    }

    #[test]
    fn executed_strategies_are_recorded_and_explained() {
        let r = run_case("<r><a><b/></a><a/></r>", "//a//b");
        assert!(r.ok(), "{:?}", r.mismatches.first());
        assert!(!r.executed.is_empty(), "accepting configs must record execution");
        for (config, executed) in &r.executed {
            assert_ne!(*executed, Strategy::Auto, "{config}: Auto must resolve");
        }
        let nav = r
            .executed
            .iter()
            .find(|(c, _)| *c == Strategy::Navigational)
            .expect("the navigational config records its execution");
        assert_eq!(nav.1, Strategy::Navigational);
    }

    #[test]
    fn fixture_round_trip() {
        let c = fixture_contents("//a[b]", "<r><a><b/></a></r>", "seed 7");
        let (q, x) = parse_fixture(&c).unwrap();
        assert_eq!(q, "//a[b]");
        assert_eq!(x, "<r><a><b/></a></r>");
    }

    #[test]
    fn doc_without_removes_subtree() {
        let doc = Document::parse_str("<r><a><b/></a><c/></r>").unwrap();
        let a = doc.root_element().map(|r| doc.children(r).next().unwrap()).unwrap();
        assert_eq!(doc_without(&doc, a, None), "<r><c/></r>");
    }

    #[test]
    fn mutation_cases_agree() {
        let xml = "<bib><book><title>A</title><price>10</price></book>\
                   <book><title>B</title><price>90</price></book></bib>";
        let script = "insert 1 0 <book><title>C</title><price>50</price></book>\n\
                      delete 1.3\n\
                      replace 1.2.1 <title>Z</title>";
        for q in ["//book/title", "//book[price < 60]", "for $b in //book return $b/title"] {
            let r = run_mutation_case(xml, script, q);
            assert!(r.ok(), "{q}: {:?}", r.mismatches.first());
            assert!(r.agreed > 1, "{q}: apply agreement plus matrix agreements");
        }
    }

    #[test]
    fn mutation_case_rejected_scripts_agree() {
        // Both sides must reject: root delete, out-of-range key, broken
        // fragment. Each counts as one agreement, no mismatches.
        let xml = "<r><a/></r>";
        for script in ["delete 1", "delete 1.9", "insert 1 0 <broken"] {
            let r = run_mutation_case(xml, script, "//a");
            assert!(r.ok(), "{script}: {:?}", r.mismatches.first());
            assert_eq!(r.agreed, 1, "{script}");
        }
    }

    #[test]
    fn mutation_fixture_round_trip() {
        let c = mutation_fixture_contents(
            "//a[b]",
            "<r><a><b/></a></r>",
            "insert 1 0 <a/>\ndelete 1.2",
            "seed 9",
        );
        let (q, x, s) = parse_fixture_full(&c).unwrap();
        assert_eq!(q, "//a[b]");
        assert_eq!(x, "<r><a><b/></a></r>");
        assert_eq!(s, "insert 1 0 <a/>\ndelete 1.2\n");
        // Plain fixtures come back with an empty script.
        let plain = fixture_contents("//a", "<r/>", "seed 1");
        let (_, _, s) = parse_fixture_full(&plain).unwrap();
        assert!(s.is_empty());
    }
}
