//! The byte path pinned to the document path: for every case,
//! `Engine::eval_query_bytes` must equal `writer::to_string` of
//! `Engine::eval_query_str` plus one newline. The byte path writes the
//! result straight from the source columns through a `ByteSink`; these
//! cases cover each construction rule it reproduces (whitespace-only
//! text dropped, adjacent text concatenated, `<x/>` for an element left
//! without children, attribute escaping), each FLWOR strategy, a nested
//! FLWOR, a mapped BLM2 document, and the `blossom query` binary
//! against a live server.

use blossomtree::core::{Engine, EngineOptions, SharedPlanCache, Strategy};
use blossomtree::server::{Client, Server, ServerConfig};
use blossomtree::storage::{self, EncodeOptions, OpenMode};
use blossomtree::xml::{writer, Document, ParseOptions, TagIndex};
use std::process::Command;
use std::sync::Arc;

/// Both paths must accept alike; returns the byte path's text.
fn parity(engine: &Engine, query: &str, strategy: Strategy) -> Option<String> {
    let via_doc = engine.eval_query_str(query, strategy);
    let via_bytes = engine.eval_query_bytes(query, strategy);
    match (via_doc, via_bytes) {
        (Ok(doc), Ok((bytes, _))) => {
            let want = writer::to_string(&doc) + "\n";
            let got = String::from_utf8(bytes).expect("UTF-8");
            assert_eq!(got, want, "{query} under {strategy}");
            Some(got)
        }
        (Err(_), Err(_)) => None,
        (doc, bytes) => panic!(
            "{query} under {strategy}: document path ok={} but byte path ok={}",
            doc.is_ok(),
            bytes.is_ok()
        ),
    }
}

fn auto(engine: &Engine, query: &str) -> String {
    parity(engine, query, Strategy::Auto).expect("Auto accepts every query here")
}

#[test]
fn empty_results_write_an_empty_result_element() {
    let engine = Engine::from_xml("<bib><book><t>x</t></book></bib>").unwrap();
    assert_eq!(auto(&engine, "//nothing"), "<result/>\n");
    assert_eq!(
        auto(&engine, "for $b in //nothing return $b"),
        "<result/>\n"
    );
    assert_eq!(
        auto(&engine, "for $b in //book return <r>{$b/nothing}</r>"),
        "<result><r/></result>\n"
    );
}

#[test]
fn adjacent_text_results_concatenate() {
    let engine = Engine::from_xml("<r><t>a&lt;</t><t>b&amp;</t><t>c</t></r>").unwrap();
    assert_eq!(
        auto(&engine, "//t/text()"),
        "<result>a&lt;b&amp;c</result>\n"
    );
    assert_eq!(
        auto(&engine, "for $t in //t return $t/text()"),
        "<result>a&lt;b&amp;c</result>\n"
    );
}

#[test]
fn whitespace_only_text_is_dropped_everywhere() {
    let doc = Document::parse_str_with(
        "<r> <a> </a> <b>x <c/> </b> </r>",
        ParseOptions {
            keep_whitespace_text: true,
        },
    )
    .unwrap();
    let engine = Engine::new(doc);
    // Returned directly.
    assert_eq!(auto(&engine, "//a/text()"), "<result/>\n");
    // Inside copied subtrees.
    assert_eq!(auto(&engine, "//a"), "<result><a/></result>\n");
    assert_eq!(auto(&engine, "//b"), "<result><b>x <c/></b></result>\n");
    assert_eq!(
        auto(&engine, "/r"),
        "<result><r><a/><b>x <c/></b></r></result>\n"
    );
    // A constructed element whose only content is dropped whitespace,
    // from a literal and from copied text.
    assert_eq!(auto(&engine, "<w> </w>"), "<w/>\n");
    assert_eq!(auto(&engine, "<w>{//a/text()}</w>"), "<w/>\n");
    assert_eq!(
        auto(&engine, "for $a in //a return <w> {$a/text()} </w>"),
        "<result><w/></result>\n"
    );
}

#[test]
fn attribute_values_are_escaped_on_source_and_constructed_elements() {
    let engine = Engine::from_xml(r#"<r><e k="a&quot;b&lt;c&amp;d>"/></r>"#).unwrap();
    assert_eq!(
        auto(&engine, "//e"),
        "<result><e k=\"a&quot;b&lt;c&amp;d>\"/></result>\n"
    );
    let out = auto(&engine, r#"for $e in //e return <x k="1<2&3">{$e}</x>"#);
    assert_eq!(
        out,
        "<result><x k=\"1&lt;2&amp;3\"><e k=\"a&quot;b&lt;c&amp;d>\"/></x></result>\n"
    );
}

const BIB: &str = "<bib><book year=\"1994\"><title>TCP/IP</title><author>Stevens</author></book>\
    <book year=\"2000\"><title>Data &amp; Web</title><author>Abiteboul</author>\
    <author>Buneman</author></book><book><title>Empty</title></book></bib>";

#[test]
fn nested_flwor_in_return_runs_navigationally_and_agrees() {
    let engine = Engine::with_options(
        Document::parse_str(BIB).unwrap(),
        EngineOptions {
            trace: true,
            ..EngineOptions::default()
        },
    );
    let q = "for $b in //book return <b>{for $a in $b/author return <a>{$a/text()}</a>}</b>";
    let out = auto(&engine, q);
    assert_eq!(
        out,
        "<result><b><a>Stevens</a></b><b><a>Abiteboul</a><a>Buneman</a></b><b/></result>\n"
    );
    let (_, trace) = engine.eval_query_bytes(q, Strategy::Auto).unwrap();
    assert_eq!(trace.executed, Strategy::Navigational);
}

#[test]
fn every_strategy_writes_the_same_bytes() {
    let engine = Engine::from_xml(BIB).unwrap();
    let queries = [
        "for $b in //book return <p y=\"{x}\">{$b/title}{$b/author}</p>",
        "for $b in //book, $a in $b/author order by $a return <r>{$a/text()}</r>",
        "for $b in //book let $t := $b/title where $b/author = \"Stevens\" return $t",
        "//book[author]/title",
        "<all>{//title}</all>",
    ];
    let strategies = [
        Strategy::Auto,
        Strategy::Navigational,
        Strategy::Pipelined,
        Strategy::BoundedNestedLoop,
        Strategy::NaiveNestedLoop,
        Strategy::TwigStack,
        Strategy::PathStack,
    ];
    for q in queries {
        let reference = auto(&engine, q);
        for s in strategies {
            if let Some(out) = parity(&engine, q, s) {
                assert_eq!(out, reference, "{q} under {s}");
            }
        }
    }
}

#[test]
fn mapped_snapshot_writes_from_mapped_columns() {
    let doc = blossomtree::xmlgen::generate(blossomtree::xmlgen::Dataset::D2Address, 2_000, 7);
    let (index, stats) = (TagIndex::build(&doc), doc.stats());
    let bytes =
        storage::snapshot::encode(&doc, &index, &stats, EncodeOptions { succinct: true }).unwrap();
    let path = std::env::temp_dir().join(format!("result-bytes-{}.blm2", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let snap = storage::snapshot::open_path(&path, OpenMode::Map).unwrap();
    assert!(snap.doc.is_mapped());
    let mapped = Engine::with_shared(
        Arc::new(snap.doc),
        Arc::new(snap.index),
        Arc::new(snap.stats),
        Arc::new(SharedPlanCache::new(8)),
        EngineOptions::default(),
    );
    let owned = Engine::new(doc);
    for q in [
        "//address[//zip_code]",
        "//address/zip_code/text()",
        "for $a in //address return <z>{$a/zip_code}</z>",
    ] {
        assert_eq!(auto(&mapped, q), auto(&owned, q), "{q}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn serialize_phase_is_timed_by_the_byte_sink() {
    let engine = Engine::from_xml(BIB).unwrap();
    for q in ["//book", "for $b in //book return <r>{$b/title}</r>"] {
        let (_, trace) = engine.eval_query_bytes(q, Strategy::Auto).unwrap();
        assert!(trace.phases.serialize > std::time::Duration::ZERO, "{q}");
        let (_, trace) = engine.eval_query_traced(q, Strategy::Auto).unwrap();
        assert_eq!(
            trace.phases.serialize,
            std::time::Duration::ZERO,
            "{q}: no bytes written"
        );
    }
}

/// `blossom query` stdout is byte-identical to the server's response
/// body for the same document and query.
#[test]
fn cli_stdout_equals_the_server_body() {
    let path = std::env::temp_dir().join(format!("result-bytes-{}.xml", std::process::id()));
    std::fs::write(&path, BIB).unwrap();
    let handle = Server::bind(ServerConfig::default()).unwrap().spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.load("bib", BIB.as_bytes()).unwrap().status, 200);
    for q in [
        "//book[author]/title",
        "for $b in //book order by $b/title return <t y=\"1\">{$b/title}</t>",
        "//nothing",
    ] {
        let cli = Command::new(env!("CARGO_BIN_EXE_blossom"))
            .args(["query", path.to_str().unwrap(), q])
            .output()
            .expect("run blossom query");
        assert!(
            cli.status.success(),
            "{q}: {}",
            String::from_utf8_lossy(&cli.stderr)
        );
        let response = client.query("bib", q, &[]).unwrap();
        assert_eq!(response.status, 200, "{q}");
        assert_eq!(
            String::from_utf8(cli.stdout).unwrap(),
            response.body_str(),
            "{q}: CLI stdout vs server body"
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}
