//! `blossom` — a command-line front end for the BlossomTree engine.
//!
//! ```text
//! blossom query   <doc.xml|doc.blsm> '<query>' [--strategy auto|navigational|twigstack|pathstack|pipelined|bnlj|nlj]
//!                 [--pretty] [--profile] [--profile-json FILE] [--repeat N]
//! blossom explain <doc.xml|doc.blsm> '<query>'
//! blossom stats   <doc.xml|doc.blsm>
//! blossom encode  <doc.xml> <out.blsm>     # succinct storage format
//! blossom snapshot <doc.xml|doc.blsm|doc.blm2> --output <file> [--format blm2|blm1|xml]
//!                 [--succinct] [--stats]    # columnar storage format
//! blossom update  <doc.xml|doc.blsm> [--apply 'MUTATION']... [--ops FILE] [--output OUT]
//! blossom gen     <d1|d2|d3|d4|d5> <out.xml> [--nodes N] [--seed S]
//! blossom serve   [--addr HOST:PORT] [--workers N] [--deadline-ms N]
//!                 [--catalog-mb N] [--store-dir DIR] [--io-model M] [--io-threads N]
//!                 [--max-queue N] [--batch on|off] [--slow-ms N] [--access-log TARGET]
//!                 [--log-sample N] [--load NAME=PATH]...
//! ```
//!
//! `--profile` prints an `EXPLAIN ANALYZE`-style execution trace to
//! stderr (stdout stays byte-identical to an unprofiled run);
//! `--profile-json FILE` writes the same trace as JSON; `--repeat N`
//! evaluates the query N times and reports plan-cache statistics.
//!
//! `snapshot` converts between the storage formats: the default
//! `--format blm2` writes the BLM2 columnar snapshot — an aligned,
//! checksummed image of the arena columns and tag index that the engine
//! can `mmap` and query with no per-node decoding (see `DESIGN.md` §15);
//! `--format blm1` writes the compact varint format, `--format xml`
//! writes the document back out as XML. `--succinct` embeds the optional
//! balanced-parentheses skeleton in a BLM2 snapshot, and `--stats`
//! prints per-section byte sizes after writing. Every command that reads
//! a document (`query`, `explain`, `stats`, `update`, …) accepts all
//! three formats by sniffing; BLM2 inputs are mapped, not decoded.
//!
//! `update` applies a mutation script — `insert <parent-dewey> <pos>
//! <fragment>`, `delete <dewey>`, `replace <dewey> <fragment>` lines —
//! to a document: each `--apply` flag adds one mutation, `--ops FILE`
//! reads a script file (applied before any `--apply` lines), and
//! `--output OUT` writes the mutated document to a file (`.blsm` writes
//! the succinct format) instead of printing XML to stdout. The same
//! script syntax drives the server's `POST /update`.
//!
//! `serve` starts `blossomd`, the concurrent query server (see
//! `DESIGN.md` §10 and §12): `--addr` binds the listener (port 0 picks
//! an ephemeral port, printed on startup), `--workers` sizes the
//! execution pool (each query runs on one thread),
//! `--deadline-ms` bounds each request's evaluation wall-clock (0
//! disables), `--catalog-mb` caps the document catalog's memory, and
//! each `--load NAME=PATH` preloads an XML, `.blsm`, or `.blm2` file
//! into the catalog under NAME. `--store-dir DIR` makes the catalog
//! persistent: every document is published to DIR as a crash-safe BLM2
//! generation file and served `mmap`'d from it (so its resident charge
//! is a small constant), evicted entries spill to disk and remap on the
//! next request, and a restarted server recovers every complete
//! generation from DIR before accepting connections. The serving model is `--io-model`: the default
//! `event-loop` parks idle connections in a poller driven by
//! `--io-threads` I/O threads, admits at most `--max-queue` queued
//! requests (the rest get 503 + Retry-After), and coalesces identical
//! concurrent queries into one evaluation unless `--batch off`;
//! `thread-per-request` is the PR 5 blocking model, kept for
//! comparison benchmarks.
//!
//! Server observability (DESIGN.md §14): every request gets a traced
//! lifecycle span, echoed to clients as `X-Request-Id` and exposed as
//! stage-resolved histograms in `GET /stats` and `GET /metrics`
//! (Prometheus text format). `--slow-ms` sets the structured slow-query
//! log threshold, `--access-log` picks its sink (`stderr`, `off`, or a
//! file path), and `--log-sample N` additionally logs every Nth request
//! id; clients can force a record for one request with `?trace=1`.

use blossomtree::core::engine::SharedPlanCache;
use blossomtree::core::{Engine, EngineOptions, Strategy};
use blossomtree::server::{IoModel, Server, ServerConfig};
use blossomtree::storage::{self, EncodeOptions, OpenMode};
use blossomtree::xml::{mutate, succinct, writer, Document};
use blossomtree::xmlgen::{generate, Dataset};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  blossom query   <doc.xml|doc.blsm> '<query>' [--strategy S] [--pretty]
                  [--profile] [--profile-json FILE] [--repeat N]
  blossom explain <doc.xml|doc.blsm> '<query>'
  blossom stats   <doc.xml|doc.blsm>
  blossom encode  <doc.xml> <out.blsm>
  blossom snapshot <doc.xml|doc.blsm|doc.blm2> --output FILE [--format blm2|blm1|xml]
                  [--succinct] [--stats]
  blossom update  <doc.xml|doc.blsm> [--apply 'MUTATION']... [--ops FILE] [--output OUT]
  blossom gen     <d1|d2|d3|d4|d5> <out.xml> [--nodes N] [--seed S]
  blossom serve   [--addr HOST:PORT] [--workers N] [--deadline-ms N]
                  [--catalog-mb N] [--store-dir DIR] [--io-model M] [--io-threads N]
                  [--max-queue N] [--batch on|off] [--slow-ms N] [--access-log TARGET]
                  [--log-sample N] [--load NAME=PATH]...

strategies: auto (default), navigational, twigstack, pathstack, pipelined, bnlj, nlj
--profile:      print an EXPLAIN ANALYZE-style trace (strategy decisions,
                operator counters, phase timings) to stderr
--profile-json: write the trace as JSON to FILE
--repeat:       evaluate the query N times and report plan-cache stats
--format:       snapshot: output format — blm2 (default, columnar/mappable),
                blm1 (compact varint), or xml
--succinct:     snapshot: embed the balanced-parentheses skeleton (blm2 only)
--stats:        snapshot: print per-section byte sizes after writing
--apply:        update: one mutation line (insert/delete/replace; repeatable)
--ops:          update: read a mutation script from FILE
--output:       update: write the mutated document to OUT (.blsm = succinct)
                instead of printing XML to stdout
--addr:         serve: bind address (default 127.0.0.1:7730; port 0 = ephemeral)
--workers:      serve: execution worker threads (default 4)
--deadline-ms:  serve: per-request evaluation budget (default 10000; 0 = none)
--catalog-mb:   serve: document catalog memory cap (default 512)
--store-dir:    serve: persistent BLM2 store directory — documents are
                served mmap'd, spill on eviction, survive restarts
--io-model:     serve: event-loop (default) or thread-per-request
--io-threads:   serve: event-loop I/O threads (default 2)
--max-queue:    serve: admission bound on queued requests (default 1024;
                beyond it requests get 503 + Retry-After)
--batch:        serve: coalesce identical concurrent queries (default on)
--slow-ms:      serve: slow-query log threshold in milliseconds
                (default: off; requests at or above it get a JSON record)
--access-log:   serve: slow/access log sink — stderr (default), off, or
                a file path (appended)
--log-sample:   serve: also log every Nth request id (default 0 = off;
                deterministic, no RNG)
--load:         serve: preload NAME=PATH into the catalog (repeatable)";

/// Execute a CLI invocation; returns the text to print.
fn run(args: &[String]) -> Result<String, String> {
    let command = args.first().map(String::as_str).unwrap_or("");
    match command {
        "query" => {
            let file = arg(args, 1)?;
            let query = arg(args, 2)?;
            let strategy = parse_strategy(flag_value(args, "--strategy").unwrap_or("auto"))?;
            let pretty = args.iter().any(|a| a == "--pretty");
            let profile = args.iter().any(|a| a == "--profile");
            let profile_json = flag_value(args, "--profile-json");
            let repeat = parse_repeat(args)?;
            let tracing = profile || profile_json.is_some();
            let engine = load_engine(
                file,
                EngineOptions { trace: tracing, ..EngineOptions::default() },
            )?;
            // The query result always goes to stdout, byte-identical with
            // and without profiling; the trace goes to stderr / a file.
            // Without `--pretty` the result is written straight to bytes,
            // exactly as the server writes its response bodies.
            let mut last = None;
            for _ in 0..repeat {
                last = Some(if pretty {
                    let (doc, mut trace) =
                        engine.eval_query_traced(query, strategy).map_err(|e| e.to_string())?;
                    let t = Instant::now();
                    let text = writer::to_string_pretty(&doc);
                    trace.phases.serialize = t.elapsed();
                    (text, trace)
                } else {
                    let (bytes, trace) =
                        engine.eval_query_bytes(query, strategy).map_err(|e| e.to_string())?;
                    let mut text = String::from_utf8(bytes).expect("the writer emits UTF-8");
                    text.pop(); // the trailing newline: `println!` writes it
                    (text, trace)
                });
            }
            let (result, trace) = last.expect("repeat >= 1");
            if profile {
                eprintln!("{}", trace.render());
            }
            if let Some(path) = profile_json {
                std::fs::write(path, trace.to_json())
                    .map_err(|e| format!("writing {path}: {e}"))?;
            }
            if repeat > 1 {
                let c = engine.cache_stats();
                eprintln!(
                    "plan cache after {repeat} runs: {} hits / {} misses ({}/{} entries)",
                    c.hits, c.misses, c.len, c.capacity
                );
            }
            Ok(result)
        }
        "explain" => {
            let file = arg(args, 1)?;
            let query = arg(args, 2)?;
            let engine = load_engine(file, EngineOptions::default())?;
            // Path queries get the planner's verdict and the flat
            // pipeline's operator list; FLWOR queries get the full
            // BlossomTree + decomposition report.
            if let Ok(plan) = engine.explain_path(query) {
                return Ok(plan.to_string());
            }
            engine.explain_query(query).map_err(|e| e.to_string())
        }
        "stats" => {
            let file = arg(args, 1)?;
            // Both snapshot formats carry embedded statistics; XML
            // computes them here.
            let s = storage::load::loaded_from_path(Path::new(file), OpenMode::Map)?.stats;
            Ok(format!(
                "nodes:         {}\nelements:      {}\ntext nodes:    {}\n\
                 distinct tags: {}\navg depth:     {:.2}\nmax depth:     {}\n\
                 recursive:     {} (max same-tag nesting {})\ntext bytes:    {}",
                s.node_count,
                s.element_count,
                s.text_count,
                s.tag_count,
                s.avg_depth,
                s.max_depth,
                s.recursive,
                s.max_recursion,
                s.text_bytes,
            ))
        }
        "encode" => {
            let input = arg(args, 1)?;
            let output = arg(args, 2)?;
            let doc = load_document(input)?;
            let bytes = succinct::encode(&doc);
            let sizes = succinct::section_sizes(&bytes).map_err(|e| e.to_string())?;
            std::fs::write(output, &bytes).map_err(|e| format!("writing {output}: {e}"))?;
            Ok(format!(
                "wrote {} bytes (skeleton {} + tags {} + symbols {} + content {})",
                bytes.len(),
                sizes.skeleton,
                sizes.tags,
                sizes.symbols,
                sizes.content
            ))
        }
        "snapshot" => {
            let input = arg(args, 1)?;
            let output = flag_value(args, "--output")
                .ok_or_else(|| "snapshot needs --output FILE".to_string())?;
            let format = flag_value(args, "--format").unwrap_or("blm2");
            let succinct_nav = args.iter().any(|a| a == "--succinct");
            let show_stats = args.iter().any(|a| a == "--stats");
            if succinct_nav && format != "blm2" {
                return Err(format!("--succinct only applies to --format blm2, not {format:?}"));
            }
            // Decode into owned columns: the conversion rewrites every
            // section anyway, so there is nothing to gain from mapping.
            let loaded = storage::load::loaded_from_path(Path::new(input), OpenMode::Heap)?;
            let bytes = match format {
                "blm2" => storage::snapshot::encode(
                    &loaded.doc,
                    &loaded.index,
                    &loaded.stats,
                    EncodeOptions { succinct: succinct_nav },
                )
                .map_err(|e| e.to_string())?,
                "blm1" => succinct::encode_with_stats(&loaded.doc, &loaded.stats),
                "xml" => writer::to_string(&loaded.doc).into_bytes(),
                other => {
                    return Err(format!("bad --format {other:?} (want blm2, blm1, or xml)"))
                }
            };
            std::fs::write(output, &bytes).map_err(|e| format!("writing {output}: {e}"))?;
            let mut report = format!(
                "wrote {} ({} bytes, {} nodes, format {format})",
                output,
                bytes.len(),
                loaded.doc.len()
            );
            if show_stats && format == "blm2" {
                for (name, size) in storage::snapshot::section_sizes(&bytes)
                    .map_err(|e| e.to_string())?
                {
                    report.push_str(&format!("\n  {name:<14} {size:>10} bytes"));
                }
            }
            Ok(report)
        }
        "update" => {
            let file = arg(args, 1)?;
            let mut script = String::new();
            if let Some(path) = flag_value(args, "--ops") {
                script.push_str(
                    &std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
                );
                if !script.ends_with('\n') {
                    script.push('\n');
                }
            }
            for m in flag_values(args, "--apply") {
                script.push_str(m);
                script.push('\n');
            }
            if script.trim().is_empty() {
                return Err("update needs at least one --apply MUTATION or --ops FILE".to_string());
            }
            let muts = mutate::parse_mutations(&script)?;
            let doc = load_document(file)?;
            let updated = mutate::apply_all(&doc, &muts)?;
            match flag_value(args, "--output") {
                None => Ok(writer::to_string(&updated)),
                Some(output) => {
                    let bytes = if output.ends_with(".blsm") {
                        succinct::encode(&updated)
                    } else {
                        writer::to_string(&updated).into_bytes()
                    };
                    std::fs::write(output, &bytes)
                        .map_err(|e| format!("writing {output}: {e}"))?;
                    Ok(format!(
                        "applied {} mutation(s): {} -> {} nodes, wrote {output}",
                        muts.len(),
                        doc.len(),
                        updated.len()
                    ))
                }
            }
        }
        "gen" => {
            let which = arg(args, 1)?;
            let output = arg(args, 2)?;
            let dataset = Dataset::all()
                .into_iter()
                .find(|d| d.name() == which)
                .ok_or_else(|| format!("unknown dataset {which:?} (d1..d5)"))?;
            let nodes: usize = flag_value(args, "--nodes")
                .map(|v| v.parse().map_err(|_| format!("bad --nodes {v:?}")))
                .transpose()?
                .unwrap_or(50_000);
            let seed: u64 = flag_value(args, "--seed")
                .map(|v| v.parse().map_err(|_| format!("bad --seed {v:?}")))
                .transpose()?
                .unwrap_or(42);
            let doc = generate(dataset, nodes, seed);
            std::fs::write(output, writer::to_string(&doc))
                .map_err(|e| format!("writing {output}: {e}"))?;
            Ok(format!("generated {} with {} nodes into {output}", which, doc.stats().node_count))
        }
        "serve" => {
            let config = parse_serve_config(args)?;
            let server = Server::bind(config).map_err(|e| format!("binding listener: {e}"))?;
            for (name, path) in flag_pairs(args, "--load")? {
                let nodes = server.preload(name, path)?;
                eprintln!("loaded {name} from {path} ({nodes} nodes)");
            }
            // The scripts that drive the server parse this line for the
            // (possibly ephemeral) port, so flush past stdout's pipe
            // buffering before blocking in the accept loop.
            println!("blossomd listening on {}", server.local_addr());
            use std::io::Write;
            std::io::stdout().flush().map_err(|e| e.to_string())?;
            server.run();
            Ok("blossomd: drained and stopped".to_string())
        }
        "--help" | "-h" | "help" | "" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// Build a [`ServerConfig`] from `serve` flags.
fn parse_serve_config(args: &[String]) -> Result<ServerConfig, String> {
    let defaults = ServerConfig::default();
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7730").to_string();
    let workers = match flag_value(args, "--workers") {
        None => defaults.workers,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("bad --workers {v:?} (want an integer >= 1)")),
        },
    };
    let deadline = match flag_value(args, "--deadline-ms") {
        None => defaults.deadline,
        Some(v) => match v.parse::<u64>() {
            Ok(0) => None,
            Ok(ms) => Some(std::time::Duration::from_millis(ms)),
            Err(_) => return Err(format!("bad --deadline-ms {v:?} (want milliseconds; 0 = none)")),
        },
    };
    let catalog_bytes = match flag_value(args, "--catalog-mb") {
        None => defaults.catalog_bytes,
        Some(v) => match v.parse::<usize>() {
            Ok(mb) if mb >= 1 => mb * 1024 * 1024,
            _ => return Err(format!("bad --catalog-mb {v:?} (want an integer >= 1)")),
        },
    };
    let io_model = match flag_value(args, "--io-model") {
        None => defaults.io_model,
        Some(v) => v
            .parse::<IoModel>()
            .map_err(|_| format!("bad --io-model {v:?} (want event-loop or thread-per-request)"))?,
    };
    let io_threads = match flag_value(args, "--io-threads") {
        None => defaults.io_threads,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("bad --io-threads {v:?} (want an integer >= 1)")),
        },
    };
    let max_queue = match flag_value(args, "--max-queue") {
        None => defaults.max_queue,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("bad --max-queue {v:?} (want an integer >= 1)")),
        },
    };
    let batch = match flag_value(args, "--batch") {
        None => defaults.batch,
        Some("on") => true,
        Some("off") => false,
        Some(v) => return Err(format!("bad --batch {v:?} (want on or off)")),
    };
    let slow_ms = match flag_value(args, "--slow-ms") {
        None => defaults.slow_ms,
        Some(v) => match v.parse::<u64>() {
            Ok(0) => None,
            Ok(ms) => Some(ms),
            Err(_) => return Err(format!("bad --slow-ms {v:?} (want milliseconds; 0 = off)")),
        },
    };
    let access_log = match flag_value(args, "--access-log") {
        None => defaults.access_log.clone(),
        Some(v) => v
            .parse()
            .map_err(|e| format!("bad --access-log {v:?}: {e}"))?,
    };
    let log_sample = match flag_value(args, "--log-sample") {
        None => defaults.log_sample,
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("bad --log-sample {v:?} (want an integer; 0 = off)"))?,
    };
    let store_dir = flag_value(args, "--store-dir").map(String::from);
    Ok(ServerConfig {
        addr,
        workers,
        deadline,
        catalog_bytes,
        io_model,
        io_threads,
        max_queue,
        batch,
        slow_ms,
        access_log,
        log_sample,
        store_dir,
        ..defaults
    })
}

/// Every `NAME=PATH` value of a repeatable flag.
fn flag_pairs<'a>(args: &'a [String], flag: &str) -> Result<Vec<(&'a str, &'a str)>, String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .map(|(i, _)| {
            let value = args
                .get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a NAME=PATH value"))?;
            value.split_once('=').ok_or_else(|| format!("bad {flag} {value:?} (want NAME=PATH)"))
        })
        .collect()
}

fn arg(args: &[String], idx: usize) -> Result<&str, String> {
    args.get(idx)
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| format!("missing argument #{idx}\n{USAGE}"))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Every value of a repeatable flag, in order.
fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1).map(String::as_str))
        .collect()
}

fn parse_repeat(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--repeat") {
        None => Ok(1),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("bad --repeat {v:?} (want an integer >= 1)")),
        },
    }
}

fn parse_strategy(name: &str) -> Result<Strategy, String> {
    // The CLI names and aliases live on `Strategy` itself so the query
    // server's `?strategy=` accepts the same spellings.
    name.parse()
}

/// Load any supported on-disk format (XML, BLM1, BLM2 — by sniffing)
/// and build an engine around it. BLM2 snapshots are memory-mapped and
/// come with a decoded tag index and statistics, so cold start skips
/// both parsing and index construction.
fn load_engine(path: &str, options: EngineOptions) -> Result<Engine, String> {
    let loaded = storage::load::loaded_from_path(Path::new(path), OpenMode::Map)?;
    let plans = Arc::new(SharedPlanCache::new(options.plan_cache_capacity));
    Ok(Engine::with_shared(
        Arc::new(loaded.doc),
        Arc::new(loaded.index),
        Arc::new(loaded.stats),
        plans,
        options,
    ))
}

/// Load any supported on-disk format when only the document is needed.
fn load_document(path: &str) -> Result<Document, String> {
    Ok(storage::load::loaded_from_path(Path::new(path), OpenMode::Map)?.doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("blossom-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_and_errors() {
        assert!(run(&s(&[])).unwrap().contains("usage"));
        assert!(run(&s(&["help"])).unwrap().contains("usage"));
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&["query"])).is_err());
    }

    #[test]
    fn end_to_end_workflow() {
        // gen -> stats -> query -> explain -> encode -> query the binary.
        let xml = tmp("d2.xml");
        let out = run(&s(&["gen", "d2", &xml, "--nodes", "2000", "--seed", "7"])).unwrap();
        assert!(out.contains("generated d2"));

        let stats = run(&s(&["stats", &xml])).unwrap();
        assert!(stats.contains("distinct tags: 7"), "{stats}");

        let hits =
            run(&s(&["query", &xml, "//address[//zip_code]", "--strategy", "ts"])).unwrap();
        assert!(hits.contains("<address>"));

        let plan = run(&s(&["explain", &xml, "//address//zip_code"])).unwrap();
        assert!(plan.contains("pipelined"), "{plan}");

        let blsm = tmp("d2.blsm");
        let enc = run(&s(&["encode", &xml, &blsm])).unwrap();
        assert!(enc.contains("skeleton"));

        // Querying the succinct binary gives the same answer as the XML.
        let from_xml = run(&s(&["query", &xml, "//address[//zip_code]"])).unwrap();
        let from_bin = run(&s(&["query", &blsm, "//address[//zip_code]"])).unwrap();
        assert_eq!(from_xml, from_bin);
    }

    #[test]
    fn snapshot_conversions_preserve_query_results() {
        let xml = tmp("snap.xml");
        run(&s(&["gen", "d1", &xml, "--nodes", "1500", "--seed", "11"])).unwrap();
        let want = run(&s(&["query", &xml, "//item[//bold]"])).unwrap();

        // XML -> BLM2 (with the succinct skeleton and a section report).
        let blm2 = tmp("snap.blm2");
        let out = run(&s(&[
            "snapshot", &xml, "--output", &blm2, "--succinct", "--stats",
        ]))
        .unwrap();
        assert!(out.contains("format blm2"), "{out}");
        assert!(out.contains("succinct"), "section report missing: {out}");
        assert_eq!(run(&s(&["query", &blm2, "//item[//bold]"])).unwrap(), want);
        assert!(run(&s(&["stats", &blm2])).unwrap().contains("nodes:"));

        // BLM2 -> BLM1 and BLM2 -> XML keep the answers identical too.
        let blm1 = tmp("snap.blsm");
        run(&s(&["snapshot", &blm2, "--output", &blm1, "--format", "blm1"])).unwrap();
        assert_eq!(run(&s(&["query", &blm1, "//item[//bold]"])).unwrap(), want);
        let back = tmp("snap-back.xml");
        run(&s(&["snapshot", &blm1, "--output", &back, "--format", "xml"])).unwrap();
        assert_eq!(run(&s(&["query", &back, "//item[//bold]"])).unwrap(), want);
    }

    #[test]
    fn snapshot_error_paths_are_one_line() {
        let xml = tmp("snap-err.xml");
        std::fs::write(&xml, "<r><a/></r>").unwrap();
        let cases: &[&[&str]] = &[
            &["snapshot", &xml],                                        // no --output
            &["snapshot", &xml, "--output", "/x", "--format", "tar"],   // bad format
            &["snapshot", &xml, "--output", "/x", "--format", "xml", "--succinct"],
            &["snapshot", "/nonexistent.xml", "--output", "/x"],        // bad input
        ];
        for case in cases {
            let err = run(&s(case)).unwrap_err();
            assert!(!err.contains('\n'), "multi-line error for {case:?}: {err}");
        }
    }

    #[test]
    fn update_through_cli() {
        let xml = tmp("upd.xml");
        std::fs::write(&xml, "<bib><book><title>a</title></book></bib>").unwrap();

        // Inline mutations print the mutated document to stdout.
        let out = run(&s(&[
            "update", &xml,
            "--apply", "insert 1 1 <book><title>b</title></book>",
            "--apply", "replace 1.1.1 <title>z</title>",
        ]))
        .unwrap();
        assert_eq!(
            out,
            "<bib><book><title>z</title></book><book><title>b</title></book></bib>"
        );

        // --ops FILE runs before --apply; --output writes a file whose
        // query results match querying the printed XML.
        let ops = tmp("upd.ops");
        std::fs::write(&ops, "insert 1 0 <book><title>first</title></book>\n").unwrap();
        let mutated = tmp("upd-out.xml");
        let summary = run(&s(&[
            "update", &xml, "--ops", &ops, "--apply", "delete 1.2", "--output", &mutated,
        ]))
        .unwrap();
        assert!(summary.contains("applied 2 mutation(s)"), "{summary}");
        let titles = run(&s(&["query", &mutated, "//title"])).unwrap();
        assert_eq!(titles, "<result><title>first</title></result>");

        // A .blsm output round-trips through the succinct decoder.
        let blsm = tmp("upd-out.blsm");
        run(&s(&["update", &xml, "--apply", "delete 1.1", "--output", &blsm])).unwrap();
        let empty = run(&s(&["query", &blsm, "//title"])).unwrap();
        assert_eq!(empty, "<result/>");
    }

    #[test]
    fn update_error_paths_are_one_line() {
        let xml = tmp("upd-err.xml");
        std::fs::write(&xml, "<r><a/></r>").unwrap();
        // No mutations at all.
        assert!(run(&s(&["update", &xml])).is_err());
        // Script syntax, invalid target, root delete: one-line errors,
        // and the input file is untouched.
        for script in ["munge 1.1", "delete 1.9", "delete 1"] {
            let err = run(&s(&["update", &xml, "--apply", script])).unwrap_err();
            assert!(!err.contains('\n'), "multi-line: {err}");
        }
        assert_eq!(std::fs::read_to_string(&xml).unwrap(), "<r><a/></r>");
    }

    #[test]
    fn flwor_through_cli() {
        let xml = tmp("bib.xml");
        std::fs::write(
            &xml,
            "<bib><book><title>B</title></book><book><title>A</title></book></bib>",
        )
        .unwrap();
        let out = run(&s(&[
            "query",
            &xml,
            "for $b in //book order by $b/title return <t>{$b/title}</t>",
        ]))
        .unwrap();
        assert_eq!(
            out,
            "<result><t><title>A</title></t><t><title>B</title></t></result>"
        );
    }

    #[test]
    fn explain_flwor_via_cli() {
        let xml = tmp("explain.xml");
        std::fs::write(&xml, "<bib><book><t>x</t></book></bib>").unwrap();
        let out = run(&s(&[
            "explain",
            &xml,
            "for $a in //book, $b in //book where $a << $b return <p/>",
        ]))
        .unwrap();
        assert!(out.contains("BlossomTree"), "{out}");
        assert!(out.contains("strategy:"), "{out}");
    }

    /// The module doc comment at the top of this file must mention every
    /// flag USAGE advertises (regression: a flag was once added to USAGE
    /// but not to the doc comment).
    #[test]
    fn doc_comment_mentions_every_usage_flag() {
        let source = include_str!("main.rs");
        let doc_comment: String = source
            .lines()
            .take_while(|l| l.starts_with("//!") || l.is_empty())
            .collect::<Vec<_>>()
            .join("\n");
        let flags: std::collections::BTreeSet<&str> = USAGE
            .split(|c: char| c.is_whitespace() || c == '[' || c == ']' || c == ':')
            .filter(|t| t.starts_with("--"))
            .collect();
        assert!(!flags.is_empty());
        for flag in flags {
            assert!(
                doc_comment.contains(flag),
                "USAGE flag {flag} missing from the module doc comment"
            );
        }
    }

    #[test]
    fn profile_leaves_stdout_bytes_identical() {
        let xml = tmp("profile.xml");
        std::fs::write(&xml, "<r><a><b/></a><a><x><b/></x></a></r>").unwrap();
        for strategy in ["auto", "navigational", "ts", "bnlj"] {
            let plain = run(&s(&["query", &xml, "//a//b", "--strategy", strategy])).unwrap();
            let profiled =
                run(&s(&["query", &xml, "//a//b", "--strategy", strategy, "--profile"]))
                    .unwrap();
            assert_eq!(plain, profiled, "--strategy {strategy}");
        }
    }

    #[test]
    fn profile_json_has_schema_keys() {
        let xml = tmp("pjson.xml");
        std::fs::write(&xml, "<r><a><b/></a></r>").unwrap();
        let out = tmp("pjson.json");
        run(&s(&["query", &xml, "//a//b", "--profile-json", &out])).unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        for key in [
            "\"blossom_profile\"",
            "\"query\"",
            "\"strategy\"",
            "\"requested\"",
            "\"resolved\"",
            "\"executed\"",
            "\"fallbacks\"",
            "\"operators\"",
            "\"totals\"",
            "\"phases_us\"",
            "\"cache\"",
            "\"counters_enabled\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    /// The profile's `serialize` phase is the byte sink's writing time,
    /// and the pretty printer's under `--pretty`: non-zero for a
    /// non-empty result.
    #[test]
    fn profile_reports_the_serialize_phase() {
        let xml = tmp("pserialize.xml");
        run(&s(&["gen", "d2", &xml, "--nodes", "20000", "--seed", "3"])).unwrap();
        let out = tmp("pserialize.json");
        for pretty in [false, true] {
            let mut args = s(&["query", &xml, "/*", "--profile-json", &out]);
            if pretty {
                args.push("--pretty".into());
            }
            run(&args).unwrap();
            let json = std::fs::read_to_string(&out).unwrap();
            let us: u64 = json
                .split("\"serialize\": ")
                .nth(1)
                .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("no serialize phase in {json}"));
            assert!(us > 0, "pretty={pretty}: serialize=0 in {json}");
        }
    }

    #[test]
    fn repeat_flag() {
        let xml = tmp("repeat.xml");
        std::fs::write(&xml, "<r><a/></r>").unwrap();
        let once = run(&s(&["query", &xml, "//a"])).unwrap();
        let thrice = run(&s(&["query", &xml, "//a", "--repeat", "3"])).unwrap();
        assert_eq!(once, thrice);
        assert!(run(&s(&["query", &xml, "//a", "--repeat", "0"])).is_err());
        assert!(run(&s(&["query", &xml, "//a", "--repeat", "soon"])).is_err());
    }

    #[test]
    fn strategy_parsing() {
        assert!(parse_strategy("auto").is_ok());
        assert!(parse_strategy("ts").is_ok());
        assert!(parse_strategy("warp-drive").is_err());
        // The canonical Display names round-trip too (server spellings).
        for s in ["navigational", "bounded-nested-loop", "naive-nested-loop"] {
            assert!(parse_strategy(s).is_ok(), "{s}");
        }
    }

    /// `query` over a missing or unparsable file must come back as a
    /// one-line `Err` (which `main` turns into `error: ...` on stderr
    /// and a nonzero exit), never a panic or a multi-line backtrace.
    #[test]
    fn query_error_paths_are_one_line_diagnostics() {
        let missing = run(&s(&["query", "/nonexistent/no-such.xml", "//a"]));
        let err = missing.unwrap_err();
        assert!(err.contains("/nonexistent/no-such.xml"), "{err}");
        assert!(!err.contains('\n'), "multi-line: {err}");

        let bad = tmp("unparsable.xml");
        std::fs::write(&bad, "<r><open>never closed").unwrap();
        let err = run(&s(&["query", &bad, "//a"])).unwrap_err();
        assert!(err.contains("unparsable.xml"), "{err}");
        assert!(!err.contains('\n'), "multi-line: {err}");

        // A corrupt .blsm snapshot: decode error, still one line.
        let corrupt = tmp("corrupt.blsm");
        std::fs::write(&corrupt, b"BLM1this is not a snapshot").unwrap();
        let err = run(&s(&["query", &corrupt, "//a"])).unwrap_err();
        assert!(!err.contains('\n'), "multi-line: {err}");

        // A syntactically invalid query over a good document.
        let good = tmp("good.xml");
        std::fs::write(&good, "<r><a/></r>").unwrap();
        let err = run(&s(&["query", &good, "//a["])).unwrap_err();
        assert!(!err.contains('\n'), "multi-line: {err}");
    }

    #[test]
    fn serve_flag_parsing() {
        let config = parse_serve_config(&s(&[
            "serve", "--addr", "127.0.0.1:0", "--workers", "2",
            "--deadline-ms", "250", "--catalog-mb", "64",
        ]))
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.workers, 2);
        assert_eq!(config.deadline, Some(std::time::Duration::from_millis(250)));
        assert_eq!(config.catalog_bytes, 64 * 1024 * 1024);

        assert_eq!(parse_serve_config(&s(&["serve", "--deadline-ms", "0"])).unwrap().deadline, None);
        assert_eq!(parse_serve_config(&s(&["serve"])).unwrap().store_dir, None);
        assert_eq!(
            parse_serve_config(&s(&["serve", "--store-dir", "/var/lib/blossom"]))
                .unwrap()
                .store_dir
                .as_deref(),
            Some("/var/lib/blossom")
        );
        assert!(parse_serve_config(&s(&["serve", "--workers", "0"])).is_err());
        assert!(parse_serve_config(&s(&["serve", "--catalog-mb", "lots"])).is_err());

        // Event-loop serving knobs.
        let config = parse_serve_config(&s(&[
            "serve", "--io-model", "thread-per-request", "--io-threads", "4",
            "--max-queue", "16", "--batch", "off",
        ]))
        .unwrap();
        assert_eq!(config.io_model, IoModel::ThreadPerRequest);
        assert_eq!(config.io_threads, 4);
        assert_eq!(config.max_queue, 16);
        assert!(!config.batch);
        let defaults = parse_serve_config(&s(&["serve"])).unwrap();
        assert_eq!(defaults.io_model, IoModel::EventLoop);
        assert_eq!(defaults.io_threads, 2);
        assert_eq!(defaults.max_queue, 1024);
        assert!(defaults.batch);
        assert!(parse_serve_config(&s(&["serve", "--io-model", "coroutines"])).is_err());
        assert!(parse_serve_config(&s(&["serve", "--io-threads", "0"])).is_err());
        assert!(parse_serve_config(&s(&["serve", "--max-queue", "0"])).is_err());
        assert!(parse_serve_config(&s(&["serve", "--batch", "maybe"])).is_err());

        // Observability knobs.
        let config = parse_serve_config(&s(&[
            "serve", "--slow-ms", "50", "--access-log", "/tmp/blossomd.log",
            "--log-sample", "100",
        ]))
        .unwrap();
        assert_eq!(config.slow_ms, Some(50));
        assert_eq!(
            config.access_log,
            blossomtree::server::accesslog::LogTarget::File("/tmp/blossomd.log".into())
        );
        assert_eq!(config.log_sample, 100);
        assert_eq!(defaults.slow_ms, None);
        assert_eq!(defaults.access_log, blossomtree::server::accesslog::LogTarget::Stderr);
        assert_eq!(defaults.log_sample, 0);
        assert_eq!(
            parse_serve_config(&s(&["serve", "--slow-ms", "0"])).unwrap().slow_ms,
            None
        );
        assert_eq!(
            parse_serve_config(&s(&["serve", "--access-log", "off"])).unwrap().access_log,
            blossomtree::server::accesslog::LogTarget::Off
        );
        assert!(parse_serve_config(&s(&["serve", "--slow-ms", "fast"])).is_err());
        assert!(parse_serve_config(&s(&["serve", "--log-sample", "-1"])).is_err());

        let loads = s(&["serve", "--load", "a=/tmp/a.xml", "--load", "b=/tmp/b.blsm"]);
        let pairs = flag_pairs(&loads, "--load").unwrap();
        assert_eq!(pairs, vec![("a", "/tmp/a.xml"), ("b", "/tmp/b.blsm")]);
        assert!(flag_pairs(&s(&["serve", "--load", "nopath"]), "--load").is_err());
        assert!(flag_pairs(&s(&["serve", "--load"]), "--load").is_err());
    }

    /// `serve --load` with a bad path must fail up front with the usual
    /// one-line diagnostic instead of starting a half-initialized server.
    #[test]
    fn serve_preload_errors_are_one_line() {
        let err = run(&s(&[
            "serve", "--addr", "127.0.0.1:0", "--load", "bib=/nonexistent/bib.xml",
        ]))
        .unwrap_err();
        assert!(err.contains("/nonexistent/bib.xml"), "{err}");
        assert!(!err.contains('\n'), "multi-line: {err}");
    }

    /// Evaluation is single-threaded: neither `query` nor `serve`
    /// advertises a `--threads` flag, and like any flag the CLI does not
    /// know, a stray one changes nothing.
    #[test]
    fn threads_flag() {
        assert!(!USAGE.contains("--threads "), "{USAGE}");
        let xml = tmp("threads.xml");
        std::fs::write(&xml, "<bib><book><title>t</title></book></bib>").unwrap();
        let plain = run(&s(&["query", &xml, "//book/title"])).unwrap();
        let stray = run(&s(&["query", &xml, "//book/title", "--threads", "4"])).unwrap();
        assert_eq!(stray, plain);
    }
}
