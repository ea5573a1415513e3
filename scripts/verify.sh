#!/usr/bin/env bash
# Tier-1 verification: offline release build, the full test suite, a
# micro-benchmark smoke (leaving BENCH_micro_smoke.json), a server smoke that
# load-tests blossomd in-process and as a real child process (leaving
# BENCH_server.json), an observability smoke that checks the structured
# slow-query log and the Prometheus exposition (leaving the scrape in
# METRICS_scrape.txt), a storage smoke that checks BLM2 snapshots,
# zero-copy opens and the over-capacity catalog sweep (leaving
# BENCH_storage_smoke.json), and a profile smoke that checks the
# --profile-json schema and that tracing never changes query output
# bytes (leaving BENCH_profile_smoke.json).
#
# Usage: scripts/verify.sh [--full]
#   --full   run the differential and mutation sweeps for 1000 rounds
#            instead of the 400-round smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== tests (every workspace crate: default-members) =="
cargo test -q

echo "== differential smoke (engine matrix vs oracle, fixed seeds) =="
# A bounded slice of the differential harness: 400 seeded rounds across
# the five paper datasets, every engine configuration checked against
# the spec-direct oracle in crates/oracle. The full loop is the same
# binary with a bigger budget, e.g.:
#   cargo run --release -p blossom-bench --bin diff -- --rounds 1000
DIFF_ROUNDS=400
if [[ "${1:-}" == "--full" ]]; then
    DIFF_ROUNDS=1000
fi
cargo run --release -q -p blossom-bench --bin diff -- \
    --rounds "${DIFF_ROUNDS}" --nodes 160 --out target/diff-fixtures
cargo run --release -q -p blossom-bench --bin diff -- \
    --replay tests/fixtures/diff --server

echo "== mutation differential smoke (incremental update path vs rebuild) =="
# Every round also applies a seeded mutation script through the
# incremental update path (arena splice + TagIndex::splice), checks the
# snapshot byte-for-byte against a rebuild-from-scratch reference, then
# runs the full configuration matrix on the maintained parts. The long
# sweep is the CI `mutation-fuzz` job (1000 rounds).
cargo run --release -q -p blossom-bench --bin diff -- \
    --rounds "${DIFF_ROUNDS}" --nodes 120 --mutations 5 \
    --out target/mutation-fixtures

echo "== storage smoke (BLM2 snapshots, owned-vs-mapped differential) =="
# Every differential round additionally encodes the document to a BLM2
# snapshot, reopens it zero-copy, and runs the whole configuration
# matrix once over the owned arena and once over the mapped columns —
# the answers must be byte-identical.
cargo run --release -q -p blossom-bench --bin diff -- \
    --rounds 40 --nodes 160 --storage --out target/storage-fixtures

# Snapshot CLI round-trip: XML → BLM2 (with the succinct section and
# the per-section stats report) → XML again; queries over all three
# forms must produce the same bytes, and the BLM2 must open mapped.
SNAP_DOC=target/snapshot-smoke.xml
SNAP_BLM2=target/snapshot-smoke.blm2
SNAP_BACK=target/snapshot-smoke-back.xml
cargo run --release -q --bin blossom -- gen d1 "${SNAP_DOC}" --nodes 6000
cargo run --release -q --bin blossom -- snapshot "${SNAP_DOC}" \
    --output "${SNAP_BLM2}" --succinct --stats > target/snapshot-stats.out
grep -q 'format blm2' target/snapshot-stats.out \
    || { echo "snapshot CLI did not report the blm2 format"; exit 1; }
cargo run --release -q --bin blossom -- snapshot "${SNAP_BLM2}" \
    --output "${SNAP_BACK}" --format xml
cargo run --release -q --bin blossom -- query "${SNAP_DOC}" '//item[//bold]' \
    > target/snapshot-xml.out
cargo run --release -q --bin blossom -- query "${SNAP_BLM2}" '//item[//bold]' \
    > target/snapshot-blm2.out
cargo run --release -q --bin blossom -- query "${SNAP_BACK}" '//item[//bold]' \
    > target/snapshot-back.out
cmp target/snapshot-xml.out target/snapshot-blm2.out \
    || { echo "mapped BLM2 query differs from the XML source"; exit 1; }
cmp target/snapshot-xml.out target/snapshot-back.out \
    || { echo "BLM2 → XML conversion changed query results"; exit 1; }

# A quick pass of the storage bench (cold-load, owned-vs-mapped
# latency, and the over-capacity catalog sweep with spill + remap
# counters); the full-size run is the CI storage job.
cargo run --release -q -p blossom-bench --bin storage -- \
    --nodes 8000 --runs 1 --docs 4 --out BENCH_storage_smoke.json
for key in cold_load map_blm2_min_s map_speedup_vs_parse query_latency \
           catalog_sweep resident_bytes spilled_docs remaps; do
    grep -q "\"${key}\"" BENCH_storage_smoke.json \
        || { echo "BENCH_storage_smoke.json missing key: ${key}"; exit 1; }
done

echo "== server smoke (blossomd: load, concurrent queries, open-loop, drain) =="
# In-process run of the load harness, both phases: four connections
# sweep the Table-3 query matrix closed-loop with every response
# byte-compared against direct in-process evaluation, then the
# open-loop generator drives 256 keep-alive connections on a fixed
# arrival schedule at three offered rates against a fresh event-loop
# server per rate. Writes BENCH_server.json.
cargo run --release -q -p blossom-bench --bin serve_load -- \
    --connections 4 --rounds 2 --nodes 4000 \
    --open-connections 256 --rates 500,2000,8000 --open-seconds 1 \
    --out BENCH_server.json
for key in closed_loop throughput_rps p50 p95 p99 response_mismatches \
           open_loop offered_rps achieved_rps rejected_503 \
           latency_from_arrival_us service_us; do
    grep -q "\"${key}\"" BENCH_server.json \
        || { echo "BENCH_server.json missing key: ${key}"; exit 1; }
done

# The same harness against a real `blossom serve` process: ephemeral
# port, a preloaded document, concurrent queries (the harness also sends
# one malformed request and one profile=1 request), one raw-HTTP query
# byte-compared with the CLI, then a graceful POST /shutdown drain.
SERVE_DOC=target/serve-smoke.xml
SERVE_LOG=target/serve-smoke.log
ACCESS_LOG=target/serve-access.log
rm -f "${ACCESS_LOG}"
cargo run --release -q --bin blossom -- gen d3 "${SERVE_DOC}" --nodes 20000
# Preloaded under a name the load harness will not overwrite (it loads
# its own generated documents as d1..d5). The slow-query log is armed so
# the observability smoke below can check its records; logging must not
# change a single response byte (the cmp below would catch it).
./target/release/blossom serve --addr 127.0.0.1:0 --workers 2 \
    --load smoke="${SERVE_DOC}" \
    --slow-ms 50 --access-log "${ACCESS_LOG}" > "${SERVE_LOG}" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 100); do
    ADDR=$(sed -n 's/^blossomd listening on //p' "${SERVE_LOG}")
    [[ -n "${ADDR}" ]] && break
    sleep 0.1
done
[[ -n "${ADDR}" ]] \
    || { echo "blossom serve never reported its address"; cat "${SERVE_LOG}"; exit 1; }
HOST=${ADDR%:*}
PORT=${ADDR##*:}
cargo run --release -q -p blossom-bench --bin serve_load -- \
    --addr "${ADDR}" --connections 4 --rounds 1 --nodes 2000 --no-open \
    --out target/BENCH_server_external.json

exec 3<>"/dev/tcp/${HOST}/${PORT}"
printf 'GET /query?doc=smoke&q=//item/title HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' >&3
HTTP_RESPONSE=$(cat <&3)
exec 3<&- 3>&-
printf '%s\n' "${HTTP_RESPONSE}" | tr -d '\r' | sed '1,/^$/d' > target/serve-smoke-http.out
./target/release/blossom query "${SERVE_DOC}" '//item/title' > target/serve-smoke-cli.out
cmp target/serve-smoke-cli.out target/serve-smoke-http.out \
    || { echo "server response differs from CLI output"; exit 1; }

echo "== update smoke (CLI update vs server incremental maintenance) =="
# The same mutation script travels two roads: `blossom update` writes
# the spliced document to disk (queried after a from-scratch reparse =
# the rebuild reference), while POST /update mutates the live server
# snapshot through the incremental index-maintenance path. Both answers
# must be byte-identical.
UPDATE_SCRIPT=$'insert 1 0 <item><title>zz-update-smoke</title></item>\ndelete 1.2'
UPDATED_DOC=target/update-smoke-updated.xml
cargo run --release -q --bin blossom -- update "${SERVE_DOC}" \
    --apply 'insert 1 0 <item><title>zz-update-smoke</title></item>' \
    --apply 'delete 1.2' \
    --output "${UPDATED_DOC}"
cargo run --release -q --bin blossom -- query "${UPDATED_DOC}" '//item/title' \
    > target/update-smoke-rebuild.out
grep -q 'zz-update-smoke' target/update-smoke-rebuild.out \
    || { echo "CLI update lost the inserted subtree"; exit 1; }

exec 3<>"/dev/tcp/${HOST}/${PORT}"
printf 'POST /update?doc=smoke HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s' \
    "${#UPDATE_SCRIPT}" "${UPDATE_SCRIPT}" >&3
UPDATE_RESPONSE=$(cat <&3)
exec 3<&- 3>&-
printf '%s\n' "${UPDATE_RESPONSE}" | grep -q '"mutations": 2' \
    || { echo "POST /update did not apply the script: ${UPDATE_RESPONSE}"; exit 1; }

exec 3<>"/dev/tcp/${HOST}/${PORT}"
printf 'GET /query?doc=smoke&q=//item/title HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' >&3
HTTP_RESPONSE=$(cat <&3)
exec 3<&- 3>&-
printf '%s\n' "${HTTP_RESPONSE}" | tr -d '\r' | sed '1,/^$/d' > target/update-smoke-server.out
cmp target/update-smoke-rebuild.out target/update-smoke-server.out \
    || { echo "incrementally maintained snapshot differs from rebuild"; exit 1; }

echo "== observability smoke (slow-query log, request ids, /metrics scrape) =="
# A three-way FLWOR Cartesian product cannot finish inside 120ms on the
# 20k-node smoke document, so the request burns its whole deadline
# budget and aborts: wall ~120ms >= --slow-ms 50, which must produce a
# structured slow-query record with outcome "deadline" and per-stage
# durations (DESIGN.md §14).
SLOW_Q='for%20%24x%20in%20//item%20for%20%24y%20in%20//item%20for%20%24z%20in%20//item%20return%20%24x'
exec 3<>"/dev/tcp/${HOST}/${PORT}"
printf 'GET /query?doc=smoke&q=%s&deadline_ms=120 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' \
    "${SLOW_Q}" >&3
SLOW_RESPONSE=$(cat <&3)
exec 3<&- 3>&-
# (status-line checks use parameter expansion, not `| head -1`: with
# pipefail a large response makes printf die of SIGPIPE when head
# exits early, failing the pipeline even though the grep matched.)
[[ "${SLOW_RESPONSE%%[$'\r\n']*}" == *' 503 '* ]] \
    || { echo "Cartesian query under deadline_ms=120 did not 503"; exit 1; }
printf '%s\n' "${SLOW_RESPONSE}" | tr -d '\r' | grep -qi '^x-request-id: [0-9]' \
    || { echo "503 response missing X-Request-Id header"; exit 1; }
# The record is written when the response bytes drain; allow a beat.
for _ in $(seq 50); do
    grep -q '"outcome": "deadline"' "${ACCESS_LOG}" 2>/dev/null && break
    sleep 0.1
done
SLOW_RECORD=$(grep -m1 '"outcome": "deadline"' "${ACCESS_LOG}")
[[ -n "${SLOW_RECORD}" ]] \
    || { echo "no deadline record in ${ACCESS_LOG}"; cat "${ACCESS_LOG}" 2>/dev/null; exit 1; }
for field in '"ts_ms": ' '"id": ' '"endpoint": "/query"' '"status": 503' \
             '"slow": true' '"wall_us": ' '"stages_us": {"read": ' \
             '"execute": ' '"deadline_budget_ms": 120' '"doc": "smoke"' \
             '"query": '; do
    grep -qF -- "${field}" <<< "${SLOW_RECORD}" \
        || { echo "slow-log record missing ${field}: ${SLOW_RECORD}"; exit 1; }
done

# Scrape the Prometheus exposition and keep it as a CI artifact next to
# BENCH_server.json.
exec 3<>"/dev/tcp/${HOST}/${PORT}"
printf 'GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' >&3
METRICS_RESPONSE=$(cat <&3)
exec 3<&- 3>&-
[[ "${METRICS_RESPONSE%%[$'\r\n']*}" == *' 200 '* ]] \
    || { echo "GET /metrics did not 200"; exit 1; }
printf '%s\n' "${METRICS_RESPONSE}" | tr -d '\r' | sed '1,/^$/d' > METRICS_scrape.txt
for series in '# TYPE blossomd_requests_total counter' \
              '# TYPE blossomd_request_duration_seconds histogram' \
              'blossomd_request_stage_duration_seconds_bucket' \
              'blossomd_deadline_aborts_total' \
              'blossomd_catalog_documents'; do
    grep -qF -- "${series}" METRICS_scrape.txt \
        || { echo "METRICS_scrape.txt missing ${series}"; exit 1; }
done

exec 3<>"/dev/tcp/${HOST}/${PORT}"
printf 'POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' >&3
cat <&3 > /dev/null
exec 3<&- 3>&-
for _ in $(seq 100); do
    kill -0 "${SERVE_PID}" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "${SERVE_PID}" 2>/dev/null; then
    kill -9 "${SERVE_PID}"
    echo "blossom serve did not drain after POST /shutdown"
    exit 1
fi
wait "${SERVE_PID}" || { echo "blossom serve exited nonzero"; cat "${SERVE_LOG}"; exit 1; }
grep -q "drained and stopped" "${SERVE_LOG}" \
    || { echo "blossom serve missing drain message"; cat "${SERVE_LOG}"; exit 1; }

echo "== bench smoke (micro) =="
cargo run --release -q -p blossom-bench --bin micro -- \
    --nodes 8000 --runs 1 --out BENCH_micro_smoke.json

echo "== profile smoke (query tracing is observational + schema-stable) =="
# Run the same query profiled and unprofiled: the profile must carry
# every schema key, and profiling must not change a single
# byte of the query result on stdout.
PROFILE_DOC=target/profile-smoke.xml
PROFILE_JSON=BENCH_profile_smoke.json
PROFILE_QUERY='//item[publisher]/title'
cargo run --release -q --bin blossom -- gen d3 "${PROFILE_DOC}" --nodes 20000
cargo run --release -q --bin blossom -- query "${PROFILE_DOC}" "${PROFILE_QUERY}" \
    > target/profile-smoke-plain.out
cargo run --release -q --bin blossom -- query "${PROFILE_DOC}" "${PROFILE_QUERY}" \
    --profile --profile-json "${PROFILE_JSON}" \
    > target/profile-smoke-traced.out 2>/dev/null
for key in blossom_profile query strategy fallbacks operators totals \
           phases_us cache counters_enabled; do
    grep -q "\"${key}\"" "${PROFILE_JSON}" \
        || { echo "profile JSON missing key: ${key}"; exit 1; }
done
cmp target/profile-smoke-plain.out target/profile-smoke-traced.out \
    || { echo "profiling changed the query output bytes"; exit 1; }

echo "== planner smoke (estimates in the profile) =="
# The cost-based planner's estimate records (DESIGN.md §11) must be in
# the profile JSON: per-component strategy, estimated cardinalities and
# the estimated-vs-actual comparison.
for key in estimates est_anchors est_output est_cost actual_output replanned; do
    grep -q "\"${key}\"" "${PROFILE_JSON}" \
        || { echo "profile JSON missing estimate key: ${key}"; exit 1; }
done

echo "== flat FLWOR smoke (no fallback, one row per operator) =="
# An Example-1-shaped FLWOR under `auto` runs the flat plan (DESIGN.md §17): the
# profile records no fallback, and the hash join and construction each
# have their own operator row.
FLWOR_JSON=target/flwor-profile.json
cargo run --release -q --bin blossom -- query "${PROFILE_DOC}" \
    'for $a in //item, $b in //item where $a << $b and deep-equal($a/title, $b/title) return <p>{ $a/title }</p>' \
    --profile-json "${FLWOR_JSON}" > /dev/null
grep -q '"fallbacks": \[\]' "${FLWOR_JSON}" \
    || { echo "the flat FLWOR plan fell back"; exit 1; }
for op in hash-join construct; do
    grep -q " ${op}\"" "${FLWOR_JSON}" \
        || { echo "flat FLWOR profile missing operator: ${op}"; exit 1; }
done
echo "verify: OK"
