#!/usr/bin/env bash
# The benchmark's one entry point.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload, as BENCHMARK.json's "command" invokes it;
#       the result object is the last line of stdout.
#   benchmark/run.sh [run|trace|check|quick] [options]
#       run    every workload once, tracing off: prints every end-to-end
#              metric by name and unit, checks every operation's bytes
#       trace  the traced pass: prints every per-layer metric
#       check  two sets of runs of the same build must agree within bounds
#       quick  a smoke test under 20 s at --scale 0.05: bytes and schema only
#   benchmark/run.sh compare BASE.json NEW.json
#
# Builds the product's `blossom` binary and the harness first, offline,
# from the checkout this script sits in. Exits non-zero when a build
# fails, an operation returns wrong bytes, or a bound is broken.
set -euo pipefail
cd "$(dirname "$0")/.."

# Build output goes to stderr so stdout stays the harness's own.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin blossom 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
blossom="${CARGO_TARGET_DIR:-target}/release/blossom"
harness="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"

# No `exec`: a harness that replaced this shell would inherit the builds
# above as its own waited-for children, and `cold-cli` reads its
# children's peak memory (the largest `ru_maxrss`) from exactly there.
case "${1:-run}" in
  --*)     "$harness" bench --blossom "$blossom" "$@" ;;
  compare) "$harness" "$@" ;;
  *)       "$harness" "${1:-run}" --blossom "$blossom" "${@:2}" ;;
esac
