#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh [--seed <u64>]
#       all four workloads, untraced then traced; prints every metric and
#       writes benchmark/out/results.json + benchmark/out/trace.jsonl
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one pass; the last line of output is the JSON result the benchmark
#       driver reads (see BENCHMARK.json at the root of the repo)
#
# The package depends on ../crates by path, so this fails (non-zero, no
# result line) anywhere the program's sources are missing.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/chm-benchmark" --out "$here/out" "$@"
