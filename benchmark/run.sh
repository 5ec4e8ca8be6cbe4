#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one run; the last line of stdout is the result object
#   benchmark/run.sh [--seed <n>] [--runs <k>] [--smoke]
#       all five workloads, untraced then traced; writes benchmark/out/results.json
#   benchmark/run.sh compare <baseline.json> <candidate.json>
#
# The build goes to $CARGO_TARGET_DIR if set, else benchmark/target. Without
# the repository's crates beside it (../crates) the build fails and this
# script exits non-zero without printing a result.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/benchmark" "$@"
