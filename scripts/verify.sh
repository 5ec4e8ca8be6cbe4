#!/usr/bin/env bash
# Tier-1 verification: hermetic build + full test suite + lint + smoke
# runs, all offline. This is the command CI and reviewers run; it must
# pass from a clean checkout with no network access.
#
# The pipeline is split into named stages, each timed. Run one stage in
# isolation with VCU_VERIFY_STAGE=<name> (e.g.
# `VCU_VERIFY_STAGE=clippy scripts/verify.sh`); unknown names run
# nothing and fail, so typos can't silently pass. Stages listed in
# ON_REQUEST run only when named.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

STAGE_FILTER="${VCU_VERIFY_STAGE:-}"
CURRENT_STAGE=""
STAGES_RUN=0
STAGE_NAMES=()
ON_REQUEST=(mutants)
trap '[[ -n "$CURRENT_STAGE" ]] && echo "stage $CURRENT_STAGE: FAILED" >&2' ERR

run_stage() {
    local name="$1"
    shift
    STAGE_NAMES+=("$name")
    if [[ -n "$STAGE_FILTER" && "$STAGE_FILTER" != "$name" ]]; then
        return 0
    fi
    if [[ -z "$STAGE_FILTER" && " ${ON_REQUEST[*]} " == *" $name "* ]]; then
        return 0
    fi
    echo "==> stage $name"
    CURRENT_STAGE="$name"
    local t0=$SECONDS
    "$@"
    CURRENT_STAGE=""
    STAGES_RUN=$((STAGES_RUN + 1))
    echo "==> stage $name: OK ($((SECONDS - t0))s)"
}

stage_fmt() {
    cargo fmt --all -- --check
}

stage_build() {
    cargo build --workspace --release --offline
}

stage_test() {
    cargo test -q --workspace --offline
}

# `unsafe` lives in vcu-codec's SIMD layer only: every other crate
# root must forbid it.
stage_clippy() {
    local lib missing=0
    for lib in crates/*/src/lib.rs; do
        [[ "$lib" == crates/codec/src/lib.rs ]] && continue
        if ! grep -qxF '#![forbid(unsafe_code)]' "$lib"; then
            echo "$lib lacks #![forbid(unsafe_code)]" >&2
            missing=1
        fi
    done
    [[ $missing == 0 ]]
    cargo clippy --workspace --all-targets --offline -q -- -D warnings -D unreachable_pub
}

# Rustdoc must build warning-free: a broken or private intra-doc link
# is an error, so the rendered API docs never point nowhere.
stage_doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

# Smoke-run every example with its built-in fixed seed (VCU_SEED
# unset → defaults), offline; `set -e` fails the stage on any
# non-zero exit. Each prints a one-line JSON summary at the end.
# `observe` rewrites its committed telemetry snapshots; they must come
# out byte-identical, which pins the cluster's series, counters and
# event order across commits.
stage_examples() {
    local ex
    for ex in quickstart upload_pipeline live_streaming cloud_gaming failure_drill observe chaos serve; do
        echo "--> example $ex"
        env -u VCU_SEED cargo run -q -p vcu-bench --release --offline --example "$ex" \
            | tail -n 1
    done
    git diff --exit-code -- results/observe_telemetry_hw.json \
        results/observe_telemetry_node.json results/observe_telemetry_sw_offload.json \
        results/observe_utilization.txt
}

# Smoke-run the five deterministic campaigns through the one harness
# (vcu_bench::campaign): each renders its artifact, parses the bytes
# back and runs the artifact's gate on them before writing to the temp
# directory, so a campaign whose fresh output would fail check_results
# fails here.
stage_campaign_smoke() {
    local bin
    for bin in bench_fault_campaign bench_serve bench_region_campaign bench_dse paper; do
        echo "--> $bin"
        VCU_BENCH_SMOKE=1 cargo run -q -p vcu-bench --release --offline --bin "$bin" \
            | tail -n 2
    done
}

# Gate the committed results/: check_results runs the five campaign
# artifacts through the same gates their drivers run on fresh bytes.
# Reads results/, never writes it.
stage_results_gate() {
    cargo run -q -p vcu-bench --release --offline --bin check_results
}

# Regenerate the three full campaigns that take seconds (fault, region,
# design-space sweep) with their built-in seed; each gates its fresh
# artifact and rewrites it under results/, which must come out
# byte-identical. serve and paper take minutes and stay weekly.
stage_results_drift() {
    local bin
    for bin in bench_fault_campaign bench_region_campaign bench_dse; do
        echo "--> $bin (full)"
        env -u VCU_SEED -u VCU_BENCH_SMOKE cargo run -q -p vcu-bench --release --offline \
            --bin "$bin" | tail -n 2
    done
    git diff --exit-code -- results/fault_campaign.json results/region_campaign.json \
        results/dse_frontier.json
}

# benchmark/ is a separate package with its own lockfile, which records
# each workspace crate's dependency list; a crate-graph change here
# would stale it, and a change to the public surface it consumes would
# stop it compiling. Fail now, not in the benchmark pipeline.
stage_benchmark_lock() {
    cargo metadata --locked --offline --manifest-path benchmark/Cargo.toml \
        --format-version 1 >/dev/null
    cargo check --locked --offline --manifest-path benchmark/Cargo.toml
}

# The external benchmark's own correctness checks, on every push and not
# only in the benchmark pipeline: all five workloads at tiny sizes,
# untraced then traced, one second of timed repetitions each (at least
# five; ~20 s in all once built). Each run fails unless every
# repetition returns the first one's report, completed + failed = jobs,
# session accounting balances and the 1-thread legs equal the N-thread
# ones. Builds into benchmark/target and writes benchmark/out/smoke
# (both ignored); no file under benchmark/ changes.
stage_benchmark_smoke() {
    benchmark/run.sh --smoke --seconds 1 | grep -E '^# ([a-z]+ seed=|wrote )'
}

# The determinism suite must hold at any thread count: run it once
# sequential and once with 4 encode workers. Byte-identical bitstreams
# and telemetry snapshots are asserted inside the tests. This is a
# debug build on purpose (no --release), so the simulator pins run
# with every debug oracle on. The oracles are listed once, as the
# `# oracle:` lines of scripts/mutants.tsv, each above a mutation that
# goes red through it; tests/docs.rs checks the echo line against them.
stage_determinism() {
    local t
    for t in 1 4; do
        echo "--> VCU_THREADS=$t (debug build: memo, grown-worker, event-order, screen, index-repair, job-shape, video-slot, usable-placement, pending-outcome and freed-slot oracles on)"
        VCU_THREADS=$t cargo test -q -p vcu-system --offline --test determinism \
            | tail -n 2
    done
}

# The pixel-kernel dispatch layer must be byte-invisible: with the
# dispatcher pinned to the scalar reference (VCU_SIMD=off), the golden
# bitstream hashes and the scalar<->AVX2 differential suite must pass
# exactly as they do under the best backend (the plain test stage).
# A release build on purpose: the kernel wrappers' slice-length asserts
# are the cross-backend contract the short-slice test in tests/simd.rs
# pins, so it must see them live where debug_assert! is not. The same
# file's hostile-container decode test runs here on the scalar kernels.
stage_simd_off() {
    echo "--> VCU_SIMD=off (release build)"
    VCU_SIMD=off cargo test -q -p vcu-system --release --offline --test golden --test simd \
        | tail -n 4
    # The motion search and its alias replay against their references,
    # on the scalar kernels.
    VCU_SIMD=off cargo test -q -p vcu-codec --release --offline --lib \
        -- motion::differential aliased_slots_code_like_separate_copies | tail -n 3
}

# Every row of scripts/mutants.tsv is a mutation a named test must
# catch: file, exact search string, replacement, and the `cargo test`
# arguments expected to go red. Each row is applied alone to a scratch
# copy of the tree (target/mutants/tree, rebuilt into
# target/mutants/target; both ignored). Fails if a row's tests fail
# without its mutation, on a search string that does not match exactly
# once, on a mutant that does not compile, and on a surviving mutant.
# A debug build, so the debug oracles can be what goes red; a test run
# cut off after 15 minutes counts as red. Weekly in CI, and on request
# only.
stage_mutants() {
    local copy=target/mutants/tree
    local file search replace args text after n=0
    # The build goes too: tar keeps the sources' old mtimes, so cargo
    # would take the last run's build of its last mutant as current.
    rm -rf target/mutants
    mkdir -p "$copy"
    tar -cf - --exclude=./target --exclude=./.git --exclude=./benchmark/target \
        --exclude=./benchmark/out . | tar -xf - -C "$copy"
    # $args is word-split on purpose: it is a cargo argument list.
    # shellcheck disable=SC2086
    while IFS=$'\t' read -r file search replace args; do
        [[ -z "$file" || "$file" == \#* ]] && continue
        if ! (cd "$copy" && CARGO_TARGET_DIR=../target cargo test -q --offline $args \
            >/dev/null 2>&1); then
            echo "cargo test $args fails without any mutation" >&2
            return 1
        fi
    done < <(sort -t $'\t' -k4,4 -u scripts/mutants.tsv)
    while IFS=$'\t' read -r file search replace args; do
        [[ -z "$file" || "$file" == \#* ]] && continue
        n=$((n + 1))
        search=$(printf '%b' "$search")
        replace=$(printf '%b' "$replace")
        text=$(<"$file")
        after=${text#*"$search"}
        if [[ "$after" == "$text" || "$after" == *"$search"* ]]; then
            echo "mutant $n: its search string must match $file exactly once" >&2
            return 1
        fi
        printf '%s\n' "${text/"$search"/"$replace"}" >"$copy/$file"
        echo "--> mutant $n: $file; cargo test $args"
        # shellcheck disable=SC2086
        if ! (cd "$copy" && CARGO_TARGET_DIR=../target cargo test -q --offline --no-run $args \
            >/dev/null 2>&1); then
            echo "mutant $n does not compile" >&2
            return 1
        fi
        # shellcheck disable=SC2086
        if (cd "$copy" && CARGO_TARGET_DIR=../target timeout 900 cargo test -q --offline $args \
            >/dev/null 2>&1); then
            echo "mutant $n survived: cargo test $args passes with it" >&2
            return 1
        fi
        cp "$file" "$copy/$file"
    done <scripts/mutants.tsv
    echo "all $n mutants red"
}

run_stage fmt stage_fmt
run_stage build stage_build
run_stage test stage_test
run_stage clippy stage_clippy
run_stage doc stage_doc
run_stage examples stage_examples
run_stage campaign_smoke stage_campaign_smoke
run_stage results_gate stage_results_gate
run_stage results_drift stage_results_drift
run_stage benchmark_lock stage_benchmark_lock
run_stage benchmark_smoke stage_benchmark_smoke
run_stage determinism stage_determinism
run_stage simd_off stage_simd_off
run_stage mutants stage_mutants

if [[ "$STAGES_RUN" -eq 0 ]]; then
    echo "no stage named '$STAGE_FILTER' (stages: ${STAGE_NAMES[*]})" >&2
    exit 1
fi
echo "tier-1 verify: OK ($STAGES_RUN stages)"
