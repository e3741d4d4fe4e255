#!/usr/bin/env bash
# The repo's CI gate, runnable locally: formatting, lints (warnings are
# errors), the full test suite, and the hymv-check certificate table.
set -euo pipefail
cd "$(dirname "$0")"

# Every stage is announced through `stage`, which also prints the wall
# seconds of the stage it closes; `stage_end` closes the last one and
# prints the total.
ci_start=$SECONDS
stage_name=
stage_start=0
stage_end() {
    if [ -n "$stage_name" ]; then
        echo "-- $((SECONDS - stage_start))s  $stage_name"
    fi
}
stage() {
    stage_end
    stage_name=$1
    stage_start=$SECONDS
    echo "== $1"
}

stage "cargo fmt --check"
cargo fmt --all --check

stage "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

stage "cargo test"
cargo test --workspace -q
# Again optimised: the element kernels' bitwise tests must also hold for
# the vectorised codegen of the lane-batched `Ke` bodies, and the EMV
# kernels' for the instantiations as they ship.
cargo test -q --release -p hymv-fem
cargo test -q --release -p hymv-la

stage "hymv-verify static passes (model check, block-plan index bounds, lint)"
cargo run -q -p hymv-verify --bin hymv-verify -- --n 4 --p 1,2,4,8
cargo run -q -p hymv-verify --bin hymv-verify -- --n 4 --p 1,2,4,8 --method greedy --skip-lint

stage "hymv-verify parameterized exchange proof at scale (p=64,512,1024; <30s budget)"
# Build outside the timed window: the budget asserts proof time, not
# compile time.
cargo build -q --release -p hymv-verify
param_start=$SECONDS
cargo run -q --release -p hymv-verify --bin hymv-verify -- \
    --n 16 --p 64,512,1024 --method rcb --skip-lint
param_dur=$((SECONDS - param_start))
test "$param_dur" -lt 30 || {
    echo "parameterized proof sweep took ${param_dur}s (budget 30s)"
    exit 1
}

stage "hymv-verify effects (interprocedural phase effects, collective order)"
cargo run -q -p hymv-verify --bin hymv-verify -- effects

stage "hymv-verify collective-order pass (standalone)"
cargo run -q -p hymv-verify --bin hymv-verify -- collectives

stage "hymv-check certificate table, release (schedule/thread, chaos, degraded-schedule rows; LFLR rows <60s budget)"
# One table, one runner: `hymv-check --list` prints every row. Schedule
# rows pin the protocol audit on, so release mode keeps it.
cargo run -q --release -p hymv-check --bin hymv-check -- --only sched,threads,chaos,degrade
lflr_start=$SECONDS
cargo run -q --release -p hymv-check --bin hymv-check -- --only lflr
lflr_dur=$((SECONDS - lflr_start))
test "$lflr_dur" -lt 60 || {
    echo "crash-recovery rows took ${lflr_dur}s (budget 60s)"
    exit 1
}

stage "perf benchmark smoke + unit tests (BENCHMARK.json's runner builds against the workspace's public API)"
cargo run --release --offline --manifest-path perf/Cargo.toml -- --smoke
cargo test --offline --manifest-path perf/Cargo.toml

stage "emv_multivec (SpMM + solve-service) bench smoke"
cargo run -q --release -p hymv-bench --bin bench_emv_multivec -- --smoke

stage "hymv-prof traced-solve smoke (12^3 Poisson, 4 ranks, 8 seeds, live snapshot file)"
# The live snapshot is published during the solve, before hymv-prof
# creates its output directory for the final artifacts.
mkdir -p target/experiments/prof
HYMV_OBS_FILE=target/experiments/prof/live.prom \
    cargo run -q --release -p hymv-prof -- --n 12 --p 4 --seeds 8 --out target/experiments/prof
for f in trace.json metrics.prom summary.json; do
    test -s "target/experiments/prof/$f" || { echo "missing artifact $f"; exit 1; }
done
# The analysis fields must be present with finite numeric values (the
# binary itself exits nonzero on non-finite analysis or a determinism
# violation; these greps guard the artifact schema).
grep -qE '"overlap_efficiency": [0-9.]+' target/experiments/prof/summary.json
grep -qE '"max_phase_imbalance": [0-9.]+' target/experiments/prof/summary.json
grep -q '^hymv_vt_seconds' target/experiments/prof/metrics.prom
grep -q '^# HELP hymv_' target/experiments/prof/metrics.prom
# The live snapshot-file transport (HYMV_OBS_FILE, the no-network CI
# fallback of the HTTP endpoint) must have published the registry.
test -s target/experiments/prof/live.prom || { echo "missing live snapshot"; exit 1; }
grep -q '^hymv_rank_utilization' target/experiments/prof/live.prom

stage "hymv-prof diff self-comparison smoke (identical artifacts, zero delta)"
cargo run -q --release -p hymv-prof -- diff \
    target/experiments/prof/summary.json target/experiments/prof/summary.json --threshold 0
cargo run -q --release -p hymv-prof -- diff \
    target/experiments/prof/metrics.prom target/experiments/prof/metrics.prom --threshold 0

stage "flight-recorder postmortem smoke (forced rank crash dumps a schema'd artifact)"
rm -f target/experiments/postmortem.json
HYMV_FLIGHT_OUT=target/experiments/postmortem.json \
    cargo run -q --release -p hymv-prof -- --n 6 --p 4 --seeds 1 --crash 3:10 \
    --out target/experiments/prof-crash >/dev/null 2>&1 || true
test -s target/experiments/postmortem.json || { echo "missing postmortem artifact"; exit 1; }
grep -q '"schema":"hymv-postmortem-v1"' target/experiments/postmortem.json
grep -q '"reason":"' target/experiments/postmortem.json
grep -q '"kind":"span"' target/experiments/postmortem.json
grep -qE '"kind":"(send|recv)"' target/experiments/postmortem.json

stage "serve SLO bench smoke (latency percentiles through the batched service)"
cargo run -q --release -p hymv-bench --bin bench_serve_slo -- --smoke

stage "trace_overhead bench smoke (disabled-path <3% + flight-recorder <2% guards)"
HYMV_BENCH_SMOKE=1 cargo bench -q -p hymv-bench --bench trace_overhead

stage_end
echo "CI green in $((SECONDS - ci_start))s"
