#!/usr/bin/env bash
# The repo's CI gate, runnable locally: formatting, lints (warnings are
# errors), the full test suite, and the hymv-check analysis passes.
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

stage "envelope-overhead bench guard (wall-clock ratio, kept out of the deterministic test suite)"
cargo test -q --release -- --ignored envelope_overhead

stage "hymv-check analysis passes"
cargo run -q -p hymv-check --bin hymv-check -- --n 4 --p 4 --method rcb --seeds 8

stage "hymv-check batched-path determinism (B=8)"
cargo run -q -p hymv-check --bin hymv-check -- --n 4 --p 4 --method rcb --seeds 8 --batch 8

stage "hymv-check multivector SpMM determinism (B=8, nvec=8)"
cargo run -q -p hymv-check --bin hymv-check -- --n 4 --p 3 --method greedy --seeds 8 --batch 8 --nvec 8

stage "hymv-verify static passes (model check, alias proof, lint)"
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

stage "hymv-verify effects (interprocedural phase effects, kernel bounds proofs, slab contract, collective order)"
cargo run -q -p hymv-verify --bin hymv-verify -- effects

stage "hymv-verify collective-order pass (standalone)"
cargo run -q -p hymv-verify --bin hymv-verify -- collectives

stage "sanitize feature: la/core test suites with checked SIMD lane access"
cargo test -q -p hymv-la --features sanitize
cargo test -q -p hymv-core --features hymv-la/sanitize
# Again optimised: the unrolled emv_batch instantiations only exist there,
# and release is where the debug_assert! preconditions the bounds proofs
# rest on are compiled out, so the checked lanes are all that is left.
cargo test -q --release -p hymv-la --features sanitize

stage "hymv-chaos smoke sweep (recoverable faults heal bitwise; crash aborts typed)"
cargo run -q --release -p hymv-check --bin hymv-chaos -- \
    --n 3 --p 2 --seeds 2 --scenarios drop,corrupt,crash

stage "hymv-lflr crash-recovery gate (armed crashes heal bitwise at p=8 and p=32; <60s budget)"
lflr_start=$SECONDS
cargo run -q --release -p hymv-check --bin hymv-lflr -- --n 3 --p 8 --seeds 2
cargo run -q --release -p hymv-check --bin hymv-lflr -- \
    --n 4 --p 32 --seeds 1 --windows allreduce,block-refresh --drivers cg,service
lflr_dur=$((SECONDS - lflr_start))
test "$lflr_dur" -lt 60 || {
    echo "crash-recovery gate took ${lflr_dur}s (budget 60s)"
    exit 1
}

stage "perf benchmark smoke + unit tests (BENCHMARK.json's runner builds against the workspace's public API)"
cargo run --release --offline --manifest-path perf/Cargo.toml -- --smoke
cargo test --offline --manifest-path perf/Cargo.toml

stage "emv_batch bench smoke"
HYMV_BENCH_SMOKE=1 cargo bench -q -p hymv-bench --bench emv_batch
cargo run -q --release -p hymv-bench --bin bench_emv_batch -- --smoke

stage "emv_multivec (SpMM + solve-service) bench smoke"
cargo run -q --release -p hymv-bench --bin bench_emv_multivec -- --smoke

stage "hymv-prof traced-solve smoke (12^3 Poisson, 4 ranks, 8 seeds, live snapshot file)"
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
    HYMV_FAULT_CRASH_RANK=3 HYMV_FAULT_CRASH_AFTER=10 \
    cargo run -q --release -p hymv-prof -- --n 6 --p 4 --seeds 1 \
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
