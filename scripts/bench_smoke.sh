#!/usr/bin/env bash
# Quick benchmark smoke: formatting, lint and rustdoc gates, the workspace
# tests, the quickstart (fails when its emitted Verilog does not
# elaborate), the standalone benchmark's unit tests, one traced fleet-steady run
# and one fleet-churn run of it (their "correct"/"failed" verdicts gate),
# then the synthesizer, solver-iteration and accelerator-simulation
# criterion benches in --quick mode at ARCHYTAS_THREADS=1 (no bench has a
# parallel path). Every bench prints `REC {"mode":"criterion",...}` lines:
# one `case` per benchmark, a `search` per synthesizer case and the solver
# bench's `phases`. Their bare payloads go to one JSON-lines file
# (BENCH_criterion.jsonl); perf_gate.sh byte-checks each `search` det
# payload (the selected design and the search counters) against the
# committed one.
#
# Precision oracle: every suite sequence at f32 and at f64, each family's
# |ΔRMSE| within its bound B (EXPERIMENTS.md Sec. 7.6). The robust oracle
# does the same at the fleet's Huber weights, over the suite and the fault
# matrix's standard (kitti-01) scenarios, against its bound B_r.
#
# Then the serving smoke (scripts/serve_smoke.sh --quick, which writes
# BENCH_serve.jsonl and runs every serving gate) and the baseline
# regression gate (scripts/perf_gate.sh) over both files, after the
# self-checks of the det re-freeze tool (scripts/refreeze_det.sh) and of
# the alternating A/B tool (scripts/ab_bench.sh).
#
# Usage: scripts/bench_smoke.sh [output.jsonl]
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_criterion.jsonl}"
BENCHES=(synthesizer solver_iteration accel_sim)

# Formatting gate: the whole workspace must be rustfmt-clean before any
# benchmark time is spent.
echo "checking formatting (cargo fmt --check)..." >&2
cargo fmt --check

# Lint gate: every workspace crate, across all build targets, at zero
# warnings.
echo "linting (cargo clippy)..." >&2
cargo clippy -q --workspace --all-targets -- -D warnings

# Rustdoc gate: the archytas-* crates' docs build at zero warnings, so a
# deletion cannot leave a stale intra-doc link behind. The vendored
# stand-ins (criterion, proptest, rand) are not documented.
echo "documenting (cargo doc)..." >&2
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace \
    --exclude criterion --exclude proptest --exclude rand

# Test gate: the workspace tests hold the bitwise contracts (kernel and
# block-vs-dense equivalence, fleet determinism, the frozen session digests,
# zero allocation after warmup), so they run before any timing.
echo "testing the workspace (cargo test, release)..." >&2
cargo test -q --workspace --release

# Generator gate: the quickstart generates a design and exits non-zero when
# elaborating its emitted Verilog reports an error.
echo "running the quickstart (generate + elaborate)..." >&2
cargo run -q --release --example quickstart > /dev/null

# Benchmark compile gate: benchmark/ is a workspace of its own, so neither
# gate above compiles it. Its unit tests include the catalog/BENCHMARK.json
# byte check. Cargo rewrites benchmark/Cargo.lock when a workspace crate's
# dependency list changed; the benchmark directory changes only on its
# own, so the committed lock is put back afterwards.
echo "testing the standalone benchmark (benchmark/)..." >&2
LOCK_BACKUP="$(mktemp)"
cp benchmark/Cargo.lock "$LOCK_BACKUP"
trap 'mv "$LOCK_BACKUP" benchmark/Cargo.lock' EXIT
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# Benchmark correctness gates: the last line of each run must report
# `"correct": true` and `"failed": 0`.
# - One traced fleet-steady run. Its correctness check replays every
#   session through the dense callback (`f32_linear_solver`) and compares
#   it with the served sessions, the only gate that holds that path to the
#   served bits on real fleet sessions.
# - One untraced fleet-churn run: 1,536 sessions on 48 routes, so each
#   route's frame stream is shared by 32 sessions per batch. Its check
#   compares every served session with `run_session_alone` (a private
#   stream), the only gate that holds shared-route sessions to their
#   serial-alone bits on the real churn mix.
bench_gate() {
    echo "running the standalone benchmark once ($*)..." >&2
    local last
    last="$(CARGO_TARGET_DIR=.bench_build cargo run -q --release --offline \
        --manifest-path benchmark/Cargo.toml -- "$@" --seed 7 --seconds 2 | tail -n 1)"
    if ! grep -q '"correct": true' <<<"$last" || ! grep -q '"failed": 0[,}]' <<<"$last"; then
        echo "benchmark correctness gate FAILED ($*): ${last:0:200}" >&2
        exit 1
    fi
}
bench_gate --workload fleet-steady --trace 1
bench_gate --workload fleet-churn --trace 0
mv "$LOCK_BACKUP" benchmark/Cargo.lock
trap - EXIT

echo "running the full-suite precision oracle (release)..." >&2
cargo test -q --release -p archytas-bench --lib -- --ignored precision_oracle_full_suite
echo "running the full robust oracle (release)..." >&2
cargo test -q --release -p archytas-bench --lib -- --ignored robust_oracle_full_suite

echo "building benches (release)..." >&2
cargo build -q --release -p archytas-bench --benches

: > "$OUT"
for bench in "${BENCHES[@]}"; do
    echo "running $bench (ARCHYTAS_THREADS=1, --quick)..." >&2
    ARCHYTAS_THREADS=1 cargo bench -q -p archytas-bench --bench "$bench" -- --quick |
        sed -n 's/^REC //p' >> "$OUT"
done
echo "wrote $OUT ($(wc -l < "$OUT") records)" >&2

scripts/serve_smoke.sh --quick
scripts/refreeze_det.sh --self-check
scripts/ab_bench.sh --self-check
scripts/perf_gate.sh "$OUT" BENCH_serve.jsonl
