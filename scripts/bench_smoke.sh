#!/usr/bin/env bash
# Quick benchmark smoke: formatting and lint gates, the standalone
# benchmark's unit tests, then the synthesizer criterion bench in --quick
# mode at ARCHYTAS_THREADS=1 and =4 (its `nd` stripes fan out over the
# pool) and the solver-iteration and
# accelerator-simulation benches once (their kernels are serial). Every
# bench prints `REC {"mode":"criterion",...}` lines: one `case` per
# benchmark, a `search` per synthesizer case and the solver bench's
# `phases`. Their bare payloads go to one JSON-lines file
# (BENCH_criterion.jsonl).
#
# Determinism gate: the synthesizer's `search` det payloads (the selected
# design) of the 1-thread and 4-thread runs must be byte-identical.
#
# Then the serving smoke (scripts/serve_smoke.sh --quick, which writes
# BENCH_serve.jsonl and runs every serving gate) and the baseline
# regression gate (scripts/perf_gate.sh) over both files.
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
mv "$LOCK_BACKUP" benchmark/Cargo.lock
trap - EXIT

echo "building benches (release)..." >&2
cargo build -q --release -p archytas-bench --benches

# Thread counts innermost so each bench's 1-thread and 4-thread runs are
# adjacent in time: back-to-back runs share machine state (load, thermals)
# far better than sweeps that are minutes apart. Only the synthesizer has
# a parallel path, so only it runs at 4 threads.
: > "$OUT"
for bench in "${BENCHES[@]}"; do
    if [ "$bench" = synthesizer ]; then THREAD_COUNTS=(1 4); else THREAD_COUNTS=(1); fi
    for threads in "${THREAD_COUNTS[@]}"; do
        echo "running $bench (ARCHYTAS_THREADS=$threads, --quick)..." >&2
        ARCHYTAS_THREADS="$threads" cargo bench -q -p archytas-bench --bench "$bench" -- --quick |
            sed -n 's/^REC //p' >> "$OUT"
    done
done
echo "wrote $OUT ($(wc -l < "$OUT") records)" >&2

# The det payload of every synthesizer `search` record at one pool size.
search_det() {
    sed -n "s/^{\"mode\":\"criterion\",\"kind\":\"search\",\"det\":\({[^}]*}\),\"timing\":{\"threads\":$1,.*/\1/p" "$OUT"
}
if [ "$(search_det 1 | wc -l)" -eq 0 ] || ! cmp <(search_det 1) <(search_det 4) >&2; then
    echo "synthesizer determinism gate FAILED: 1-thread and 4-thread designs differ" >&2
    exit 1
fi

scripts/serve_smoke.sh --quick
scripts/perf_gate.sh "$OUT" BENCH_serve.jsonl
