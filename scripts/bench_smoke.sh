#!/usr/bin/env bash
# Quick benchmark smoke: formatting and lint gates, then the synthesizer
# criterion bench in --quick mode at ARCHYTAS_THREADS=1 and =4 (its `nd`
# stripes fan out over the pool) and the solver-iteration and
# accelerator-simulation benches once (their kernels are serial). The
# BENCHJSON lines the vendored criterion harness emits go to BENCH_par.json;
# the solver-path records (every `solver/*` case plus the accelerator's
# `f32_functional_solve`) are also extracted into BENCH_solver.json. The
# synthesizer's SYNTHJSON search counters (candidates examined/pruned) go to
# BENCH_par.json's `synth_search` section.
#
# Then the serving smoke (scripts/serve_smoke.sh --quick, which writes
# BENCH_serve.jsonl and runs every serving gate) and the baseline
# regression gate (scripts/perf_gate.sh) over all three files.
#
# Usage: scripts/bench_smoke.sh [output.json] [solver-output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_par.json}"
SOLVER_OUT="${2:-BENCH_solver.json}"
BENCHES=(synthesizer solver_iteration accel_sim)
TMP="$(mktemp)"
PERF_TMP="$(mktemp)"
SYNTH_TMP="$(mktemp)"
trap 'rm -f "$TMP" "$PERF_TMP" "$SYNTH_TMP"' EXIT

# Formatting gate: the whole workspace must be rustfmt-clean before any
# benchmark time is spent.
echo "checking formatting (cargo fmt --check)..." >&2
cargo fmt --check

# Lint gate: every workspace crate, across all build targets, at zero
# warnings.
echo "linting (cargo clippy)..." >&2
cargo clippy -q --workspace --all-targets -- -D warnings

echo "building benches (release)..." >&2
cargo build -q --release -p archytas-bench --benches

# Thread counts innermost so each bench's 1-thread and 4-thread runs are
# adjacent in time: back-to-back runs share machine state (load, thermals)
# far better than sweeps that are minutes apart. Only the synthesizer has
# a parallel path, so only it runs at 4 threads.
for bench in "${BENCHES[@]}"; do
    if [ "$bench" = synthesizer ]; then THREAD_COUNTS=(1 4); else THREAD_COUNTS=(1); fi
    for threads in "${THREAD_COUNTS[@]}"; do
        echo "running $bench (ARCHYTAS_THREADS=$threads, --quick)..." >&2
        RAW="$(ARCHYTAS_THREADS="$threads" \
            cargo bench -q -p archytas-bench --bench "$bench" -- --quick)"
        sed -n "s/^BENCHJSON /{\"threads\":$threads,\"bench\":\"$bench\",\"result\":/p" \
            <<<"$RAW" | sed 's/$/}/' >> "$TMP"
        # Per-phase perf-counter attribution (assembly vs factorization vs
        # back-substitution ...), emitted by bench bins that enable the
        # archytas-par counters.
        sed -n "s/^PERFJSON /{\"threads\":$threads,\"bench\":\"$bench\",\"counters\":/p" \
            <<<"$RAW" | sed 's/$/}/' >> "$PERF_TMP"
        # Design-space search counters (candidates examined/pruned), emitted
        # by the synthesizer bench per case.
        sed -n "s/^SYNTHJSON /{\"threads\":$threads,\"bench\":\"$bench\",\"search\":/p" \
            <<<"$RAW" | sed 's/$/}/' >> "$SYNTH_TMP"
    done
done

# Assemble a single JSON document: one record per (threads, bench, case),
# plus the per-phase counter attribution for benches that report it.
{
    echo '{"schema":"archytas-bench-smoke-v1","records":['
    paste -sd, - < "$TMP"
    echo '],"perf_phases":['
    paste -sd, - < "$PERF_TMP"
    echo '],"synth_search":['
    paste -sd, - < "$SYNTH_TMP"
    echo ']}'
} > "$OUT"

count="$(wc -l < "$TMP")"
echo "wrote $OUT ($count records)" >&2

# Solver extract: the criterion records are one JSON object per line.
{
    echo '{"schema":"archytas-bench-solver-v1","records":['
    grep -E '"name":"(solver/|[^"]*f32_functional_solve")' "$TMP" | paste -sd, -
    echo ']}'
} > "$SOLVER_OUT"
echo "wrote $SOLVER_OUT" >&2

scripts/serve_smoke.sh --quick
scripts/perf_gate.sh "$SOLVER_OUT" "$OUT" BENCH_serve.jsonl
