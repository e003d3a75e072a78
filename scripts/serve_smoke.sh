#!/usr/bin/env bash
# Serving smoke: builds the `serve` and `session_admit_cost` bins once, runs
# every serve mode plus the admission bench, and writes their bare REC
# payloads to one JSON-lines file (BENCH_serve.jsonl).
#
# Every gate runs inside the bins and fails this script through their exit
# status: det byte-compares across pool sizes (batch, obs, chaos), the obs
# envelope checks, the chaos and soak serial-alone contracts, the per-point
# sweep efficiency verdicts, the 3x-nominal fault RMSE bound and the 10%
# admitted-idle byte ceiling. The fault matrix runs twice here and the two
# outputs must be byte-identical: a run-to-run check.
#
# Usage: scripts/serve_smoke.sh [--quick] [output.jsonl]
#   --quick  trims the sweep to {1,4} workers x {8,64} sessions
set -euo pipefail

cd "$(dirname "$0")/.."
QUICK=""
if [ "${1:-}" = --quick ]; then
    QUICK=--quick
    shift
fi
OUT="${1:-BENCH_serve.jsonl}"
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

echo "building serve + session_admit_cost (release)..." >&2
cargo build -q --release -p archytas-bench --bin serve --bin session_admit_cost

for mode in batch obs chaos sweep soak; do
    echo "serve $mode $QUICK..." >&2
    ./target/release/serve "$mode" $QUICK > "$TMP_DIR/$mode.txt"
done

for run in a b; do
    echo "serve faults (run $run)..." >&2
    ./target/release/serve faults > "$TMP_DIR/faults_$run.txt"
done
if ! cmp "$TMP_DIR/faults_a.txt" "$TMP_DIR/faults_b.txt" >&2; then
    echo "fault matrix determinism gate FAILED: two runs of the same matrix differ" >&2
    exit 1
fi

echo "session_admit_cost..." >&2
./target/release/session_admit_cost > "$TMP_DIR/admit.txt"

cat "$TMP_DIR"/{batch,obs,chaos,sweep,soak,faults_a,admit}.txt | sed -n 's/^REC //p' > "$OUT"
echo "wrote $OUT ($(wc -l < "$OUT") records); all serve gates passed" >&2
