#!/usr/bin/env bash
# Alternating A/B of the standalone benchmark: a parent revision against the
# working tree, on one workload and seed, at BENCHMARK.json's run length.
#
# The benchmark is built twice: at REV from `git archive` into a temporary
# directory (its own target dir, removed on exit), and at the working tree
# (target dir .bench_build, as bench_smoke.sh uses). Each side builds and
# runs from its own root, so each picks up its own .cargo/config.toml.
# benchmark/Cargo.lock is put back afterwards.
#
# PAIRS pairs are run, alternating which side goes first. The script
# prints each pair, then per end-to-end metric of BENCHMARK.json each
# side's median and quartiles and the change's wins (direction from
# `better`, ties count for neither side), and two verdicts:
#   claim:  the change wins at least 9/10 of the pairs and the medians
#           differ, in its favour, by more than the parent's interquartile
#           distance;
#   bound:  the change's median is no worse than the parent's by more than
#           the metric's `bound` (relative). `unresolved` when the parent's
#           own interquartile distance is wider than the bound, unless every
#           change run beats every parent run.
# A run that reports `"correct": false`, `"failed"` above 0, or no result
# line stops the script with exit status 1.
#
# Usage: scripts/ab_bench.sh REV WORKLOAD [SEED] [PAIRS]
#          SEED defaults to 1, PAIRS to 10
#        scripts/ab_bench.sh --self-check
#          runs the summary and its refusals on a fixture
set -euo pipefail

cd "$(dirname "$0")/.."

analyze() {
    python3 - "$@" <<'PY'
import json
import statistics
import subprocess
import sys

CONTRACT = json.load(open("BENCHMARK.json"))


def result(line, who):
    """The result object of one run's last stdout line; exits on a run that
    failed or whose outputs differ from the references."""
    try:
        res = json.loads(line)
    except ValueError:
        sys.exit(f"ab_bench: {who}: no result line: {line[:200]!r}")
    if res.get("correct") is not True or res.get("failed", 1) != 0:
        sys.exit(f"ab_bench: {who}: correct={res.get('correct')} failed={res.get('failed')}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(xs):
    """(lower quartile, median, upper quartile)."""
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def summarize(pairs):
    """Summary lines and the `bound` breaches for `pairs`, a list of
    (parent, change) metric dicts."""
    lines, breaches = [], []
    for m in CONTRACT["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "higher" else -1
        a = [p[name] for p, _ in pairs]
        b = [c[name] for _, c in pairs]
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        gap, spread = sign * (bm - am), a3 - a1
        claim = "met" if wins * 10 >= 9 * len(pairs) and gap > spread else "not met"
        if -gap > bound * abs(am):
            verdict = f"REGRESSION beyond {bound:.0%}"
            breaches.append(name)
        elif spread > bound * abs(am) and not all(sign * (y - x) > 0 for x in a for y in b):
            verdict = f"unresolved (parent spread wider than {bound:.0%})"
        else:
            verdict = f"within {bound:.0%}"
        rel = gap / abs(am) if am else float("nan")
        lines.append(
            f"{name:<10} parent {am:.6g} [{a1:.6g}, {a3:.6g}]  change {bm:.6g} "
            f"[{b1:.6g}, {b3:.6g}]  better by {rel:+.1%}  wins {wins}/{len(pairs)}  "
            f"claim {claim}  bound {verdict}")
    return lines, breaches


def run(side, binary, root, args):
    proc = subprocess.run([binary, *args], cwd=root, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    return result(last[0], f"{side} run (exit {proc.returncode})")


def self_check():
    def rec(ops, p50, setup, correct=True, failed=0):
        metrics = {"ops_per_s": ops, "op_p50_ms": p50, "setup_s": setup}
        return json.dumps({"correct": correct, "attempted": 10, "failed": failed,
                           "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}})
    parent = [result(rec(100 + i, 2.0, 0.020), "parent") for i in range(10)]
    faster = [result(rec(130 + i, 1.9, 0.021), "change") for i in range(10)]
    lines, breaches = summarize(list(zip(parent, faster)))
    assert breaches == [], breaches
    assert "wins 10/10  claim met  bound within" in lines[0], lines[0]
    assert "wins 10/10  claim met  bound within" in lines[1], lines[1]
    assert "wins 0/10  claim not met  bound within" in lines[2], lines[2]
    # One lost pair in ten still meets the 9/10 rule; two do not.
    for lost, want in ((1, "claim met"), (2, "claim not met")):
        mixed = faster[:10 - lost] + parent[10 - lost:]
        assert want in summarize(list(zip(parent, mixed)))[0][0], (lost, want)
    slower = [result(rec(70, 2.6, 0.020), "change") for _ in range(10)]
    lines, breaches = summarize(list(zip(parent, slower)))
    assert breaches == ["ops_per_s", "op_p50_ms"], breaches
    noisy = [result(rec(x, 2.0, 0.020), "parent") for x in (60, 140) * 5]
    assert "unresolved" in summarize(list(zip(noisy, parent)))[0][0]
    for bad in (rec(100, 2.0, 0.02, correct=False), rec(100, 2.0, 0.02, failed=1), "run ok"):
        try:
            result(bad, "fixture")
        except SystemExit:
            continue
        raise AssertionError(f"accepted a failed run: {bad}")
    print("ab_bench self-check passed", file=sys.stderr)


if sys.argv[1:] == ["--self-check"]:
    self_check()
    sys.exit(0)
base_bin, base_root, head_bin, workload, seed, n_pairs = sys.argv[1:]
args = ["--workload", workload, "--seed", seed, "--seconds", str(CONTRACT["run_seconds"])]
print(f"ab_bench: {workload} seed {seed}, {n_pairs} pairs at {CONTRACT['run_seconds']} s",
      file=sys.stderr)
pairs = []
for i in range(int(n_pairs)):
    order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
    got = {}
    for side in order:
        got[side] = (run(side, base_bin, base_root, args) if side == "parent"
                     else run(side, head_bin, ".", args))
    pairs.append((got["parent"], got["change"]))
    shown = "  ".join(f"{m['name']} {got['parent'][m['name']]:.6g} -> "
                      f"{got['change'][m['name']]:.6g}" for m in CONTRACT["end_to_end"])
    print(f"pair {i + 1} ({order[0]} first): {shown}", flush=True)
lines, _ = summarize(pairs)
print("\n".join(lines))
PY
}

if [[ "${1:-}" == "--self-check" ]]; then
    analyze --self-check
    exit 0
fi
if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: scripts/ab_bench.sh REV WORKLOAD [SEED] [PAIRS] | --self-check" >&2
    exit 2
fi
REV="$1" WORKLOAD="$2" SEED="${3:-1}" PAIRS="${4:-10}"

TMP="$(mktemp -d)"
LOCK_BACKUP="$TMP/Cargo.lock"
cp benchmark/Cargo.lock "$LOCK_BACKUP"
trap 'cp "$LOCK_BACKUP" benchmark/Cargo.lock; rm -rf "$TMP"' EXIT

build() { # ROOT TARGET_DIR
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build -q --release --offline \
        --manifest-path benchmark/Cargo.toml)
}
echo "building the benchmark at $REV..." >&2
mkdir "$TMP/parent"
git archive "$REV" | tar -x -C "$TMP/parent"
build "$TMP/parent" "$TMP/target"
echo "building the benchmark at the working tree..." >&2
build . "$PWD/.bench_build"

analyze "$TMP/target/release/archytas-benchmark" "$TMP/parent" \
    .bench_build/release/archytas-benchmark "$WORKLOAD" "$SEED" "$PAIRS"
