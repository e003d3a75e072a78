#!/usr/bin/env bash
# Absolute performance gate over the committed bench baselines.
#
# Stage 1 — solver: compares a freshly generated BENCH_solver.json against
# the checked-in baseline and fails (non-zero exit) when any bench case
# regressed beyond the tolerance (default 1.15x per bench mean, override
# with PERF_GATE_TOLERANCE).
#
# Stage 2 — synthesizer: compares the `synthesizer/*` records of a freshly
# generated BENCH_par.json against the committed copy under the same
# tolerance (only the synthesizer records — the solver records in that file
# are already gated through BENCH_solver.json), and additionally enforces
# the re-synthesis latency ceilings the fleet re-optimization path relies
# on (1-thread means):
#   - cold virtex7 scaled-lattice sweep   <= 60 ms
#   - SynthCache hit                      <= 10 us
#
# Stage 3 — fleet_scaling: compares the `scaling` sweep and `admission`
# record of a freshly generated BENCH_fleet.json (from fleet_smoke.sh)
# against the committed copy. Throughput regressions are classified per
# sweep point (workers x sessions) under FLEET_TOLERANCE (default 1.30 —
# whole-fleet wall clock is noisier than a criterion mean); admission cost
# is gated both relatively (admit ns under FLEET_TOLERANCE, idle bytes
# under 1.10x — allocation sizes are near-deterministic) and absolutely
# (idle bytes < 10% of the former private per-session cost).
#
# Baselines default to the committed copies (git HEAD) — bench_smoke.sh
# overwrites the working-tree files in place, so the committed copies are
# the only durable reference points. Pass explicit baseline paths to
# compare against something else. Pass "-" as a fresh path to skip that
# stage entirely (bench_smoke.sh gates the fleet file in a separate
# invocation because fleet_smoke.sh runs after the solver gates).
#
# Thread handling: 1-thread/1-worker records are always gated (they are
# meaningful on any machine); N-thread records are gated only on machines
# with >=N CPUs, where their scheduling is real rather than timeslicing
# noise.
#
# Usage: scripts/perf_gate.sh [fresh_solver.json] [baseline_solver.json] \
#                             [fresh_par.json] [baseline_par.json] \
#                             [fresh_fleet.json] [baseline_fleet.json]
set -euo pipefail

cd "$(dirname "$0")/.."
FRESH="${1:-BENCH_solver.json}"
BASELINE="${2:-}"
PAR_FRESH="${3:-BENCH_par.json}"
PAR_BASELINE="${4:-}"
FLEET_FRESH="${5:-BENCH_fleet.json}"
FLEET_BASELINE="${6:-}"
TOLERANCE="${PERF_GATE_TOLERANCE:-1.15}"
FLEET_TOL="${FLEET_TOLERANCE:-1.30}"
CPUS="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"

SOLVER_BASE_TMP=""
PAR_BASE_TMP=""
FLEET_BASE_TMP=""
cleanup() { rm -f "$SOLVER_BASE_TMP" "$PAR_BASE_TMP" "$FLEET_BASE_TMP"; }
trap cleanup EXIT

if [ "$FRESH" = "-" ]; then
    BASELINE=""
elif [ -z "$BASELINE" ]; then
    SOLVER_BASE_TMP="$(mktemp)"
    if git show HEAD:BENCH_solver.json > "$SOLVER_BASE_TMP" 2>/dev/null; then
        BASELINE="$SOLVER_BASE_TMP"
    else
        echo "perf gate (solver) SKIPPED: no committed BENCH_solver.json to baseline against" >&2
        BASELINE=""
    fi
fi

if [ "$PAR_FRESH" = "-" ]; then
    PAR_BASELINE=""
elif [ -z "$PAR_BASELINE" ]; then
    PAR_BASE_TMP="$(mktemp)"
    if git show HEAD:BENCH_par.json > "$PAR_BASE_TMP" 2>/dev/null; then
        PAR_BASELINE="$PAR_BASE_TMP"
    else
        echo "perf gate (synthesizer) relative check limited: no committed BENCH_par.json baseline" >&2
        PAR_BASELINE=""
    fi
fi

if [ -n "$BASELINE" ]; then
python3 - "$FRESH" "$BASELINE" "$TOLERANCE" "$CPUS" <<'PY'
import json
import sys

fresh_path, base_path, tol, cpus = (
    sys.argv[1], sys.argv[2], float(sys.argv[3]), int(sys.argv[4]))

def index(path):
    doc = json.load(open(path))
    return {
        (r["result"]["name"], r["threads"]): r["result"]["mean_ns"]
        for r in doc["records"]
    }

fresh = index(fresh_path)
base = index(base_path)

def phase(name):
    """Maps a record to the solver phase it measures, so a failure names
    the part of the pipeline that regressed rather than just a bench case."""
    case = name.split("/", 1)[-1]
    if "build" in case:
        return "assembly"
    if "kernel_" in case:
        return "micro-kernels"
    if "solve" in case:
        return "linear-solve"
    return "end-to-end"

failures = {}
compared = 0
for (name, threads), mean in sorted(fresh.items()):
    ref = base.get((name, threads))
    if ref is None or ref <= 0.0:
        print(f"  new   [{phase(name)}] {name} ({threads}t): "
              f"{mean / 1e6:.3f} ms (no baseline record)", file=sys.stderr)
        continue
    ratio = mean / ref
    gated = threads == 1 or cpus >= 4
    compared += gated
    status = "FAIL" if (gated and ratio > tol) else ("info" if not gated else "ok")
    print(f"  {status:<4}  [{phase(name)}] {name} ({threads}t): "
          f"fresh/baseline = {ratio:.3f} "
          f"({mean / 1e6:.3f} ms vs {ref / 1e6:.3f} ms)", file=sys.stderr)
    if gated and ratio > tol:
        failures.setdefault(phase(name), []).append(f"{name} ({threads}t)")

if compared == 0:
    print("perf gate (solver) SKIPPED: no comparable records between fresh "
          "and baseline", file=sys.stderr)
    sys.exit(0)
if failures:
    for ph in sorted(failures):
        print(f"perf gate: {ph} phase regressed: {', '.join(failures[ph])}",
              file=sys.stderr)
    print(f"perf gate (solver) FAILED (tolerance {tol:.2f}x) in phase(s): "
          f"{', '.join(sorted(failures))}", file=sys.stderr)
    sys.exit(1)
print(f"perf gate (solver) passed ({compared} record(s) within {tol:.2f}x "
      f"of the committed baseline)", file=sys.stderr)
PY
fi

# Stage 2: synthesizer records (design-space search latencies).
if [ "$PAR_FRESH" = "-" ]; then
    : # stage explicitly skipped by caller
elif [ ! -f "$PAR_FRESH" ]; then
    echo "perf gate (synthesizer) SKIPPED: $PAR_FRESH not found" >&2
else
python3 - "$PAR_FRESH" "${PAR_BASELINE:-/dev/null}" "$TOLERANCE" "$CPUS" <<'PY'
import json
import sys

fresh_path, base_path, tol, cpus = (
    sys.argv[1], sys.argv[2], float(sys.argv[3]), int(sys.argv[4]))

def index(path):
    try:
        doc = json.load(open(path))
    except (OSError, json.JSONDecodeError):
        return {}
    return {
        (r["result"]["name"], r["threads"]): r["result"]["mean_ns"]
        for r in doc.get("records", [])
        if r["result"]["name"].startswith("synthesizer/")
    }

fresh = index(fresh_path)
base = index(base_path)

if not fresh:
    print("perf gate (synthesizer) SKIPPED: no synthesizer records in "
          f"{fresh_path}", file=sys.stderr)
    sys.exit(0)

def phase(name):
    """Maps a synthesizer record to the search path it measures."""
    case = name.split("/", 1)[-1]
    if "cache" in case:
        return "cache"
    return "cold-sweep"

# Absolute ceilings (ns, 1-thread) for the fleet re-optimization path: a
# dynamic re-synthesis tick must fit inside a serving quantum, so these are
# hard latency budgets rather than relative drift checks.
CEILINGS_NS = {
    "synthesizer/virtex7_min_latency_scaled_lattice": 60e6,
    "synthesizer/synth_cache_hit": 10e3,
}

failures = {}
compared = 0

for (name, threads), mean in sorted(fresh.items()):
    ref = base.get((name, threads))
    gated = threads == 1 or cpus >= 4
    if ref is None or ref <= 0.0:
        print(f"  new   [{phase(name)}] {name} ({threads}t): "
              f"{mean / 1e6:.3f} ms (no baseline record)", file=sys.stderr)
    else:
        ratio = mean / ref
        compared += gated
        status = "FAIL" if (gated and ratio > tol) else ("info" if not gated else "ok")
        print(f"  {status:<4}  [{phase(name)}] {name} ({threads}t): "
              f"fresh/baseline = {ratio:.3f} "
              f"({mean / 1e6:.3f} ms vs {ref / 1e6:.3f} ms)", file=sys.stderr)
        if gated and ratio > tol:
            failures.setdefault(phase(name), []).append(f"{name} ({threads}t)")

for name, ceiling in sorted(CEILINGS_NS.items()):
    mean = fresh.get((name, 1))
    if mean is None:
        failures.setdefault(phase(name), []).append(f"{name} (1t record missing)")
        print(f"  FAIL  [{phase(name)}] {name} (1t): ceiling record missing "
              f"from {fresh_path}", file=sys.stderr)
        continue
    compared += 1
    status = "FAIL" if mean > ceiling else "ok"
    print(f"  {status:<4}  [{phase(name)}] {name} (1t): "
          f"{mean / 1e6:.4f} ms vs absolute ceiling {ceiling / 1e6:.4f} ms",
          file=sys.stderr)
    if mean > ceiling:
        failures.setdefault(phase(name), []).append(f"{name} (ceiling)")

if failures:
    for ph in sorted(failures):
        print(f"perf gate: {ph} phase regressed: {', '.join(failures[ph])}",
              file=sys.stderr)
    print(f"perf gate (synthesizer) FAILED (tolerance {tol:.2f}x + absolute "
          f"ceilings) in phase(s): {', '.join(sorted(failures))}",
          file=sys.stderr)
    sys.exit(1)
print(f"perf gate (synthesizer) passed ({compared} check(s): relative "
      f"within {tol:.2f}x, ceilings met)", file=sys.stderr)
PY
fi

# Stage 3: fleet scaling sweep + admission cost (serving-layer capacity).
if [ "$FLEET_FRESH" = "-" ]; then
    exit 0
fi
if [ ! -f "$FLEET_FRESH" ]; then
    echo "perf gate (fleet_scaling) SKIPPED: $FLEET_FRESH not found" >&2
    exit 0
fi
if [ -z "$FLEET_BASELINE" ]; then
    FLEET_BASE_TMP="$(mktemp)"
    if git show HEAD:BENCH_fleet.json > "$FLEET_BASE_TMP" 2>/dev/null; then
        FLEET_BASELINE="$FLEET_BASE_TMP"
    else
        echo "perf gate (fleet_scaling) relative check limited: no committed BENCH_fleet.json baseline" >&2
        FLEET_BASELINE=""
    fi
fi
python3 - "$FLEET_FRESH" "${FLEET_BASELINE:-/dev/null}" "$FLEET_TOL" "$CPUS" <<'PY'
import json
import sys

fresh_path, base_path, tol, cpus = (
    sys.argv[1], sys.argv[2], float(sys.argv[3]), int(sys.argv[4]))

def load(path):
    try:
        return json.load(open(path))
    except (OSError, json.JSONDecodeError):
        return {}

fresh = load(fresh_path)
base = load(base_path)

def sweep(doc):
    """Index a BENCH_fleet.json scaling sweep by (workers, sessions). A
    v1 document (pre-sweep schema) indexes empty, so every fresh point
    reads as new rather than crashing the gate."""
    return {
        (p["workers"], p["sessions"]): p
        for p in doc.get("scaling", [])
    }

fresh_pts = sweep(fresh)
base_pts = sweep(base)

if not fresh_pts:
    print(f"perf gate (fleet_scaling) SKIPPED: no scaling sweep in "
          f"{fresh_path}", file=sys.stderr)
    sys.exit(0)

failures = []
compared = 0
for (w, s), point in sorted(fresh_pts.items()):
    ref = base_pts.get((w, s))
    label = f"{w}w x {s} sessions"
    if ref is None or ref.get("throughput_fps", 0.0) <= 0.0:
        print(f"  new   [fleet_scaling] {label}: "
              f"{point['throughput_fps']:.1f} fps (no baseline point)",
              file=sys.stderr)
        continue
    # Regression = fresh throughput fell below baseline/tolerance. Gate
    # mirrors the thread handling above: multi-worker points only count
    # on machines with that much real parallelism.
    ratio = ref["throughput_fps"] / point["throughput_fps"]
    gated = w == 1 or cpus >= w
    compared += gated
    status = "FAIL" if (gated and ratio > tol) else ("info" if not gated else "ok")
    print(f"  {status:<4}  [fleet_scaling] {label}: baseline/fresh = "
          f"{ratio:.3f} ({ref['throughput_fps']:.1f} fps vs "
          f"{point['throughput_fps']:.1f} fps)", file=sys.stderr)
    if gated and ratio > tol:
        failures.append(f"{label} throughput ({ratio:.2f}x slower)")

adm = fresh.get("admission")
if adm:
    ref = base.get("admission")
    if ref:
        checks = [
            ("admit_ns_per_session", tol, "admission latency"),
            # Heap layout is near-deterministic; drift means new
            # per-session state, not timing noise.
            ("idle_bytes_per_session", 1.10, "idle resident bytes"),
        ]
        for key, ceiling, what in checks:
            if ref.get(key, 0) <= 0:
                continue
            ratio = adm[key] / ref[key]
            compared += 1
            status = "FAIL" if ratio > ceiling else "ok"
            print(f"  {status:<4}  [admission] {what}: fresh/baseline = "
                  f"{ratio:.3f} ({adm[key]} vs {ref[key]}, "
                  f"ceiling {ceiling:.2f}x)", file=sys.stderr)
            if ratio > ceiling:
                failures.append(f"admission {what} ({ratio:.2f}x)")
    else:
        print(f"  new   [admission] no baseline admission record",
              file=sys.stderr)
    # Absolute bound, independent of any baseline: the pooled layer's
    # whole point is that an admitted-idle session costs a sliver of the
    # former private RuntimeSystem + accelerator + workspace stack.
    compared += 1
    pct = adm["ratio_pct"]
    status = "FAIL" if pct >= 10.0 else "ok"
    print(f"  {status:<4}  [admission] idle/former = {pct:.2f}% "
          f"(absolute ceiling 10%)", file=sys.stderr)
    if pct >= 10.0:
        failures.append(f"admission idle/former {pct:.2f}% >= 10%")

if compared == 0:
    print("perf gate (fleet_scaling) SKIPPED: no comparable points between "
          "fresh and baseline", file=sys.stderr)
    sys.exit(0)
if failures:
    print(f"perf gate (fleet_scaling) FAILED (tolerance {tol:.2f}x): "
          f"{'; '.join(failures)}", file=sys.stderr)
    sys.exit(1)
print(f"perf gate (fleet_scaling) passed ({compared} check(s) within "
      f"{tol:.2f}x of the committed sweep)", file=sys.stderr)
PY
