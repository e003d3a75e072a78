#!/usr/bin/env bash
# Baseline regression gate: compares fresh bench records against the copies
# committed at git HEAD (bench_smoke.sh overwrites the working-tree files,
# so the committed copies are the durable reference). Both sources are
# JSON-lines files of bare `REC` payloads, read by one parser; one compare
# loop runs every check:
#
#   phase(s)                       record                          limit
#   assembly, micro-kernels,       criterion `case` mean_ns of     1.15x baseline
#     linear-solve, end-to-end     solver/* and accel_sim/
#                                  f32_functional_solve
#   cold-sweep                     criterion `case` mean_ns of     1.15x baseline
#                                  synthesizer/*, plus an absolute ceiling (1 thread):
#                                  cold virtex7 scaled-lattice sweep <= 60 ms
#   fleet_scaling                  serve `sweep` points            1.30x baseline
#                                  throughput per (workers, sessions)
#   admission                      `admit` record                  admit ns 1.30x,
#                                                                  idle bytes 1.10x
#
# The other accel_sim cases, the synthesizer `search` counters and the
# solver `phases` records are recorded but not gated.
#
# Whole-fleet wall clock is noisier than a criterion mean, hence 1.30x;
# heap layout is near-deterministic, hence 1.10x on idle bytes. A record
# measured at N threads or N workers is gated only on a machine with >= N
# CPUs; below that it is timeslicing noise and reported as "info".
#
# Usage: scripts/perf_gate.sh [criterion.jsonl] [serve.jsonl]
#   (defaults BENCH_criterion.jsonl BENCH_serve.jsonl; "-" skips that
#   source)
set -euo pipefail

cd "$(dirname "$0")/.."
CPUS="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
python3 - "$CPUS" "${1:-BENCH_criterion.jsonl}" "${2:-BENCH_serve.jsonl}" <<'PY'
import json
import os
import subprocess
import sys

cpus = int(sys.argv[1])
fresh_paths = dict(zip(("BENCH_criterion.jsonl", "BENCH_serve.jsonl"), sys.argv[2:4]))
BENCH_TOL, FLEET_TOL, IDLE_BYTES_TOL = 1.15, 1.30, 1.10
CEILINGS_NS = {
    "synthesizer/virtex7_min_latency_scaled_lattice": 60e6,
}


def load(name):
    """Parsed fresh and committed documents of one source (None if absent)."""
    path = fresh_paths[name]
    if path == "-":
        return None, None
    if not os.path.isfile(path):
        print(f"perf gate: {path} not found, its checks are skipped", file=sys.stderr)
        return None, None
    base = subprocess.run(["git", "show", f"HEAD:{name}"], capture_output=True, text=True)
    if base.returncode != 0:
        print(f"perf gate: no committed {name}, only absolute checks apply",
              file=sys.stderr)
    committed = parse(base.stdout) if base.returncode == 0 else {}
    return parse(open(path).read()), committed


def case_phase(name):
    """Gate phase of a criterion case, or None when it is recorded but not gated."""
    case = name.split("/", 1)[-1]
    if name.startswith("synthesizer/"):
        return "cold-sweep"
    if not (name.startswith("solver/") or name == "accel_sim/f32_functional_solve"):
        return None
    if "build" in case:
        return "assembly"
    if "kernel_" in case:
        return "micro-kernels"
    if "solve" in case:
        return "linear-solve"
    return "end-to-end"


def parse(text):
    """Index REC payloads: key -> (phase, threads, value, tolerance, higher_is_better)."""
    out = {}
    for line in text.splitlines():
        rec = json.loads(line)
        mode, t = rec["mode"], rec["timing"]
        if mode == "criterion" and rec["kind"] == "case":
            name, threads = rec["det"]["name"], t["threads"]
            phase = case_phase(name)
            if phase is not None:
                out[f"{name} ({threads}t)"] = (phase, threads, t["mean_ns"], BENCH_TOL, False)
        elif mode == "sweep":
            key = f"{t['workers']}w x {t['sessions']} sessions throughput"
            out[key] = ("fleet_scaling", t["workers"], t["throughput_fps"], FLEET_TOL, True)
        elif mode == "admit":
            out["admission latency"] = (
                "admission", 1, t["admit_ns_per_session"], FLEET_TOL, False)
            out["admission idle bytes"] = (
                "admission", 1, t["idle_bytes_per_session"], IDLE_BYTES_TOL, False)
    return out


# checks: (phase, label, threads, fresh value, limit, higher_is_better, note)
checks = []
for name in fresh_paths:
    fresh, base = load(name)
    if fresh is None:
        continue
    for label, (phase, threads, value, tol, higher) in sorted(fresh.items()):
        ref = base.get(label)
        if ref is None or ref[2] <= 0:
            print(f"  new   [{phase}] {label}: {value:.6g} (no baseline record)",
                  file=sys.stderr)
            continue
        limit = ref[2] / tol if higher else ref[2] * tol
        checks.append((phase, label, threads, value, limit, higher,
                       f"baseline {ref[2]:.6g}, tolerance {tol:.2f}x"))
    if name == "BENCH_criterion.jsonl":
        for rname, ceiling in sorted(CEILINGS_NS.items()):
            value = fresh.get(f"{rname} (1t)", (0, 0, float("inf")))[2]
            checks.append(("cold-sweep", f"{rname} (1t) ceiling", 1, value, ceiling, False,
                           "absolute ceiling"))

failures = {}
compared = 0
for phase, label, threads, value, limit, higher, note in checks:
    gated = threads == 1 or cpus >= threads
    bad = value < limit if higher else value > limit
    compared += gated
    status = "info" if not gated else ("FAIL" if bad else "ok")
    print(f"  {status:<4}  [{phase}] {label}: {value:.6g} vs limit {limit:.6g} ({note})",
          file=sys.stderr)
    if gated and bad:
        failures.setdefault(phase, []).append(label)

if compared == 0:
    print("perf gate SKIPPED: no comparable records", file=sys.stderr)
    sys.exit(0)
if failures:
    for phase in sorted(failures):
        print(f"perf gate: {phase} phase regressed: {', '.join(failures[phase])}",
              file=sys.stderr)
    print(f"perf gate FAILED in phase(s): {', '.join(sorted(failures))}", file=sys.stderr)
    sys.exit(1)
print(f"perf gate passed ({compared} check(s))", file=sys.stderr)
PY
