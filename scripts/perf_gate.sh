#!/usr/bin/env bash
# Baseline regression gate: compares fresh bench records against the copies
# committed at git HEAD (bench_smoke.sh overwrites the working-tree files,
# so the committed copies are the durable reference). One compare loop over
# every check:
#
#   phase(s)                       source                          limit
#   assembly, micro-kernels,       BENCH_solver.json mean_ns       1.15x baseline
#     linear-solve, end-to-end
#   cold-sweep                     BENCH_par.json synthesizer/*    1.15x baseline
#                                  mean_ns, plus an absolute ceiling (1 thread):
#                                  cold virtex7 scaled-lattice sweep <= 60 ms
#   fleet_scaling                  BENCH_serve.jsonl sweep points  1.30x baseline
#                                  throughput per (workers, sessions)
#   admission                      BENCH_serve.jsonl admit record  admit ns 1.30x,
#                                                                  idle bytes 1.10x
#
# Whole-fleet wall clock is noisier than a criterion mean, hence 1.30x;
# heap layout is near-deterministic, hence 1.10x on idle bytes. A record
# measured at N threads or N workers is gated only on a machine with >= N
# CPUs; below that it is timeslicing noise and reported as "info".
#
# Usage: scripts/perf_gate.sh [solver.json] [par.json] [serve.jsonl]
#   (defaults BENCH_solver.json BENCH_par.json BENCH_serve.jsonl; "-" skips
#   that source)
set -euo pipefail

cd "$(dirname "$0")/.."
CPUS="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
python3 - "$CPUS" "${1:-BENCH_solver.json}" "${2:-BENCH_par.json}" \
    "${3:-BENCH_serve.jsonl}" <<'PY'
import json
import os
import subprocess
import sys

cpus = int(sys.argv[1])
fresh_paths = dict(zip(("BENCH_solver.json", "BENCH_par.json", "BENCH_serve.jsonl"),
                       sys.argv[2:5]))
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
    committed = parse(name, base.stdout) if base.returncode == 0 else {}
    return parse(name, open(path).read()), committed


def parse(name, text):
    """Index one document: key -> (phase, threads, value, tolerance, higher_is_better)."""
    out = {}
    if name.endswith(".jsonl"):
        for line in text.splitlines():
            rec = json.loads(line)
            t = rec["timing"]
            if rec["mode"] == "sweep":
                key = f"{t['workers']}w x {t['sessions']} sessions throughput"
                out[key] = ("fleet_scaling", t["workers"], t["throughput_fps"], FLEET_TOL, True)
            elif rec["mode"] == "admit":
                out["admission latency"] = (
                    "admission", 1, t["admit_ns_per_session"], FLEET_TOL, False)
                out["admission idle bytes"] = (
                    "admission", 1, t["idle_bytes_per_session"], IDLE_BYTES_TOL, False)
        return out
    for r in json.loads(text)["records"]:
        rname, threads = r["result"]["name"], r["threads"]
        case = rname.split("/", 1)[-1]
        if name == "BENCH_par.json":
            if not rname.startswith("synthesizer/"):
                continue
            phase = "cold-sweep"
        elif "build" in case:
            phase = "assembly"
        elif "kernel_" in case:
            phase = "micro-kernels"
        elif "solve" in case:
            phase = "linear-solve"
        else:
            phase = "end-to-end"
        out[f"{rname} ({threads}t)"] = (phase, threads, r["result"]["mean_ns"], BENCH_TOL, False)
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
    if name == "BENCH_par.json":
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
