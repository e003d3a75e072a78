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
#   DET                            every serve record with a       equal to the
#                                  non-empty `det`, and every      committed record
#                                  criterion `search` record       at the same
#                                  (selected design and search     position of its
#                                  counters)                       (mode, kind)
#
# The other accel_sim cases and the solver `phases` records are recorded
# but not gated.
#
# Whole-fleet wall clock is noisier than a criterion mean, hence 1.30x;
# heap layout is near-deterministic, hence 1.10x on idle bytes. A record
# measured at N threads or N workers is gated only on a machine with >= N
# CPUs; below that it is timeslicing noise and reported as "info". The DET
# check is an equality, so it runs on any CPU count and fails on its own,
# whatever the timing verdicts say. A timing record committed at HEAD with
# no fresh counterpart (a bench case that was removed or renamed) prints as
# "gone", for information only; a fresh record with no committed counterpart
# prints as "new" and is not gated, and the last line counts those.
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


def load(name, parser):
    """Fresh and committed documents of one source through `parser` (None if absent)."""
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
    committed = parser(base.stdout) if base.returncode == 0 else {}
    return parser(open(path).read()), committed


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


def parse_det(text):
    """Gated det payloads by (mode, kind), in file order, as JSON text: every
    non-empty one except a criterion `case`'s, which holds only its name."""
    out = {}
    for line in text.splitlines():
        rec = json.loads(line)
        if rec["det"] and (rec["mode"], rec["kind"]) != ("criterion", "case"):
            out.setdefault((rec["mode"], rec["kind"]), []).append(json.dumps(rec["det"]))
    return out


# checks: (phase, label, threads, fresh value, limit, higher_is_better, note)
checks = []
unbaselined = 0
for name in fresh_paths:
    fresh, base = load(name, parse)
    if fresh is None:
        continue
    for label, (phase, threads, value, tol, higher) in sorted(fresh.items()):
        ref = base.get(label)
        if ref is None or ref[2] <= 0:
            print(f"  new   [{phase}] {label}: {value:.6g} (no baseline record)",
                  file=sys.stderr)
            unbaselined += 1
            continue
        limit = ref[2] / tol if higher else ref[2] * tol
        checks.append((phase, label, threads, value, limit, higher,
                       f"baseline {ref[2]:.6g}, tolerance {tol:.2f}x"))
    for label in sorted(base.keys() - fresh.keys()):
        phase, value = base[label][0], base[label][2]
        print(f"  gone  [{phase}] {label}: baseline {value:.6g} (no fresh record)",
              file=sys.stderr)
    if name == "BENCH_criterion.jsonl":
        for rname, ceiling in sorted(CEILINGS_NS.items()):
            value = fresh.get(f"{rname} (1t)", (0, 0, float("inf")))[2]
            checks.append(("cold-sweep", f"{rname} (1t) ceiling", 1, value, ceiling, False,
                           "absolute ceiling"))

# DET: a det payload is deterministic, so any change is a behaviour change,
# and so is a record that appears or vanishes on either side. Skipped for a
# source with no committed file at HEAD (`load` then returns an empty
# baseline).
det_bad = []
for name in fresh_paths:
    fresh, base = load(name, parse_det)
    for key in sorted((fresh or {}).keys() | base.keys()) if base else []:
        dets, committed = fresh.get(key, []), base.get(key, [])
        differ = [i for i, (a, b) in enumerate(zip(dets, committed)) if a != b]
        bad = [f"#{i}" for i in differ]
        if len(dets) != len(committed):
            bad.append(f"{len(dets)} record(s) vs HEAD's {len(committed)}")
        det_bad += [f"{key[0]}/{key[1]} {b}" for b in bad]
        print(f"  {'FAIL' if bad else 'ok':<4}  [DET] {key[0]}/{key[1]}: {len(dets)} fresh vs "
              f"{len(committed)} HEAD record(s), {len(differ)} differ", file=sys.stderr)
failures = {"DET": det_bad} if det_bad else {}
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


def finish(code, verdict):
    """Prints the verdict, then how many fresh records went ungated, and exits."""
    print(verdict, file=sys.stderr)
    print(f"perf gate: {unbaselined} fresh record(s) have no baseline at HEAD",
          file=sys.stderr)
    sys.exit(code)


if compared == 0 and not failures:
    finish(0, "perf gate SKIPPED: no comparable timing records")
if failures:
    for phase in sorted(failures):
        print(f"perf gate: {phase} phase regressed: {', '.join(failures[phase])}",
              file=sys.stderr)
    finish(1, f"perf gate FAILED in phase(s): {', '.join(sorted(failures))}")
finish(0, f"perf gate passed ({compared} check(s))")
PY
