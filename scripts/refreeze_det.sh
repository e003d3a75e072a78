#!/usr/bin/env bash
# Det re-freeze: splices the fresh `det` payloads of a benchmark output into
# the committed record file and keeps every committed `timing` object byte
# for byte, so perf_gate.sh's timing baselines do not move with the host
# phase of the run that re-recorded the payloads. The target is
# BENCH_serve.jsonl (a serve_smoke.sh output) unless --target names another
# file, such as BENCH_criterion.jsonl (a bench_smoke.sh criterion output).
#
# Records pair up by identity (mode, kind, key), where key is the det
# payload's `session`, `scope`, `scenario` or `name` field (none for a
# timing-only record; a criterion `search` or `case` record is keyed on its
# `name`): the n-th fresh record of an identity pairs with the n-th
# committed one, and the output keeps the committed order. Both files must
# hold the same records by identity. Otherwise the script refuses and writes
# nothing: a record that appears, vanishes or is renamed is a structural
# change, not a re-freeze.
#
# Usage: scripts/refreeze_det.sh [--target FILE] FRESH.jsonl [OUT.jsonl]
#          splices FRESH's det payloads into HEAD's FILE (default
#          BENCH_serve.jsonl) and writes the result to OUT (default FILE)
#        scripts/refreeze_det.sh --self-check
#          runs the splice and its refusals on serve and criterion fixtures
set -euo pipefail

cd "$(dirname "$0")/.."
python3 - "$@" <<'PY'
import json
import subprocess
import sys

KEY_FIELDS = ("session", "scope", "scenario", "name")
TIMING = ',"timing":'


def ident(rec):
    """(mode, kind, key) of one REC payload."""
    det = rec["det"] or {}
    return rec["mode"], rec["kind"], next((det[f] for f in KEY_FIELDS if f in det), None)


def splice(fresh_text, committed_text):
    """The committed lines with each det payload replaced by the fresh one,
    and the number of payloads that changed; ValueError on any mismatch."""
    fresh, committed = fresh_text.splitlines(), committed_text.splitlines()
    if len(fresh) != len(committed):
        raise ValueError(f"{len(fresh)} fresh record(s) vs {len(committed)} committed")
    # The n-th fresh record of each (mode, kind, key) pairs with the n-th
    # committed one; equal counts make that a one-to-one pairing.
    groups = {}
    for f in fresh:
        fr = json.loads(f)
        groups.setdefault(ident(fr), []).append((f, fr))
    out, changed = [], 0
    for i, c in enumerate(committed):
        cr = json.loads(c)
        group = groups.get(ident(cr))
        if not group:
            raise ValueError(f"record {i}: no fresh record left for committed {ident(cr)}")
        f, fr = group.pop(0)
        # `timing` is the last field of a REC line; splicing the raw text
        # keeps the committed number formatting.
        line = f[:f.rindex(TIMING)] + c[c.rindex(TIMING):]
        if json.loads(line) != {**cr, "det": fr["det"]}:
            raise ValueError(f"record {i}: timing is not the last field")
        out.append(line + "\n")
        changed += fr["det"] != cr["det"]
    return "".join(out), changed


def refuses(fresh, committed):
    """Whether splice refuses `fresh` against `committed`."""
    try:
        splice(fresh, committed)
    except ValueError:
        return True
    return False


def self_check():
    committed = (
        '{"mode":"batch","kind":"session","det":{"session":"car-0","digest":"aa"},"timing":{}}\n'
        '{"mode":"batch","kind":"run","det":{},"timing":{"workers":1,"wall_s":1.50}}\n')
    fresh = committed.replace('"aa"', '"bb"').replace("1.50", "9.25")
    want = committed.replace('"aa"', '"bb"')
    assert splice(fresh, committed) == (want, 1), splice(fresh, committed)
    refused = [
        fresh.replace("car-0", "car-1"),  # key
        fresh.replace('"run"', '"point"'),  # kind
        fresh.splitlines()[0],  # record count
    ]
    for bad in refused:
        assert refuses(bad, committed), f"splice accepted a mismatched fresh file:\n{bad}"
    # Criterion records: `search` and `case` are keyed on the bench name.
    committed = (
        '{"mode":"criterion","kind":"search","det":{"name":"synthesizer/a","nd":4,'
        '"examined":54,"pruned":88645},"timing":{}}\n'
        '{"mode":"criterion","kind":"case","det":{"name":"synthesizer/a"},'
        '"timing":{"threads":1,"mean_ns":18416.8}}\n'
        '{"mode":"criterion","kind":"search","det":{"name":"synthesizer/b","nd":30,'
        '"examined":38,"pruned":88661},"timing":{}}\n')
    fresh = (committed.replace('"examined":54,"pruned":88645', '"examined":40,"pruned":88659')
             .replace("18416.8", "17003.1"))
    want = committed.replace('"examined":54,"pruned":88645', '"examined":40,"pruned":88659')
    assert splice(fresh, committed) == (want, 1), splice(fresh, committed)
    # Keyed records pair on their key in any order; the output keeps the
    # committed order.
    for a, b in ((0, 2), (1, 2)):
        moved = fresh.splitlines(keepends=True)
        moved[a], moved[b] = moved[b], moved[a]
        assert splice("".join(moved), committed) == (want, 1), splice("".join(moved), committed)
    assert refuses(fresh.replace("synthesizer/b", "synthesizer/c"), committed), \
        "splice accepted a renamed search record"
    print("refreeze_det self-check passed", file=sys.stderr)


args = sys.argv[1:]
if args == ["--self-check"]:
    self_check()
    sys.exit(0)
target = "BENCH_serve.jsonl"
if args[:1] == ["--target"] and len(args) >= 2:
    target, args = args[1], args[2:]
if len(args) not in (1, 2):
    sys.exit("usage: scripts/refreeze_det.sh [--target FILE] FRESH.jsonl [OUT.jsonl]"
             " | --self-check")
base = subprocess.run(["git", "show", f"HEAD:{target}"],
                      capture_output=True, text=True, check=True).stdout
try:
    text, changed = splice(open(args[0]).read(), base)
except ValueError as e:
    sys.exit(f"refreeze_det: refused, nothing written: {e}")
out = args[1] if len(args) == 2 else target
with open(out, "w") as fh:
    fh.write(text)
print(f"refreeze_det: wrote {out}, {changed} det payload(s) changed", file=sys.stderr)
PY
