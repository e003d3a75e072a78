#!/usr/bin/env bash
# Det re-freeze: splices the fresh `det` payloads of a serve_smoke.sh output
# into the committed BENCH_serve.jsonl and keeps every committed `timing`
# object byte for byte, so perf_gate.sh's timing baselines do not move with
# the host phase of the run that re-recorded the payloads.
#
# Records pair up by position. Both files must hold the same number of
# records, and each pair the same (mode, kind, key), where key is the det
# payload's `session`, `scope` or `scenario` field (none for a timing-only
# record). Otherwise the script refuses and writes nothing: a record that
# appears, vanishes or moves is a structural change, not a re-freeze.
#
# Usage: scripts/refreeze_det.sh FRESH.jsonl [OUT.jsonl]
#          splices FRESH's det payloads into HEAD's BENCH_serve.jsonl and
#          writes the result to OUT (default BENCH_serve.jsonl)
#        scripts/refreeze_det.sh --self-check
#          runs the splice and its refusals on a two-record fixture
set -euo pipefail

cd "$(dirname "$0")/.."
python3 - "$@" <<'PY'
import json
import subprocess
import sys

KEY_FIELDS = ("session", "scope", "scenario")
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
    out, changed = [], 0
    for i, (f, c) in enumerate(zip(fresh, committed)):
        fr, cr = json.loads(f), json.loads(c)
        if ident(fr) != ident(cr):
            raise ValueError(f"record {i}: fresh {ident(fr)} vs committed {ident(cr)}")
        # `timing` is the last field of a REC line; splicing the raw text
        # keeps the committed number formatting.
        line = f[:f.rindex(TIMING)] + c[c.rindex(TIMING):]
        if json.loads(line) != {**cr, "det": fr["det"]}:
            raise ValueError(f"record {i}: timing is not the last field")
        out.append(line + "\n")
        changed += fr["det"] != cr["det"]
    return "".join(out), changed


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
        try:
            splice(bad, committed)
        except ValueError:
            continue
        raise AssertionError(f"splice accepted a mismatched fresh file:\n{bad}")
    print("refreeze_det self-check passed", file=sys.stderr)


args = sys.argv[1:]
if args == ["--self-check"]:
    self_check()
    sys.exit(0)
if len(args) not in (1, 2):
    sys.exit("usage: scripts/refreeze_det.sh FRESH.jsonl [OUT.jsonl] | --self-check")
base = subprocess.run(["git", "show", "HEAD:BENCH_serve.jsonl"],
                      capture_output=True, text=True, check=True).stdout
try:
    text, changed = splice(open(args[0]).read(), base)
except ValueError as e:
    sys.exit(f"refreeze_det: refused, nothing written: {e}")
out = args[1] if len(args) == 2 else "BENCH_serve.jsonl"
with open(out, "w") as fh:
    fh.write(text)
print(f"refreeze_det: wrote {out}, {changed} det payload(s) changed", file=sys.stderr)
PY
