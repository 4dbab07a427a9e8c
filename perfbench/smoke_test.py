#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny input sizes; `dune runtest` runs it.

    python3 smoke_test.py PERFBENCH_EXE BENCHMARK_JSON

Runs every workload that BENCHMARK.json names once untraced and once traced.
Each run must exit 0, stamp itself, and end with a correct result line that
carries every end-to-end metric (untraced) or every per-layer metric (traced)
under its declared unit.  The traced run's span file must be Chrome
trace-event JSON whose spans all name a parent that exists.
"""

import json
import os
import subprocess
import sys


def check_run(exe, workload, trace, wanted, problems):
    spans = "smoke-%s.trace.json" % workload
    cmd = [exe, "--workload", workload, "--seed", "1", "--seconds", "0",
           "--size", "tiny", "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", spans]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    where = "%s --trace %d" % (workload, trace)
    if r.returncode != 0:
        problems.append("%s: exit %d\n%s%s" % (where, r.returncode, r.stdout, r.stderr))
        return
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    stamp = json.loads(lines[-2])["stamp"]
    for key in ("nproc", "ocaml", "commit"):
        if key not in stamp:
            problems.append("%s: stamp lacks %s" % (where, key))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append("%s: not correct: %s" % (where, lines[-1]))
    got = result["metrics"]
    for name, unit in wanted:
        if name not in got:
            problems.append("%s: metric %s missing" % (where, name))
        elif got[name]["unit"] != unit:
            problems.append("%s: metric %s has unit %s, want %s"
                            % (where, name, got[name]["unit"], unit))
        elif not isinstance(got[name]["value"], (int, float)):
            problems.append("%s: metric %s is not a number" % (where, name))
    extra = set(got) - {name for name, _ in wanted}
    if extra:
        problems.append("%s: undeclared metrics %s" % (where, sorted(extra)))
    if trace:
        with open(spans) as f:
            events = json.load(f)["traceEvents"]
        ids = {e["args"]["id"] for e in events} | {0}
        if not events:
            problems.append("%s: no spans written" % where)
        for e in events:
            if e["ph"] != "X" or e["dur"] < 0 or e["args"]["parent"] not in ids:
                problems.append("%s: malformed span %s" % (where, e))
                break
        os.remove(spans)


def main():
    exe, bench = sys.argv[1], sys.argv[2]
    exe = os.path.abspath(exe)
    with open(bench) as f:
        spec = json.load(f)
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    problems = []
    for w in spec["workloads"]:
        check_run(exe, w["name"], 0, end_to_end, problems)
        check_run(exe, w["name"], 1, per_layer, problems)
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
