#!/usr/bin/env python3
"""Tiny-size smoke run of every benchmark workload, untraced and traced.

    python3 perfbench/tests/smoke_test.py

Run from the repository root. Each workload runs at 1% of its request
counts for one second. The test checks that the result line has the
contract's keys, that every metric printed has a name and unit listed in
BENCHMARK.json (and none is missing), and that the output checks ran.
It does not require the checks to pass: a failing check is a finding of
the benchmark, not of this test. It also runs the workloads in
KNOWN_DEFECT, which are left out of BENCHMARK.json because a simulator
defect fails their checks, and says whether the defect still shows.
Exits 0 when every run conforms.
"""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
# Workload -> the defect that fails its output checks (perfbench/README.md).
KNOWN_DEFECT = {
    "tenants-hybrid": "hybrid::TieredSystem drops per-tenant statistics",
}


def smoke(workload, trace, expected):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--scale", "0.01"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                            timeout=600)
    label = "%s --trace %d" % (workload, trace)
    if result.returncode != 0:
        return None, ["%s: exit %d\n%s" % (label, result.returncode,
                                           result.stderr[-2000:])]
    lines = result.stdout.strip().splitlines()
    errors = []
    doc = json.loads(lines[-1])
    if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (label, sorted(doc)))
    if not (isinstance(doc.get("attempted"), int) and doc["attempted"] >= 1):
        errors.append("%s: attempted %r" % (label, doc.get("attempted")))
    for name, metric in doc.get("metrics", {}).items():
        if name not in expected:
            errors.append("%s: metric %s not in BENCHMARK.json" % (label, name))
        elif metric.get("unit") != expected[name]:
            errors.append("%s: %s unit %r, BENCHMARK.json says %r"
                          % (label, name, metric.get("unit"), expected[name]))
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (label, name, value))
    missing = set(expected) - set(doc.get("metrics", {}))
    if missing:
        errors.append("%s: missing metrics %s" % (label, sorted(missing)))
    checks = [re.match(r"checks: (\d+) evaluated", line) for line in lines]
    ran = [int(m.group(1)) for m in checks if m]
    if not ran or ran[0] == 0:
        errors.append("%s: the output checks did not run" % label)
    return doc, errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    listed = [w["name"] for w in bench["workloads"]]
    for workload in listed + sorted(KNOWN_DEFECT):
        for trace in (0, 1):
            doc, problems = smoke(workload, trace, expected[trace])
            errors += problems
            if workload in KNOWN_DEFECT and doc is not None:
                print("known defect on %s --trace %d (%s): %s"
                      % (workload, trace, KNOWN_DEFECT[workload],
                         "still shows" if not doc["correct"] else
                         "no longer shows; list the workload in "
                         "BENCHMARK.json"))
    for error in errors:
        print("FAIL " + error)
    print("smoke: %d workloads x 2 modes, %d problem(s)"
          % (len(listed) + len(KNOWN_DEFECT), len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
