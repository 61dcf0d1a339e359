#!/usr/bin/env python3
"""Determinism self-tests of the repository benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that

  1. the same seed twice gives bit-identical virtual metrics and the same
     virtual digest (a hash of every latency sample and kernel counter);
  2. a traced run succeeds -- the benchmark compares each traced episode with
     an untraced one bit for bit in virtual time and fails on any difference --
     and reports exactly the per-layer metrics BENCHMARK.json lists;
  3. a different seed runs clean;

and that untraced runs report exactly the end-to-end metrics BENCHMARK.json
lists.  Seed 7349 is held out: no test or tuning uses it, so a later claim of
a gain can be confirmed on it.  Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["rush_hour", "name_walk", "page_storm"]
VIRTUAL = ["ok_ratio", "ops_per_mcycle", "op_p50_cycles", "op_p99_cycles",
           "op2_p50_cycles", "op2_p99_cycles"]
SEEDS = (1, 2)


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    digest = None
    for line in lines:
        match = re.search(r"virtual digest ([0-9a-f]+)", line)
        if match:
            digest = match.group(1)
    return done.returncode, result, digest, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        first = run(workload, SEEDS[0], 0)
        again = run(workload, SEEDS[0], 0)
        other = run(workload, SEEDS[1], 0)
        traced = run(workload, SEEDS[0], 1)
        for name, (code, result, _, err) in (("seed %d" % SEEDS[0], first),
                                             ("seed %d again" % SEEDS[0], again),
                                             ("seed %d" % SEEDS[1], other),
                                             ("traced seed %d" % SEEDS[0], traced)):
            clean = code == 0 and result is not None and result["correct"] and result["failed"] == 0
            check(clean, f"{workload}: {name} runs clean" + ("" if clean else "\n" + err))
        if first[1] is None or again[1] is None or traced[1] is None:
            continue
        same = all(first[1]["metrics"][k]["value"] == again[1]["metrics"][k]["value"]
                   for k in VIRTUAL)
        check(same and first[2] == again[2] and first[2] is not None,
              f"{workload}: same seed twice is bit-identical in virtual time")
        check(set(first[1]["metrics"]) == end_to_end,
              f"{workload}: untraced metrics match BENCHMARK.json end_to_end")
        check(set(traced[1]["metrics"]) == per_layer,
              f"{workload}: traced metrics match BENCHMARK.json per_layer")
    print("all checks passed" if not failures else f"{len(failures)} check(s) failed")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
