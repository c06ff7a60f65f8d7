#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs every workload of e2e_bench briefly at a fixed seed, untraced
and traced, through run.py, and checks the result line: every end-to-end
(untraced) or per-layer (traced) metric present with its unit, a finite
value, no failed operation, and the capture-path breakdown within 5% of
the traced capture total. Run from the repository root:

    python3 e2ebench/smoke_test.py [--seconds 1]

Exits 0 when every check passes.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Every workload e2e_bench has, including the two BENCHMARK.json leaves
# out (README.md, "Gated workloads").
WORKLOADS = ("batch_classify", "stream_control", "served_knn",
             "served_enroll")


def check_run(spec, workload, trace, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        errors = [l for l in proc.stdout.splitlines() if l.startswith("error")]
        problems.append(f"{label}: failed={result['failed']} {errors}")
    if result["attempted"] < 1:
        problems.append(f"{label}: attempted={result['attempted']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{label}: missing {metric['name']}")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{label}: {metric['name']} unit {got['unit']}")
        elif not math.isfinite(got["value"]):
            problems.append(f"{label}: {metric['name']} = {got['value']}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")
    if trace and "bench.breakdown_sum_pct" in metrics:
        share = metrics["bench.breakdown_sum_pct"]["value"]
        if not 95.0 <= share <= 105.0:
            problems.append(f"{label}: capture breakdown sums to {share:.1f}%")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(spec, workload, trace, args.seconds)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
