#!/usr/bin/env python3
"""Paired end-to-end benchmark runs: a parent commit against this checkout.

Run from the repository root:

    python3 tools/e2e_pairs.py --parent <commit> --workload <w> --seed <n> \
        [--pairs 10] [--seconds 30] [--workdir .bench_build/pairs]

Exports the parent commit with `git archive` into the work directory and
runs `python3 e2ebench/run.py` (untraced) once in each tree per pair, each
tree with its own build directory; the side that goes first alternates
from pair to pair. Refuses to run when the two trees' e2ebench/ or
BENCHMARK.json differ, since the runs would then not measure the same
thing. For every end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles and how many pairs the change won (a tie counts for
neither side), then failed/attempted operations per side. Exits non-zero
when a run yields no result.
"""

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b, ignore=["__pycache__"])
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files,
                                           shallow=False)
    if mismatch or errors:
        return False
    return all(same_tree(a / d, b / d) for d in cmp.common_dirs)


def export_parent(commit: str, workdir: Path) -> Path:
    sha = subprocess.run(["git", "rev-parse", "--verify", commit + "^{commit}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    tree = workdir / f"parent-{sha[:12]}"
    if not (tree / "BENCHMARK.json").exists():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit(f"e2e_pairs: git archive {commit} failed")
    return tree


def run_once(tree: Path, build_dir: Path, args) -> dict:
    cmd = [sys.executable, "e2ebench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit(f"e2e_pairs: no result from {tree} (exit {proc.returncode})")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workdir", default=".bench_build/pairs")
    args = parser.parse_args()

    workdir = (ROOT / args.workdir).resolve()
    parent = export_parent(args.parent, workdir)
    for name in ("e2ebench", "BENCHMARK.json"):
        a, b = parent / name, ROOT / name
        if a.is_dir():
            same = b.is_dir() and same_tree(a, b)
        else:
            same = a.is_file() and b.is_file() and filecmp.cmp(a, b,
                                                             shallow=False)
        if not same:
            sys.exit(f"e2e_pairs: {name} differs between {args.parent} and "
                     "this checkout; the runs would not be comparable")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    sides = {"parent": (parent, workdir / f"{parent.name}-build"),
             "change": (ROOT, workdir / "change-build")}
    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree, build_dir = sides[side]
            results[side].append(run_once(tree, build_dir, args))
        last = {s: results[s][-1]["metrics"] for s in order}
        print(f"pair {i + 1}/{args.pairs}: " + ", then ".join(
            f"{s} p50_us {last[s]['p50_us']['value']:.1f} "
            f"p90_us {last[s]['p90_us']['value']:.1f}" for s in order),
            flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s, parent {args.parent}")
    print(f"{'metric':<14} {'parent median [q1-q3]':>32} "
          f"{'change median [q1-q3]':>32} {'wins':>6}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        vals = {s: [r["metrics"][name]["value"] for r in results[s]
                    if name in r["metrics"]] for s in results}
        if any(len(v) != args.pairs for v in vals.values()):
            print(f"{name:<14} missing from some runs")
            continue
        lower = metric["better"] == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(vals["parent"], vals["change"]))
        cells = []
        for s in ("parent", "change"):
            if args.pairs >= 2:
                q1, q2, q3 = statistics.quantiles(vals[s], n=4,
                                                  method="inclusive")
            else:
                q1 = q2 = q3 = vals[s][0]
            cells.append(f"{q2:.5g} [{q1:.5g}-{q3:.5g}]")
        print(f"{name:<14} {cells[0]:>32} {cells[1]:>32} "
              f"{wins:>3}/{args.pairs}")
    for s in ("parent", "change"):
        failed = sum(r["failed"] for r in results[s])
        attempted = sum(r["attempted"] for r in results[s])
        print(f"{s}: failed/attempted {failed}/{attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
