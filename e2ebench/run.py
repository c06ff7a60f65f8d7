#!/usr/bin/env python3
"""Builds the end-to-end benchmark program from source and runs it.

Run from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds e2ebench/ (the library sources plus
e2e_bench, Release) into $CARGO_TARGET_DIR/e2ebench, or
.bench_build/e2ebench when that variable is unset; later runs only check
that the build is current. Build output goes to stderr. The program's
stdout passes through unchanged: its last line is the result JSON. A
traced run also writes its spans (Chrome trace-event JSON) to
<build dir>/traces/<workload>-seed<n>.json.

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per checkout, should runs ever overlap.
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "Makefile").exists():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(build_dir), "-j", jobs,
             "--target", "e2e_bench"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "e2e_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir.resolve() / "e2ebench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    # Surfaces left at their default thread budget run on one thread, so
    # the load generator, the answer taker and the server's worker do not
    # contend with a thread pool for the CPUs.
    env = dict(os.environ, MOCEMG_THREADS="1")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
