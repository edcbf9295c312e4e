#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Builds perfbench/ (the program's libraries from src/ plus the two
runners) into $CARGO_TARGET_DIR/perfbench, default .bench_build, then
runs one workload in its own process. The runner prints one metric per
line; the last line of standard output is the result JSON
({"correct", "attempted", "failed", "metrics"}). --trace 1 reports the
per-layer metrics from the traced runner and writes its spans as a
Chrome trace to <build>/spans/<workload>.json.

`--workload all` runs every workload untraced and traced, printing
every end-to-end and per-layer metric by name, and ends with one JSON
line whose metrics are keyed "<workload>/<metric>".

Exits non-zero, printing no result, when the build, the run or any
output check fails to complete.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["cold_sweep", "disk_warm", "daemon_warm", "interp_kernels"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build(bdir):
    """Configure (once) and build both runners; returns bdir or None."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    log.write_text("")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                  "perfbench", "perfbench_traced"])
    try:
        for cmd in steps:
            if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
                # A failed configure must not leave a cache behind.
                (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                print("perfbench: build failed (log: %s)" % log,
                      file=sys.stderr)
                return None
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return None
    return bdir


def run_one(bdir, workload, seed, seconds, trace):
    """Run one workload; returns (metric lines, result dict) or None."""
    exe = bdir / ("perfbench_traced" if trace else "perfbench")
    work = bdir / "work" / ("%s-%d" % (workload, os.getpid()))
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work)]
    if trace:
        spans = bdir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / (workload + ".json"))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: %s exited with %d" % (workload, proc.returncode),
              file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: %s printed no result" % workload,
              file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result from %s" % workload,
              file=sys.stderr)
        return None
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    bdir = build(build_dir())
    if bdir is None:
        return 1

    if args.workload != "all":
        out = run_one(bdir, args.workload, args.seed, args.seconds,
                      args.trace == 1)
        if out is None:
            return 1
        lines, result = out
        for line in lines:
            print(line)
        print(json.dumps(result), flush=True)
        return 0

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            out = run_one(bdir, workload, args.seed, args.seconds, trace)
            if out is None:
                return 1
            lines, result = out
            print("== %s (%s)" % (workload,
                                  "per-layer" if trace else "end-to-end"))
            for line in lines:
                print(line)
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                merged["metrics"]["%s/%s" % (workload, name)] = m
    print(json.dumps(merged), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
