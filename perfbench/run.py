#!/usr/bin/env python3
"""End-to-end benchmark of MithriLog: builds the program from source and
runs one workload in its own process.

    python3 perfbench/run.py --workload ingest|mount|search|live --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR if
set, else .bench_build/. Build output goes to stderr; stdout carries the
workload's diagnostics line and, last, the result line
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every operation succeeded and every answer matched its oracle.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, target))


def build(out):
    """Configures (once) and builds mlbench; returns its path or None."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", out, "--target", "mlbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    exe = os.path.join(out, "mlbench")
    return exe if made.returncode == 0 and os.path.exists(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ingest", "mount", "search", "live"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs (self-test)")
    ap.add_argument("--break-oracle", action="store_true",
                    help="corrupt one expected answer (self-test)")
    args = ap.parse_args()

    out = build_dir()
    exe = build(out)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", work]
    if args.smoke:
        cmd.append("--smoke")
    if args.break_oracle:
        cmd.append("--break-oracle")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: workload timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: workload printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
