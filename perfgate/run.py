#!/usr/bin/env python3
"""Gate benchmark entry point: builds perfgate from source and runs it.

One run (the last stdout line is the result JSON):

    python3 perfgate/run.py --workload cell10 --seed 1 --seconds 36 --trace 0

Repeat mode runs one workload K times on seeds N, N+1, ... and prints each
metric's median, quartiles and quartile spread (IQR / median):

    python3 perfgate/run.py --workload stream --repeat 10 --seconds 36

The build lives in $CARGO_TARGET_DIR/perfgate (default .bench_build/perfgate)
under the repository root; build output goes to stderr so stdout carries only
the benchmark's own lines. Spans of a --trace 1 run are written to
<build>/traces/<workload>-<seed>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cell10", "floor3x3", "stream")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfgate")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "perfgate")


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Run the binary once; returns (exit code, stdout, parsed result or None)."""
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", os.path.join(traces, f"{workload}-{seed}.jsonl"),
           *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, proc.stdout, result


def repeat(binary, args):
    values, units, failed, attempted = {}, {}, 0, 0
    for k in range(args.repeat):
        seed = args.seed + k
        code, _, result = run_once(binary, args.workload, seed, args.seconds, args.trace)
        if result is None:
            print(f"seed {seed}: run failed (exit {code})", file=sys.stderr)
            return 1
        failed += result["failed"]
        attempted += result["attempted"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    summary = {}
    print(f"\n{args.workload}: {args.repeat} runs, failed ops {failed} / {attempted}")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  unit")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name]}
        print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}  {units[name]}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0 if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run K times on consecutive seeds and summarise")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfgate: build failed: {err}", file=sys.stderr)
        return 2
    if args.repeat > 0:
        return repeat(binary, args)
    code, out, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    if code != 0 or result is None:
        print(f"perfgate: run failed (exit {code})", file=sys.stderr)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
