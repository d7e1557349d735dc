#!/usr/bin/env python3
"""Gate bench_kernels performance against a committed baseline.

Usage:
  check_perf_regression.py <BENCH_kernels.json>... <baseline.json> [--tolerance F]
  check_perf_regression.py <BENCH_kernels.json>... <baseline.json> --update

Gates every bench_kernels row on same-run ratios, so the gate judges the
code, not the host. A row's cost is its ns_per_packet, ns_per_sample or
ns_per_round counter, or its real time per iteration when it exports none,
so every row is gated. Over all repetitions of all the given documents the
fastest one counts, since host noise only ever slows one down: run
bench_kernels more than once, with --benchmark_repetitions and
--benchmark_enable_random_interleaving so a row's repetitions spread over
each run. Each row's cost ratio against the baseline is divided by the
run's speed: the median over benchmark families (a row's name up to its
first '/') of each family's median row ratio. The run's own speed against
the baseline host cancels out, and a regression in any kernel that fewer
than half of the families exercise shows at full size. A family counts
once however many grid points it registers, so a kernel timed over a long
grid cannot drag the anchor it is judged against. The gate fails when a
row's normalized ratio exceeds 1 + tolerance (default ±30 %, enough to
catch an accidental O(n²) or a hot-path allocation loudly, not 5 %
jitter). A change that slows every row alike is invisible to same-run
ratios by construction; the perfgate end-to-end bounds cover that case.
Benchmarks present on only one side are reported but never fatal, so
adding or retiring a benchmark does not break CI before the baseline is
refreshed.

A row that host noise slowed in every run is told apart from a regression
by one more whole run with the same flags, gated together with the others:
the row then has a fresh process's repetitions to count, and the run's
speed moves with that process, so a real regression fails again.

A speed-up beyond the same tolerance prints a note suggesting a baseline
refresh; `--update` rewrites the baseline from the given runs: per row, the
median over the runs of its cost relative to that run's median row (commit
the result). Ratios move far less between hosts than nanoseconds do, but
kernels with different memory or SIMD profiles still shift against each
other, so refresh when they do.
"""
import json
import statistics
import sys

DEFAULT_TOLERANCE = 0.30

GATED_COUNTERS = ("ns_per_packet", "ns_per_sample", "ns_per_round")


def fail(msg: str) -> None:
    print(f"check_perf_regression: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def relative_costs(paths: list) -> dict:
    """benchmark name -> cost relative to the median row cost, over `paths`.

    A row's cost is its gated counter (ns_per_packet, ns_per_sample or
    ns_per_round), or its real time per iteration when it exports none, so
    every row is gated. Over all repetitions in all documents the fastest
    one counts: host noise only ever slows a repetition down.
    """
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    costs = {}
    benches = [b for path in paths for b in load(path).get("benchmarks", [])]
    for bench in benches:
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        cost = next((bench[c] for c in GATED_COUNTERS
                     if isinstance(bench.get(c), (int, float))), None)
        if cost is None:
            cost = bench.get("real_time", 0.0) * scale.get(
                bench.get("time_unit", "ns"), 1.0)
        if name and cost > 0:
            costs[name] = min(costs.get(name, cost), float(cost))
    if not costs:
        fail(f"{' '.join(paths)}: no benchmark rows")
    median = statistics.median(costs.values())
    return {name: cost / median for name, cost in costs.items()}


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        fail(f"{path} missing")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")


def main() -> None:
    args = sys.argv[1:]
    update = "--update" in args
    args = [a for a in args if a != "--update"]
    tolerance = DEFAULT_TOLERANCE
    if "--tolerance" in args:
        i = args.index("--tolerance")
        try:
            tolerance = float(args[i + 1])
        except (IndexError, ValueError):
            fail("--tolerance needs a float argument")
        del args[i:i + 2]
    if len(args) < 2:
        fail("usage: check_perf_regression.py <BENCH_kernels.json>... "
             "<baseline.json> [--tolerance F | --update]")
    current_paths, baseline_path = args[:-1], args[-1]

    if update:
        # Per row, the median over the runs: one run's lucky or unlucky
        # minimum does not become the reference.
        runs = [relative_costs([path]) for path in current_paths]
        names = set.intersection(*(set(run) for run in runs))
        baseline_doc = {
            "comment": "bench_kernels row costs relative to the run's median "
                       "row (median over the recording runs), for "
                       "tools/check_perf_regression.py — refresh with "
                       "--update",
            "relative_cost": {name: statistics.median(run[name] for run in runs)
                              for name in sorted(names)},
        }
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump(baseline_doc, f, indent=2)
            f.write("\n")
        print(f"check_perf_regression: wrote {len(names)} relative costs "
              f"from {len(runs)} runs to {baseline_path}")
        return

    current = relative_costs(current_paths)

    baseline = load(baseline_path).get("relative_cost")
    if not baseline:
        fail(f"{baseline_path} has no 'relative_cost' object — "
             "generate it with --update")
    common = sorted(set(baseline) & set(current))
    if not common:
        fail(f"{' '.join(current_paths)}: no rows shared with {baseline_path}")
    families = {}
    for name in common:
        families.setdefault(name.split("/")[0], []).append(
            current[name] / baseline[name])
    speed = statistics.median(statistics.median(ratios)
                              for ratios in families.values())
    print(f"check_perf_regression: median family ratio {speed:.3f} "
          f"(this run's relative speed against the baseline run)")

    regressions = []
    for name in common:
        ratio = current[name] / baseline[name] / speed
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSION"
            regressions.append((name, ratio))
        elif ratio < 1.0 - tolerance:
            verdict = "faster (consider --update)"
        print(f"check_perf_regression: {name}: {ratio:.2f}x baseline: "
              f"{verdict}")
    for name in sorted(set(baseline) - set(current)):
        print(f"check_perf_regression: note: '{name}' in baseline "
              "but not in this run (filtered out or retired?)")
    for name in sorted(set(current) - set(baseline)):
        print(f"check_perf_regression: note: '{name}' has no baseline — "
              "refresh with --update to start gating it")

    if regressions:
        for name, ratio in regressions:
            print(f"check_perf_regression: FAIL: {name} regressed to "
                  f"{ratio:.2f}x its baseline, relative to the run's speed "
                  f"(> {1.0 + tolerance:.2f}x allowed)", file=sys.stderr)
        sys.exit(1)
    print(f"check_perf_regression: {len(common)} rows checked, "
          f"no regression beyond {tolerance:.0%}")


if __name__ == "__main__":
    main()
