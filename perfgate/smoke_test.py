#!/usr/bin/env python3
"""Smoke test of the gate benchmark itself.

    python3 perfgate/smoke_test.py

For every workload, 0.2 s runs (plus the untimed ops delivery_ratio needs):
  * untraced: every end-to-end metric of BENCHMARK.json prints with its unit,
    no op fails, and the result line is well formed;
  * traced: every per-layer metric prints with its unit;
  * with a deliberately corrupted expected payload: at least one op is
    counted as failed and the run is reported incorrect.
Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def result_of(binary, workload, *extra):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "7", "--seconds", "0.2", *extra],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} {extra}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    return lines, result


def expect_metrics(workload, lines, result, wanted):
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            raise AssertionError(f"{workload}: {name} missing or not in {unit}: {got}")
        if not any(l.split()[:1] == [name] and l.split()[-1] == unit for l in lines):
            raise AssertionError(f"{workload}: no printed line for {name} [{unit}]")
    extra = set(result["metrics"]) - {s["name"] for s in wanted}
    if extra:
        raise AssertionError(f"{workload}: unexpected metrics {sorted(extra)}")


def main():
    binary = run.build()
    for workload in (w["name"] for w in SPEC["workloads"]):
        lines, result = result_of(binary, workload, "--trace", "0")
        expect_metrics(workload, lines, result, SPEC["end_to_end"])
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            raise AssertionError(f"{workload}: clean run reported {result}")
        for spec in SPEC["end_to_end"]:
            if not result["metrics"][spec["name"]]["value"] > 0:
                raise AssertionError(f"{workload}: {spec['name']} is not positive")

        lines, result = result_of(binary, workload, "--trace", "1")
        expect_metrics(workload, lines, result, SPEC["per_layer"])
        if result["failed"] != 0:
            raise AssertionError(f"{workload}: traced run reported {result}")

        _, result = result_of(binary, workload, "--trace", "0", "--corrupt-expected")
        if result["correct"] or result["failed"] < 1:
            raise AssertionError(f"{workload}: corrupted payload went unnoticed: {result}")
        print(f"{workload}: ok")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
