#!/usr/bin/env python3
"""Validate the BENCH_*.json artifacts the bench suite emits.

Usage: check_bench_json.py <dir> <bench-name>...

For every listed bench the script requires <dir>/BENCH_<name>.json to
exist, parse, and carry the recorder schema (schema_version 1): bench
metadata, config summary + fingerprint, axes consistent with the point
grid, per-point metrics, captured tables, and shape-check verdicts. Any
observability section the document carries (telemetry, link_quality,
watchdog, timeseries + events, profile) must pass the same validator
`cbma_inspect.py <section> --check` runs; requiring a section is that
tool's job. `kernels` is special-cased: bench_kernels emits
google-benchmark's own JSON, which is validated as such. Exits non-zero on
the first failure so CI fails loudly on a missing or malformed document.
"""
import json
import sys

from cbma_inspect import check_present_sections


def fail(msg: str) -> None:
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_recorder_doc(name: str, doc: dict) -> None:
    for key in ("schema_version", "bench", "title", "paper_ref", "config",
                "base_seed", "trials_per_point", "axes", "points", "tables",
                "checks", "notes"):
        if key not in doc:
            fail(f"{name}: missing key '{key}'")
    if doc["schema_version"] != 1:
        fail(f"{name}: unexpected schema_version {doc['schema_version']}")
    if doc["bench"] != name:
        fail(f"{name}: bench field says '{doc['bench']}'")
    config = doc["config"]
    if not isinstance(config.get("summary"), str) or not config["summary"]:
        fail(f"{name}: config.summary missing or empty")
    fingerprint = config.get("fingerprint", "")
    if len(fingerprint) != 16 or any(c not in "0123456789abcdef" for c in fingerprint):
        fail(f"{name}: config.fingerprint '{fingerprint}' is not 16 hex digits")

    expected_points = 1
    for axis in doc["axes"]:
        if "name" not in axis:
            fail(f"{name}: axis without a name")
        size = len(axis.get("values", axis.get("labels", [])))
        if size == 0:
            fail(f"{name}: axis '{axis['name']}' has neither values nor labels")
        expected_points *= size
    if len(doc["points"]) != expected_points:
        fail(f"{name}: {len(doc['points'])} points, axes imply {expected_points}")
    for i, point in enumerate(doc["points"]):
        if len(point.get("index", [])) != len(doc["axes"]):
            fail(f"{name}: point {i} index arity != axis count")
        if not isinstance(point.get("metrics"), dict):
            fail(f"{name}: point {i} has no metrics object")
    for table in doc["tables"]:
        width = len(table.get("headers", []))
        if width == 0:
            fail(f"{name}: table without headers")
        for row in table.get("rows", []):
            if len(row) != width:
                fail(f"{name}: table row width {len(row)} != header width {width}")
    for check in doc["checks"]:
        if "name" not in check or not isinstance(check.get("holds"), bool):
            fail(f"{name}: malformed shape check {check}")
        if not check["holds"]:
            print(f"check_bench_json: note: {name}: shape check VIOLATED: "
                  f"{check['name']}")
    check_present_sections(name, doc)


def check_google_benchmark_doc(name: str, doc: dict) -> None:
    if "benchmarks" not in doc or not isinstance(doc["benchmarks"], list):
        fail(f"{name}: google-benchmark JSON without a 'benchmarks' array")
    if not doc["benchmarks"]:
        fail(f"{name}: google-benchmark JSON with zero benchmarks")


def main() -> None:
    args = sys.argv[1:]
    if len(args) < 2:
        fail("usage: check_bench_json.py <dir> <bench-name>...")
    directory, names = args[0], args[1:]
    for name in names:
        path = f"{directory}/BENCH_{name}.json"
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except FileNotFoundError:
            fail(f"{path} missing — did the bench crash before finish()?")
        except json.JSONDecodeError as e:
            fail(f"{path} is not valid JSON: {e}")
        if name == "kernels":
            check_google_benchmark_doc(name, doc)
        else:
            check_recorder_doc(name, doc)
        print(f"check_bench_json: OK: {path}")
    print(f"check_bench_json: validated {len(names)} documents")


if __name__ == "__main__":
    main()
