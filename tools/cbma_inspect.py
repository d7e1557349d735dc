#!/usr/bin/env python3
"""Validate, summarize and slice the observability exports (DESIGN.md §7).

Usage:
  cbma_inspect.py telemetry    --check [--trace TRACE.json] | --summary  BENCH.json
  cbma_inspect.py link_quality --check | --summary                      BENCH.json
  cbma_inspect.py timeseries   --check | --summary | --csv [--series NAME]
                               [--scope SCOPE]                          BENCH.json
  cbma_inspect.py timeseries   --prom-check                         EXPOSITION.prom
  cbma_inspect.py profile      --check [--collapsed FLAME.txt] | --summary
                               | --top N                                BENCH.json
  cbma_inspect.py probe        --check [--expect-taps a,b,c] | --summary
                               | [--stage NAME] [--tag N] [--point N]   DUMP

One section per observability plane. The first four read the BENCH_*.json
document a plane-enabled bench run wrote; `probe` reads the binary dump.

  telemetry     the span recorder's "telemetry" section: spans with ordered
                percentiles, >= 10 layer.event counters, a flight recorder
                (the frame log: one row per frame sent, the first 4096 by
                sweep point) with strictly increasing seq. --trace also
                parses the CBMA_TRACE Chrome trace and requires traceEvents.
  link_quality  CBMA_PROBE's "link_quality" + "watchdog" sections: per-tag
                aggregates that sum to the sample total, typed warnings.
  timeseries    CBMA_METRICS's "timeseries" + "events" sections: unique
                (name, scope) series within the ring capacity, window
                indices monotone and at most the closed-window count, events
                with strictly increasing seq and a known severity.
                --prom-check parses the Prometheus exposition instead.
  profile       the span recorder's "profile" section: a tree at least two
                levels deep, incl_ns == excl_ns + child_ns at every node,
                child_ns never above the children's inclusive sum, sequential
                roots whose exclusive times sum to their inclusive time, and
                parallel sites whose worker slots sum to their totals.
                --collapsed cross-checks the flamegraph file against it.
  probe         the CBPROBE1 dump: re-walks the binary from its own framing
                and cross-checks every record against <DUMP>.json.

--check fails when the section is missing. The telemetry and profile rules
apply to whatever was recorded; a run that executed no pipeline stage passes
with exactly the all-empty sections. Exits non-zero on the first
failure so CI fails loudly. Stdlib only; check_bench_json.py reuses the
section validators below for any section a document carries.
"""
import argparse
import json
import math
import re
import struct
import sys


def fail(msg: str) -> None:
    print(f"cbma_inspect: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        fail(f"{path} missing")
    except json.JSONDecodeError as e:
        fail(f"{path}: not valid JSON: {e}")


def require_keys(where: str, obj: dict, keys) -> None:
    for key in keys:
        if key not in obj:
            fail(f"{where} missing key '{key}': {obj}")


# --- telemetry ---------------------------------------------------------------

SPAN_KEYS = ("name", "count", "total_ns", "min_ns", "max_ns", "mean_ns",
             "p50_ns", "p90_ns", "p99_ns")
FRAME_KEYS = ("seq", "ts_ns", "tag", "code_length", "correlation", "margin",
              "cfo_hz", "power_dbm", "impedance_level", "outcome",
              "impairment_gates")


# What the recorder writes for a run that executed no pipeline stage
# (fig5_signal_strength): honest, and the only empty sections accepted.
EMPTY_TELEMETRY = {"threads": 0, "spans": [], "counters": {},
                   "flight_recorder": []}
EMPTY_PROFILE = {"threads": 0, "dropped": 0, "tree": [], "parallel": []}


def check_telemetry(name: str, doc: dict) -> None:
    tel = doc["telemetry"]
    require_keys(f"{name}: telemetry", tel,
                 ("threads", "spans", "counters", "flight_recorder"))
    if tel == EMPTY_TELEMETRY:
        return
    if not isinstance(tel["threads"], int) or tel["threads"] < 1:
        fail(f"{name}: telemetry.threads {tel['threads']!r} is not a "
             "positive integer")
    if not isinstance(tel["spans"], list) or not tel["spans"]:
        fail(f"{name}: telemetry.spans missing or empty")
    for span in tel["spans"]:
        require_keys(f"{name}: telemetry span", span, SPAN_KEYS)
        if "/" not in span["name"]:
            fail(f"{name}: span name '{span['name']}' violates the "
                 "layer/stage scheme")
        if span["count"] < 1:
            fail(f"{name}: span '{span['name']}' recorded with count 0")
        if not span["p50_ns"] <= span["p90_ns"] <= span["p99_ns"]:
            fail(f"{name}: span '{span['name']}' percentiles out of order")
        if span["min_ns"] > span["max_ns"]:
            fail(f"{name}: span '{span['name']}' min > max")
    counters = tel["counters"]
    if not isinstance(counters, dict):
        fail(f"{name}: telemetry.counters is not an object")
    for counter, value in counters.items():
        if "." not in counter:
            fail(f"{name}: counter name '{counter}' violates the "
                 "layer.event scheme")
        if not isinstance(value, int) or value < 1:
            fail(f"{name}: counter '{counter}' has non-positive value "
                 f"{value!r} (zero counters are omitted)")
    if len(counters) < 10:
        fail(f"{name}: only {len(counters)} named counters "
             "(the observability contract promises >= 10 on a pipeline run)")
    if not isinstance(tel["flight_recorder"], list):
        fail(f"{name}: telemetry.flight_recorder is not an array")
    prev_seq = -1
    for frame in tel["flight_recorder"]:
        require_keys(f"{name}: flight-recorder frame", frame, FRAME_KEYS)
        if not isinstance(frame["outcome"], str) or not frame["outcome"]:
            fail(f"{name}: flight-recorder outcome should be the rx label, "
                 f"got {frame['outcome']!r}")
        if frame["seq"] <= prev_seq:
            fail(f"{name}: flight-recorder seq not strictly increasing")
        prev_seq = frame["seq"]


def check_trace(path: str) -> None:
    trace = load_json(path)
    if not isinstance(trace, dict) or not trace.get("traceEvents"):
        fail(f"{path}: Chrome trace without traceEvents")
    print(f"cbma_inspect: OK: {path}: {len(trace['traceEvents'])} trace events")


def summarize_telemetry(doc: dict) -> None:
    tel = doc["telemetry"]
    print(f"threads: {tel['threads']}  counters: {len(tel['counters'])}  "
          f"flight recorder: {len(tel['flight_recorder'])} frames")
    print(f"{'span':<24} {'count':>8} {'mean us':>12} {'p99 us':>12}")
    for s in tel["spans"]:
        print(f"{s['name']:<24} {s['count']:>8} {s['mean_ns'] / 1e3:>12.2f} "
              f"{s['p99_ns'] / 1e3:>12.2f}")


# --- link_quality + watchdog -------------------------------------------------

TAG_AGG_KEYS = ("tag", "frames", "decoded", "snr_db_mean", "evm_mean",
                "soft_margin_mean", "margin_ratio_mean", "power_norm_mean",
                "correlation_mean")
WATCHDOG_KEYS = ("metric", "point", "kind", "value", "reference", "detail")


def check_link_quality(name: str, doc: dict) -> None:
    lq = doc["link_quality"]
    require_keys(f"{name}: link_quality", lq, ("samples", "dropped", "tags"))
    for key in ("samples", "dropped"):
        if not isinstance(lq[key], int) or lq[key] < 0:
            fail(f"{name}: link_quality.{key} {lq[key]!r} is not a "
                 "non-negative integer")
    if not isinstance(lq["tags"], list):
        fail(f"{name}: link_quality.tags is not an array")
    frames_total = 0
    for entry in lq["tags"]:
        require_keys(f"{name}: link_quality tag entry", entry, TAG_AGG_KEYS)
        if entry["frames"] < 1:
            fail(f"{name}: link_quality tag {entry['tag']} aggregated over "
                 "0 frames (empty tags are omitted)")
        if entry["decoded"] > entry["frames"]:
            fail(f"{name}: link_quality tag {entry['tag']} decoded more "
                 "frames than it saw")
        frames_total += entry["frames"]
    if frames_total != lq["samples"]:
        fail(f"{name}: link_quality per-tag frames sum to {frames_total}, "
             f"samples says {lq['samples']}")


def check_watchdog(name: str, doc: dict) -> None:
    warnings = doc["watchdog"]
    if not isinstance(warnings, list):
        fail(f"{name}: watchdog section is not an array")
    for warning in warnings:
        require_keys(f"{name}: watchdog warning", warning, WATCHDOG_KEYS)
        if warning["kind"] not in ("floor", "neighbor"):
            fail(f"{name}: watchdog warning kind {warning['kind']!r} is "
                 "neither 'floor' nor 'neighbor'")
        if not isinstance(warning["detail"], str) or not warning["detail"]:
            fail(f"{name}: watchdog warning without a detail line")
        print(f"cbma_inspect: note: {name}: watchdog warning: "
              f"{warning['detail']}")


def summarize_link_quality(doc: dict) -> None:
    lq = doc["link_quality"]
    print(f"samples: {lq['samples']}  dropped: {lq['dropped']}  "
          f"watchdog warnings: {len(doc['watchdog'])}")
    for t in lq["tags"]:
        print(f"  tag {t['tag']}: {t['frames']} frames, {t['decoded']} "
              f"decoded, mean SNR {t['snr_db_mean']:.1f} dB, "
              f"mean margin ratio {t['margin_ratio_mean']:.2f}")


# --- timeseries + events -----------------------------------------------------

SEVERITIES = ("info", "warning", "error")


def check_timeseries(name: str, doc: dict) -> None:
    ts = doc["timeseries"]
    require_keys(f"{name}: timeseries", ts,
                 ("windows", "window_capacity", "dropped", "series"))
    require_keys(f"{name}: timeseries.dropped", ts["dropped"],
                 ("points", "series", "events"))
    if not isinstance(ts["series"], list) or not ts["series"]:
        fail(f"{name}: timeseries.series missing or empty")
    windows = ts["windows"]
    seen = set()
    for series in ts["series"]:
        require_keys(f"{name}: timeseries series", series,
                     ("name", "scope", "points"))
        ident = (series["name"], series["scope"])
        if ident in seen:
            fail(f"{name}: duplicate timeseries series {ident}")
        seen.add(ident)
        if len(series["points"]) > ts["window_capacity"]:
            fail(f"{name}: series {ident} exceeds the ring capacity "
                 f"{ts['window_capacity']}")
        prev = -1
        for point in series["points"]:
            if len(point) != 2 or not isinstance(point[1], (int, float)):
                fail(f"{name}: series {ident} malformed point {point}")
            window = point[0]
            if not isinstance(window, int) or window < 0:
                fail(f"{name}: series {ident} bad window index {window!r}")
            # The last sample of a run may sit in the still-open window
            # (== windows); closed windows are [0, windows).
            if window > windows:
                fail(f"{name}: series {ident} window {window} beyond the "
                     f"closed count {windows}")
            if window < prev:
                fail(f"{name}: series {ident} window indices not monotone "
                     f"({prev} then {window})")
            prev = window


def check_events(name: str, doc: dict) -> None:
    events = doc["events"]
    if not isinstance(events, list):
        fail(f"{name}: events section is not an array")
    windows = doc["timeseries"]["windows"]
    prev_seq = -1
    for event in events:
        require_keys(f"{name}: event", event,
                     ("seq", "window", "severity", "type", "value"))
        if event["seq"] <= prev_seq:
            fail(f"{name}: event seq not strictly increasing at "
                 f"{event['seq']}")
        prev_seq = event["seq"]
        if event["severity"] not in SEVERITIES:
            fail(f"{name}: event severity {event['severity']!r} unknown")
        if not isinstance(event["type"], str) or not event["type"]:
            fail(f"{name}: event without a type label")
        if event["window"] > windows:
            fail(f"{name}: event {event['seq']} window {event['window']} "
                 f"beyond the closed count {windows}")


def summarize_timeseries(doc: dict) -> None:
    ts, events = doc["timeseries"], doc["events"]
    print(f"windows: {ts['windows']}  ring capacity: {ts['window_capacity']}"
          f"  dropped: {ts['dropped']}")
    print(f"{'series':<40} {'scope':<14} {'unit':<6} {'pts':>4} {'last':>14}")
    for s in ts["series"]:
        last = s["points"][-1][1] if s["points"] else float("nan")
        print(f"{s['name']:<40} {s['scope']:<14} {s.get('unit', ''):<6} "
              f"{len(s['points']):>4} {last:>14.6g}")
    tally = {}
    for e in events:
        key = (e["severity"], e["type"])
        tally[key] = tally.get(key, 0) + 1
    print(f"\nevents: {len(events)}")
    for (severity, kind), n in sorted(tally.items()):
        print(f"  {severity:<8} {kind:<24} {n}")


def timeseries_csv(doc: dict, series_filter, scope_filter) -> None:
    print("series,scope,unit,window,value")
    for s in doc["timeseries"]["series"]:
        if series_filter is not None and s["name"] != series_filter:
            continue
        if scope_filter is not None and s["scope"] != scope_filter:
            continue
        for w, v in s["points"]:
            print(f"{s['name']},{s['scope']},{s.get('unit', '')},{w},{v!r}")


PROM_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$")
PROM_LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')
PROM_META = ("cbma_metrics_windows_total", "cbma_metrics_series",
             "cbma_metrics_events_total", "cbma_metrics_dropped_total")


def prom_check(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except FileNotFoundError:
        fail(f"{path} missing")
    names = set()
    samples = 0
    for lineno, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        m = PROM_LINE.match(line)
        if not m:
            fail(f"{path}:{lineno}: unparseable sample line: {line!r}")
        for pair in filter(None, (m.group("labels") or "").split(",")):
            if not PROM_LABEL.match(pair):
                fail(f"{path}:{lineno}: bad label pair {pair!r}")
        try:
            float(m.group("value"))
        except ValueError:
            fail(f"{path}:{lineno}: non-float value {m.group('value')!r}")
        names.add(m.group("name"))
        samples += 1
    for meta in PROM_META:
        if meta not in names:
            fail(f"{path}: required meta gauge '{meta}' missing")
    print(f"cbma_inspect: OK: {path}: {samples} samples, "
          f"{len(names)} metric names")


# --- profile -----------------------------------------------------------------

NODE_KEYS = ("span", "count", "incl_ns", "excl_ns", "child_ns", "children")
SITE_KEYS = ("site", "calls", "items", "wall_ns", "busy_ns", "imbalance",
             "workers")


def flatten(prof):
    """DFS flatten into (path, node) pairs; path frames joined by ';'."""
    rows = []

    def walk(node, prefix):
        require_keys("profile tree node", node, NODE_KEYS)
        path = f"{prefix};{node['span']}" if prefix else node["span"]
        rows.append((path, node))
        for child in node["children"]:
            walk(child, path)

    for root in prof["tree"]:
        walk(root, "")
    return rows


def subtree_excl(node) -> int:
    return node["excl_ns"] + sum(subtree_excl(c) for c in node["children"])


def is_sequential(node) -> bool:
    """True when child_ns accounts for the children exactly, recursively —
    no cross-thread (parallel_for worker) time was merged in."""
    return (node["child_ns"] == sum(c["incl_ns"] for c in node["children"])
            and all(is_sequential(c) for c in node["children"]))


def check_profile(name: str, doc: dict) -> None:
    prof = doc["profile"]
    require_keys(f"{name}: profile", prof,
                 ("threads", "dropped", "tree", "parallel"))
    if prof == EMPTY_PROFILE:
        return
    if not isinstance(prof["threads"], int) or prof["threads"] < 1:
        fail(f"{name}: profile.threads {prof['threads']!r} is not a "
             "positive integer")
    if not isinstance(prof["tree"], list) or not prof["tree"]:
        fail(f"{name}: profile.tree missing or empty")
    rows = flatten(prof)
    depth = max(p.count(";") + 1 for p, _ in rows)
    if depth < 2:
        fail(f"{name}: profile tree is flat (depth {depth}) — caller-path "
             "attribution did not engage")
    for path, node in rows:
        if "/" not in node["span"]:
            fail(f"{name}: profile span '{node['span']}' violates the "
                 "layer/stage scheme")
        if min(node["count"], node["incl_ns"], node["child_ns"]) < 0:
            fail(f"{name}: {path}: negative counter")
        if node["incl_ns"] != node["excl_ns"] + node["child_ns"]:
            fail(f"{name}: {path}: incl {node['incl_ns']} != excl "
                 f"{node['excl_ns']} + child {node['child_ns']}")
        # child_ns counts same-thread children only, so it never exceeds
        # their inclusive sum; the reverse is parallel_for workers.
        child_incl = sum(c["incl_ns"] for c in node["children"])
        if node["child_ns"] > child_incl:
            fail(f"{name}: {path}: child_ns {node['child_ns']} exceeds "
                 f"summed child incl {child_incl}")
    for root in prof["tree"]:
        if is_sequential(root) and subtree_excl(root) != root["incl_ns"]:
            fail(f"{name}: root {root['span']}: subtree exclusive sum "
                 f"{subtree_excl(root)} != root inclusive {root['incl_ns']}")
    for site in prof["parallel"]:
        require_keys(f"{name}: profile parallel site", site, SITE_KEYS)
        if site["imbalance"] < 1.0:
            fail(f"{name}: profile site '{site['site']}' imbalance "
                 f"{site['imbalance']} < 1")
        for key in ("busy_ns", "items"):
            if sum(w[key] for w in site["workers"]) != site[key]:
                fail(f"{name}: profile site '{site['site']}' worker {key} "
                     f"slots do not sum to {key}")


def check_collapsed(path: str, prof: dict) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except FileNotFoundError:
        fail(f"{path} missing")
    total = 0
    prev = ""
    for lineno, line in enumerate(lines, 1):
        frames, sep, value = line.rpartition(" ")
        if not sep or not frames:
            fail(f"{path}:{lineno}: not a 'frames value' line: {line!r}")
        if not value.isdigit():
            fail(f"{path}:{lineno}: non-integer value {value!r}")
        # Strictly increasing order also rules out duplicate stacks.
        if frames <= prev:
            fail(f"{path}:{lineno}: stacks not sorted and unique "
                 f"({prev!r} then {frames!r})")
        prev = frames
        total += int(value)
    # The export drops zero-exclusive rows, so its values must account for
    # exactly the tree's exclusive total.
    tree_excl = sum(node["excl_ns"] for _, node in flatten(prof))
    if total != tree_excl:
        fail(f"{path}: collapsed values sum to {total}, tree exclusive "
             f"total is {tree_excl}")
    print(f"cbma_inspect: OK: {path}: {len(lines)} stacks summing to "
          f"{total} ns")


def summarize_profile(doc: dict) -> None:
    prof = doc["profile"]
    rows = flatten(prof)
    total_excl = sum(node["excl_ns"] for _, node in rows)
    print(f"threads: {prof['threads']}  dropped: {prof['dropped']}  "
          f"paths: {len(rows)}  total exclusive: {total_excl / 1e6:.3f} ms")
    print("\nroots:")
    for root in prof["tree"]:
        print(f"  {root['span']:<24} x{root['count']:<8} "
              f"incl {root['incl_ns'] / 1e6:>12.3f} ms")
    print("\nparallel sites:")
    for site in prof["parallel"]:
        slots = len(site["workers"])
        util = (site["busy_ns"] / (site["wall_ns"] * slots)
                if site["wall_ns"] > 0 and slots > 0 else float("nan"))
        print(f"  {site['site']:<16} calls {site['calls']:<6} "
              f"items {site['items']:<8} workers {slots:<4} "
              f"utilization {util:>6.1%}  imbalance {site['imbalance']:.2f}")


def profile_top(doc: dict, n: int) -> None:
    rows = flatten(doc["profile"])
    rows.sort(key=lambda r: (-r[1]["excl_ns"], r[0]))
    total_excl = sum(node["excl_ns"] for _, node in rows) or 1
    print(f"{'excl ms':>12} {'%':>6} {'count':>8}  caller path")
    for path, node in rows[:n]:
        print(f"{node['excl_ns'] / 1e6:>12.3f} "
              f"{node['excl_ns'] / total_excl:>6.1%} {node['count']:>8}  "
              f"{path}")


# --- BENCH_*.json sections ---------------------------------------------------

# Section -> (document keys it owns, the switch that produces it). Every key
# has exactly one validator.
SECTIONS = {
    "telemetry": (("telemetry",), "CBMA_TELEMETRY=1"),
    "link_quality": (("link_quality", "watchdog"), "CBMA_PROBE=<path>"),
    "timeseries": (("timeseries", "events"), "CBMA_METRICS=<path>"),
    "profile": (("profile",), "CBMA_PROFILE=<path>"),
}
KEY_CHECKS = {
    "telemetry": check_telemetry,
    "link_quality": check_link_quality,
    "watchdog": check_watchdog,
    "timeseries": check_timeseries,
    "events": check_events,
    "profile": check_profile,
}


def check_present_sections(name: str, doc: dict) -> None:
    """Validate every observability section `doc` carries. "watchdog" may
    appear alone (a rule fired on a probe-off run); the metrics pair may
    not."""
    if ("timeseries" in doc) != ("events" in doc):
        fail(f"{name}: timeseries and events sections must appear together")
    for key, check in KEY_CHECKS.items():
        if key in doc:
            check(name, doc)


def require_section(path: str, doc: dict, section: str) -> None:
    keys, switch = SECTIONS[section]
    for key in keys:
        if key not in doc:
            fail(f"{path}: no '{key}' section — was the run made without "
                 f"{switch}?")


# --- probe dump (CBPROBE1) ---------------------------------------------------

MAGIC = b"CBPROBE1"
HEADER = struct.Struct("<QIIQII")  # seq, tap, context, point, iq, n_doubles
TAP_NAMES = ("excitation_envelope", "composite_iq", "sync_energy",
             "correlation_profile", "soft_bits")
LINK_KEYS = ("seq", "point", "tag", "detected", "decoded", "snr_db", "evm",
             "soft_margin", "margin_ratio", "power_norm", "correlation")
MANIFEST_KEYS = ("magic", "schema_version", "dump", "dump_bytes", "records",
                 "dropped_taps", "dropped_link", "taps", "link_quality")


def tap_name(tap: int) -> str:
    return TAP_NAMES[tap] if tap < len(TAP_NAMES) else "unknown"


def read_dump(path: str):
    """Parse the binary from its own framing: (records, total_bytes)."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except FileNotFoundError:
        fail(f"{path} missing")
    if blob[:len(MAGIC)] != MAGIC:
        fail(f"{path}: bad magic {blob[:8]!r} (want {MAGIC!r})")
    records = []
    pos = len(MAGIC)
    while pos < len(blob):
        if pos + HEADER.size > len(blob):
            fail(f"{path}: truncated record header at offset {pos}")
        seq, tap, context, point, iq, n_doubles = HEADER.unpack_from(blob, pos)
        if iq not in (0, 1):
            fail(f"{path}: record at offset {pos} has iq={iq} (want 0/1)")
        if iq and n_doubles % 2:
            fail(f"{path}: IQ record at offset {pos} has odd double count "
                 f"{n_doubles}")
        payload = pos + HEADER.size
        end = payload + 8 * n_doubles
        if end > len(blob):
            fail(f"{path}: record at offset {pos} runs past end of file")
        data = struct.unpack_from(f"<{n_doubles}d", blob, payload)
        if not all(math.isfinite(v) for v in data):
            fail(f"{path}: record seq {seq} carries non-finite samples")
        records.append({
            "offset": pos, "payload_offset": payload, "seq": seq, "tap": tap,
            "context": context, "point": point, "iq": bool(iq),
            "doubles": n_doubles,
            "samples": n_doubles // 2 if iq else n_doubles, "data": data,
        })
        pos = end
    return records, len(blob)


def read_manifest(path: str) -> dict:
    manifest = load_json(path + ".json")
    require_keys(f"{path}.json", manifest, MANIFEST_KEYS)
    if manifest["magic"] != MAGIC.decode():
        fail(f"{path}.json: magic says {manifest['magic']!r}")
    if manifest["schema_version"] != 1:
        fail(f"{path}.json: unexpected schema_version "
             f"{manifest['schema_version']}")
    return manifest


def check_probe(path: str, expect_taps) -> None:
    records, total = read_dump(path)
    manifest = read_manifest(path)
    if manifest["dump_bytes"] != total:
        fail(f"{path}: file is {total} bytes, manifest says "
             f"{manifest['dump_bytes']}")
    if manifest["records"] != len(records):
        fail(f"{path}: binary frames {len(records)} records, manifest says "
             f"{manifest['records']}")
    if len(manifest["taps"]) != len(records):
        fail(f"{path}: manifest lists {len(manifest['taps'])} tap entries "
             f"for {len(records)} records")
    prev_seq = -1
    for i, (rec, entry) in enumerate(zip(records, manifest["taps"])):
        for key in ("seq", "context", "point", "iq", "doubles", "samples",
                    "offset", "payload_offset"):
            if entry.get(key) != rec[key]:
                fail(f"{path}: record {i} {key}: binary {rec[key]}, "
                     f"manifest {entry.get(key)!r}")
        if entry.get("tap") != tap_name(rec["tap"]):
            fail(f"{path}: record {i} tap: binary {tap_name(rec['tap'])!r}, "
                 f"manifest {entry.get('tap')!r}")
        if rec["seq"] <= prev_seq:
            fail(f"{path}: record {i} seq {rec['seq']} not strictly "
                 "increasing")
        prev_seq = rec["seq"]
    for i, row in enumerate(manifest["link_quality"]):
        require_keys(f"{path}: link_quality row {i}", row, LINK_KEYS)
        for key in LINK_KEYS[5:]:
            if not isinstance(row[key], (int, float)) or \
                    not math.isfinite(row[key]):
                fail(f"{path}: link_quality row {i} {key} is {row[key]!r}")
        if row["decoded"] and not row["detected"]:
            fail(f"{path}: link_quality row {i} decoded without detection")
    seen = {tap_name(r["tap"]) for r in records}
    for want in expect_taps or ():
        if want not in TAP_NAMES:
            fail(f"--expect-taps: unknown tap '{want}' "
                 f"(known: {', '.join(TAP_NAMES)})")
        if want not in seen:
            fail(f"{path}: no '{want}' records captured "
                 f"(saw: {', '.join(sorted(seen)) or 'none'})")
    print(f"cbma_inspect: OK: {path}: {len(records)} records "
          f"({total} bytes), {len(manifest['link_quality'])} link-quality "
          f"rows, {manifest['dropped_taps']} dropped taps")


def summarize_probe(path: str) -> None:
    records, total = read_dump(path)
    manifest = read_manifest(path)
    print(f"{path}: {len(records)} records, {total} bytes, "
          f"dropped taps {manifest['dropped_taps']}, "
          f"dropped link rows {manifest['dropped_link']}")
    by_tap = {}
    for rec in records:
        entry = by_tap.setdefault(tap_name(rec["tap"]), [0, 0])
        entry[0] += 1
        entry[1] += rec["samples"]
    for name in TAP_NAMES:
        if name in by_tap:
            count, samples = by_tap[name]
            print(f"  {name:20s} {count:6d} records {samples:9d} samples")
    by_tag = {}
    for row in manifest["link_quality"]:
        agg = by_tag.setdefault(row["tag"], [0, 0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += 1 if row["decoded"] else 0
        agg[2] += row["snr_db"]
        agg[3] += row["margin_ratio"]
    for tag in sorted(by_tag):
        frames, decoded, snr, ratio = by_tag[tag]
        print(f"  tag {tag}: {frames} frames, {decoded} decoded, "
              f"mean SNR {snr / frames:.1f} dB, "
              f"mean margin ratio {ratio / frames:.2f}")


def slice_probe(path: str, stage, tag, point) -> None:
    records, _ = read_dump(path)
    manifest = read_manifest(path)
    shown = 0
    for rec in records:
        name = tap_name(rec["tap"])
        if (stage is not None and name != stage) or \
                (tag is not None and rec["context"] != tag) or \
                (point is not None and rec["point"] != point):
            continue
        head = ", ".join(f"{v:.4g}" for v in rec["data"][:6])
        more = " ..." if rec["doubles"] > 6 else ""
        print(f"seq {rec['seq']:6d} {name:20s} context {rec['context']:3d} "
              f"point {rec['point']:4d} {rec['samples']:6d} samples "
              f"[{head}{more}]")
        shown += 1
    for row in manifest["link_quality"]:
        # Link rows have no stage, so a --stage filter hides them all.
        if stage is not None or (tag is not None and row["tag"] != tag) or \
                (point is not None and row["point"] != point):
            continue
        print(f"seq {row['seq']:6d} {'link_quality':20s} tag {row['tag']:3d} "
              f"point {row['point']:4d} snr {row['snr_db']:.1f} dB "
              f"evm {row['evm']:.3f} margin-ratio {row['margin_ratio']:.2f} "
              f"decoded {row['decoded']}")
        shown += 1
    print(f"cbma_inspect: {shown} matching entries")


# --- command line ------------------------------------------------------------

# The modes each section accepts; None is probe's slicing (no mode flag).
MODES = {
    "telemetry": ("check", "summary"),
    "link_quality": ("check", "summary"),
    "timeseries": ("check", "summary", "csv", "prom_check"),
    "profile": ("check", "summary", "top"),
    "probe": ("check", "summary", None),
}
SUMMARIES = {
    "telemetry": summarize_telemetry,
    "link_quality": summarize_link_quality,
    "timeseries": summarize_timeseries,
    "profile": summarize_profile,
}


def main() -> None:
    ap = argparse.ArgumentParser(
        description="Validate/summarize/slice the observability exports")
    ap.add_argument("section", choices=MODES)
    ap.add_argument("path", help="BENCH_*.json, or the probe dump, or the "
                                 "Prometheus exposition with --prom-check")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--summary", action="store_true")
    mode.add_argument("--csv", action="store_true", help="timeseries")
    mode.add_argument("--prom-check", action="store_true", help="timeseries")
    mode.add_argument("--top", type=int, metavar="N", help="profile")
    ap.add_argument("--trace", help="telemetry --check: the Chrome trace")
    ap.add_argument("--series", help="timeseries --csv: one series name")
    ap.add_argument("--scope", help="timeseries --csv: one scope "
                                    "(e.g. cell=3; '' for global)")
    ap.add_argument("--collapsed", metavar="FLAME",
                    help="profile --check: the collapsed-stack file")
    ap.add_argument("--expect-taps", help="probe --check: a,b,c")
    ap.add_argument("--stage", help="probe slicing: tap name")
    ap.add_argument("--tag", type=int, help="probe slicing: tag/context")
    ap.add_argument("--point", type=int, help="probe slicing: sweep point")
    args = ap.parse_args()
    chosen = [m for m in ("check", "summary", "csv", "prom_check", "top")
              if getattr(args, m) not in (False, None)]
    mode = chosen[0] if chosen else None
    if mode not in MODES[args.section]:
        ap.error(f"{args.section} takes "
                 + " | ".join(f"--{m.replace('_', '-')}" if m else "no mode"
                              for m in MODES[args.section]))

    if args.section == "probe":
        if mode == "check":
            check_probe(args.path, args.expect_taps.split(",")
                        if args.expect_taps else None)
        elif mode == "summary":
            summarize_probe(args.path)
        else:
            slice_probe(args.path, args.stage, args.tag, args.point)
        return
    if mode == "prom_check":
        prom_check(args.path)
        return

    doc = load_json(args.path)
    require_section(args.path, doc, args.section)
    if mode == "check":
        for key in SECTIONS[args.section][0]:
            KEY_CHECKS[key](args.path, doc)
        if args.section == "telemetry" and args.trace:
            check_trace(args.trace)
        if args.section == "profile" and args.collapsed:
            check_collapsed(args.collapsed, doc["profile"])
        print(f"cbma_inspect: OK: {args.path}: {args.section}")
    elif mode == "summary":
        SUMMARIES[args.section](doc)
    elif mode == "csv":
        timeseries_csv(doc, args.series, args.scope)
    else:
        profile_top(doc, args.top)


if __name__ == "__main__":
    main()
