#!/usr/bin/env python3
"""Schema check for the benches' machine-readable output (OCB_BENCH_JSON).

Usage: check_bench_json.py BENCH_multiclient.json [more.json ...]

Validates the envelope every bench shares:

    {"bench": "<name>", "schema_version": 1, "sweep": [<point>, ...]}

and, per sweep point, the section-specific required keys plus the shared
histogram shape {"count","mean","p50","p95","p99","max"}. Exits non-zero
with a per-file report on any violation — CI runs this against both the
freshly produced file and the committed example
(docs/BENCH_multiclient.example.json), so schema drift breaks the build
instead of silently breaking downstream dashboards.
"""

import json
import sys

HISTOGRAM_KEYS = {"count", "mean", "p50", "p95", "p99", "max"}

# Required scalar keys per section of the multiclient bench. Other
# benches that adopt the sink add their sections here.
SECTION_KEYS = {
    "latch": {
        "clients", "mode", "committed", "aborts", "abort_rate",
        "throughput_tps", "wall_micros", "lock_wait_nanos",
        "facade_wait_nanos", "page_latch_wait_nanos", "buffer_hit_ratio",
    },
    "shard": {
        "shards", "clients", "mode", "committed", "aborts", "abort_rate",
        "throughput_tps", "wall_micros", "lock_wait_nanos",
        "cross_shard_commits", "cross_shard_fraction", "twopc_nanos",
    },
    "groupcommit": {
        "engine", "batch_cap", "commits", "batches", "mean_batch",
        "max_batch", "batch_nanos", "nanos_per_commit", "log_force_nanos",
        "wall_nanos",
    },
    "wal": {
        "engine", "wal", "commits", "batches", "wal_appends", "wal_forces",
        "nanos_per_commit", "wall_nanos",
    },
    "io": {
        "mode", "io_workers", "clients", "committed", "throughput_tps",
        "wall_micros", "misses_issued", "overlap_ratio",
        "flusher_peak_depth",
    },
    "cc": {
        "algo", "mix", "clients", "committed", "conflict_aborts",
        "abort_rate", "throughput_tps", "wall_micros",
    },
}

# Sections that carry per-point tail distributions, and which
# histograms each must include.
EXPECTED_HISTOGRAMS = {
    "latch": {"lock_wait", "commit_latency", "twopc"},
    "shard": {"lock_wait", "commit_latency", "twopc"},
    "io": {"io_wait"},
}
HISTOGRAM_SECTIONS = set(EXPECTED_HISTOGRAMS)


def check_histogram(errors, where, histo):
    if not isinstance(histo, dict):
        errors.append(f"{where}: histogram is not an object")
        return
    missing = HISTOGRAM_KEYS - histo.keys()
    if missing:
        errors.append(f"{where}: histogram missing keys {sorted(missing)}")
        return
    for key in HISTOGRAM_KEYS:
        if not isinstance(histo[key], (int, float)):
            errors.append(f"{where}.{key}: not a number")
    if histo["count"] > 0:
        if not (histo["p50"] <= histo["p95"] <= histo["p99"] <= histo["max"]):
            errors.append(f"{where}: percentiles not monotonic: {histo}")


def check_registry(errors, where, registry):
    if not isinstance(registry, dict):
        errors.append(f"{where}: registry is not an object")
        return
    for key in ("counters", "histograms"):
        if key not in registry:
            errors.append(f"{where}: registry missing '{key}'")
            return
    for name, value in registry["counters"].items():
        if not isinstance(value, (int, float)):
            errors.append(f"{where}.counters.{name}: not a number")
    for name, histo in registry["histograms"].items():
        check_histogram(errors, f"{where}.histograms.{name}", histo)


def check_point(errors, index, point):
    where = f"sweep[{index}]"
    section = point.get("section")
    if section not in SECTION_KEYS:
        errors.append(f"{where}: unknown or missing section {section!r}")
        return
    missing = SECTION_KEYS[section] - point.keys()
    if missing:
        errors.append(
            f"{where} ({section}): missing keys {sorted(missing)}")
    if section in HISTOGRAM_SECTIONS:
        histograms = point.get("histograms")
        if not isinstance(histograms, dict):
            errors.append(f"{where} ({section}): missing histograms object")
        else:
            for name in EXPECTED_HISTOGRAMS[section] - histograms.keys():
                errors.append(
                    f"{where} ({section}): missing histogram '{name}'")
            for name, histo in histograms.items():
                check_histogram(errors, f"{where}.histograms.{name}", histo)
    if "registry" in point:
        check_registry(errors, f"{where}.registry", point["registry"])
    if "throughput_tps" in point and point.get("committed", 0) > 0:
        if not point["throughput_tps"] > 0:
            errors.append(
                f"{where}: committed {point['committed']} transactions "
                f"but throughput_tps is {point['throughput_tps']}")


def check_file(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"cannot parse: {e}"]

    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        errors.append("missing or empty 'bench' name")
    if doc.get("schema_version") != 1:
        errors.append(
            f"schema_version is {doc.get('schema_version')!r}, expected 1")
    sweep = doc.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        errors.append("'sweep' missing, not an array, or empty")
        return errors
    for i, point in enumerate(sweep):
        if not isinstance(point, dict):
            errors.append(f"sweep[{i}]: not an object")
            continue
        check_point(errors, i, point)
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    failed = False
    for path in argv[1:]:
        errors = check_file(path)
        if errors:
            failed = True
            print(f"FAIL {path}:")
            for e in errors:
                print(f"  - {e}")
        else:
            with open(path, encoding="utf-8") as f:
                n = len(json.load(f)["sweep"])
            print(f"OK   {path}: {n} sweep points")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
