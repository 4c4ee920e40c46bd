#!/usr/bin/env python3
"""Compare two sets of OCB benchmark results: the parent's and a change's.

    python3 ocbbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result JSONs that ocbbench/run.py writes (one per
run; untraced runs are compared). For every workload and end-to-end metric
of BENCHMARK.json it prints each side's median and quartiles and a verdict:

  better      a claimable gain: at least 10 pairs (runs with the same
              seed), the change wins at least 9 in 10 of them, ties
              counting for neither, and its median is better by more than
              the parent's interquartile range
  unresolved  the parent's own spread (interquartile range over median)
              exceeds the bound, and not every change run beats every
              parent run
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  same        none of the above

A rise in the failed fraction (failed over attempted) is flagged, and so
are differing host facts. The exit code is 1 when anything is worse or
more transactions failed, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            r = json.load(f)
        if r.get("trace") == 0 and "metrics" in r:
            runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better_than(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(metric, parent, change):
    """Returns (verdict, detail) for one metric of one workload."""
    direction, bound = metric["better"], metric["bound"]
    p = [r["value"] for _, r in parent]
    c = [r["value"] for _, r in change]
    p1, pm, p3 = quartiles(p)
    _, cm, _ = quartiles(c)
    sign = 1 if direction == "lower" else -1
    worsening = sign * (cm - pm) / pm if pm else 0.0
    parent_spread = (p3 - p1) / pm if pm else 0.0

    c_by_seed = {seed: v["value"] for seed, v in change}
    pairs = [(v["value"], c_by_seed[seed]) for seed, v in parent
             if seed in c_by_seed]
    wins = sum(better_than(cv, pv, direction) for pv, cv in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and better_than(cm, pm, direction) and abs(cm - pm) > p3 - p1):
        return "better", f"won {wins}/{len(pairs)} pairs"
    if parent_spread > bound:
        if all(better_than(cv, pv, direction) for pv in p for cv in c):
            return "same", "every change run beats every parent run"
        return "unresolved", f"parent spread {parent_spread:.1%} > bound"
    if worsening > bound:
        return "worse", f"{worsening:+.1%} past bound {bound:.0%}"
    return "same", f"{worsening:+.1%} within bound {bound:.0%}"


def failed_fraction(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def host_facts(runs):
    facts = set()
    for rs in runs.values():
        for r in rs:
            h = r.get("host", {})
            facts.add(tuple((k, h.get(k)) for k in
                            ("nproc", "build_type", "compiler", "work_dir_fs")))
    return facts


def fmt(values):
    q1, m, q3 = quartiles(values)
    return f"{m:.4g} [{q1:.4g}, {q3:.4g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec", type=Path,
                        default=Path(__file__).resolve().parent.parent /
                        "BENCHMARK.json")
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    parent, change = load(args.parent), load(args.change)

    hosts = host_facts(parent) | host_facts(change)
    if len(hosts) > 1:
        print("WARNING: results come from different hosts or builds:")
        for h in sorted(hosts, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in h))

    bad = False
    print(f"{'workload':16s} {'metric':16s} {'parent median [q1, q3]':30s} "
          f"{'change median [q1, q3]':30s} verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in parent or name not in change:
            print(f"{name:16s} missing on one side")
            continue
        for m in spec["end_to_end"]:
            side = [[(r["seed"], r["metrics"][m["name"]]) for r in runs]
                    for runs in (parent[name], change[name])]
            v, detail = verdict(m, side[0], side[1])
            bad |= v == "worse"
            print(f"{name:16s} {m['name']:16s} "
                  f"{fmt([x['value'] for _, x in side[0]]):30s} "
                  f"{fmt([x['value'] for _, x in side[1]]):30s} "
                  f"{v} ({detail})")
        pf, cf = failed_fraction(parent[name]), failed_fraction(change[name])
        if cf > pf:
            bad = True
            print(f"{name:16s} FAILED FRACTION ROSE: {pf:.4%} -> {cf:.4%}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
