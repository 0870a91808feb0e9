#!/usr/bin/env python3
"""Compare the computed values of two benchmark result sets.

    python3 perfbench/compare.py A B

A and B are result files written by run.py (perfbench/out/*.json) or
directories of them.  Results are grouped by workload, seed and mode; cases are
matched by id (the same seed gives the same inputs), and every numeric
value of every matched case is compared.  For each workload the largest
relative difference |a - b| / max(|a|, |b|) is reported, with the case and
value where it occurs, so "the same values to the stated tolerances" can be
checked between two versions of the program.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys


def _load(path: str) -> dict:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    sets = {}
    for name in files:
        with open(name, encoding="utf-8") as fh:
            doc = json.load(fh)
        if "cases" not in doc or not doc.get("checked", True):
            continue
        sets[(doc["workload"], doc["seed"], doc["mode"])] = {c["id"]: c for c in doc["cases"]}
    return sets


def _leaves(value, path=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{path}.{k}" if path else str(k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    elif isinstance(value, (int, float)):
        yield path, float(value)


def _rel_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(a: dict, b: dict) -> dict:
    """{workload: (matched cases, max rel diff, where)} over common keys."""
    report: dict = {}
    for key in sorted(set(a) & set(b)):
        workload = key[0]
        matched, worst, where = report.get(workload, (0, 0.0, None))
        for cid in sorted(set(a[key]) & set(b[key])):
            ca, cb = a[key][cid], b[key][cid]
            matched += 1
            if ca["status"] != cb["status"]:
                worst, where = math.inf, f"seed {key[1]} case {cid}: status {ca['status']} vs {cb['status']}"
                continue
            la, lb = dict(_leaves(ca["values"])), dict(_leaves(cb["values"]))
            if la.keys() != lb.keys():
                worst, where = math.inf, f"seed {key[1]} case {cid}: different value sets"
                continue
            for leaf, va in la.items():
                d = _rel_diff(va, lb[leaf])
                if d > worst:
                    worst, where = d, f"seed {key[1]} case {cid} ({ca['kind']}) {leaf}"
        report[workload] = (matched, worst, where)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="largest relative value difference per workload")
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args(argv)
    report = compare(_load(args.a), _load(args.b))
    if not report:
        print("no common (workload, seed) result sets", file=sys.stderr)
        return 2
    for workload, (matched, worst, where) in report.items():
        print(f"{workload}: {matched} matched cases, max relative difference {worst:.3e}"
              + (f" at {where}" if where else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
