#!/usr/bin/env python3
"""Compare two result files of perf/run.py, row by row.

    python3 perf/compare.py A.json B.json

A is the base, B the candidate.  Every (end-to-end metric, workload) row
gets the bound BENCHMARK.json fixed for the metric and one verdict:

``regressed``   B's median is worse than A's by more than the bound
``improved``    better by more than the bound, or every B sample beats
                every A sample
``unchanged``   within the bound
``unresolved``  a side's own spread (quartile distance / median) is wider
                than the bound, so the row cannot tell

Two ``layers.json`` files (``--trace 1`` runs) are compared on their
exact counts instead, which must be identical.  Exit code 1 on any
``regressed`` row, a higher ``failed_share`` or a differing count.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def spread(row: dict) -> float:
    return (row["q3"] - row["q1"]) / row["value"] if row.get("n", 1) > 1 else 0.0


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (b["value"] / a["value"] - 1.0)
    if max(spread(a), spread(b)) > bound:
        a_best = min(sign * v for v in a["samples"])
        b_worst = max(sign * v for v in b["samples"])
        return "improved" if b_worst < a_best else "unresolved"
    if worse_by > bound:
        return "regressed"
    return "improved" if worse_by < -bound else "unchanged"


def compare(a_doc: dict, b_doc: dict) -> int:
    bad = 0
    shared = [w for w in a_doc["workloads"] if w in b_doc["workloads"]]
    print(f"{'workload':14s} {'metric':12s} {'A (base)':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload in shared:
        a_rows = a_doc["workloads"][workload]["rows"]
        b_rows = b_doc["workloads"][workload]["rows"]
        for metric in BENCHMARK["end_to_end"]:
            a, b = a_rows.get(metric["name"]), b_rows.get(metric["name"])
            if a is None or b is None:
                continue
            outcome = verdict(a, b, metric["bound"], metric["better"] == "lower")
            bad += outcome == "regressed"
            print(f"{workload:14s} {metric['name']:12s} {a['value']:>12.5g} "
                  f"{b['value']:>12.5g} {b['value'] / a['value']:>7.3f} "
                  f"{metric['bound']:>6.2f} {max(spread(a), spread(b)):>7.3f}  {outcome}")
        if "failed_share" in a_rows and "failed_share" in b_rows:
            fa, fb = a_rows["failed_share"]["value"], b_rows["failed_share"]["value"]
            if fb > fa:
                bad += 1
                print(f"{workload:14s} failed_share rose from {fa:.4g} to {fb:.4g}")
        for metric in BENCHMARK["per_layer"]:
            name = metric["name"]
            if metric["unit"] == "count" and name in a_rows and name in b_rows:
                if a_rows[name]["value"] != b_rows[name]["value"]:
                    bad += 1
                    print(f"{workload:14s} {name} differs: "
                          f"{a_rows[name]['value']} != {b_rows[name]['value']}")
    if not shared:
        print("no workload in common")
        return 1
    print("regressed or differing rows:", bad)
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    return compare(a_doc, b_doc)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
