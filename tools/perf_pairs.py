#!/usr/bin/env python3
"""Alternating pairs of ``perf/run.py`` in two checkouts (perf/README.md,
"Comparing two sets of runs"): pair *i* runs seed ``--seed + i`` on both
sides, A first on even pairs and B first on odd ones, and every
end-to-end metric is printed with both medians, their quartiles, B/A,
the pairs B won (all metrics are lower-is-better; ties count for
neither), its bound from A's ``BENCHMARK.json`` and whether the gain
rule holds (``claim yes``: B won at least nine tenths of the pairs, and
the medians differ by more than the distance between A's quartiles): a
row whose B/A is above ``1 + bound`` is marked ``WORSE``, and any such
row makes the exit status 1.  Below them, informational only, the uncalibrated
``raw_pass_wall_s`` row of each run's ``results.json``, so the calibrated
ratio can be read beside the raw one.  Several workloads in one call
(``--workload a b`` or ``--workload a --workload b``) print one table
each, in turn.

    python3 tools/perf_pairs.py ../parent . --workload fig10_sim reuse_profile
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: the ``results.json`` row printed below the verdict rows
RAW = "raw_pass_wall_s"


def run_once(checkout: str, workload: str, seed: int) -> dict[str, float]:
    """One ``perf/run.py`` run: its metrics, then its raw seconds.

    A run that exits non-zero (a failed check or a crash) is a
    SystemExit naming the checkout, the seed, the exit status, the
    run's check summary and ``FAILED`` lines if it printed any, and the
    last ten lines of its stderr."""
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "perf/run.py", "--workload", workload]
        cmd += ["--seed", str(seed), "--out", out]
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
        if done.returncode:
            checks = [
                line.strip() for line in done.stdout.splitlines()
                if line.lstrip().startswith(("checks:", "FAILED"))
            ]
            raise SystemExit("\n".join([
                f"{checkout} seed {seed}: exit status {done.returncode}",
                *checks, *done.stderr.strip().splitlines()[-10:],
            ]))
        report = json.loads(done.stdout.strip().splitlines()[-1])
        results = json.loads((Path(out) / "results.json").read_text())
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    return metrics | {RAW: results["workloads"][workload]["rows"][RAW]["value"]}


def spread(xs: list[float]) -> tuple[float, float, float]:
    """``(first quartile, median, third quartile)``."""
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return q1, med, q3


def quartiles(xs: list[float]) -> str:
    q1, med, q3 = spread(xs)
    return f"{med:9.4g} [{q1:.4g}, {q3:.4g}]"


def claim_holds(a: list[float], b: list[float]) -> bool:
    """The gain rule for a lower-is-better metric over pairs ``(a[i],
    b[i])``: B wins at least nine tenths of the pairs (ties count for
    neither), and B's median lies below A's by more than the distance
    between A's quartiles."""
    wins = sum(y < x for x, y in zip(a, b))
    q1, med_a, q3 = spread(a)
    return 10 * wins >= 9 * len(a) and med_a - statistics.median(b) > q3 - q1


def bounds(checkout: str) -> dict[str, float]:
    """The end-to-end bound of every metric ``BENCHMARK.json`` declares."""
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def compare(a_side: str, b_side: str, workload: str, pairs: int, seed: int) -> int:
    """Run and print one workload's table; the number of rows marked WORSE."""
    bound = bounds(a_side)
    runs: dict[str, list[dict[str, float]]] = {a_side: [], b_side: []}
    for i in range(pairs):
        for side in (a_side, b_side) if i % 2 == 0 else (b_side, a_side):
            runs[side].append(run_once(side, workload, seed + i))
        print(f"{workload}: pair {i + 1}/{pairs} done", file=sys.stderr)
    print(f"{workload}: {pairs} pairs from seed {seed}")
    worse = 0
    for name in runs[a_side][0]:
        if name == RAW:
            print("informational (no verdict):")
        a = [r[name] for r in runs[a_side]]
        b = [r[name] for r in runs[b_side]]
        wins = sum(y < x for x, y in zip(a, b))
        ratio = statistics.median(b) / statistics.median(a)
        print(f"{name:15s} A {quartiles(a)}  B {quartiles(b)}", end="  ")
        print(f"B/A {ratio:.3f}  wins {wins}/{len(a)}", end="")
        print(f"  claim {'yes' if claim_holds(a, b) else 'no'}", end="")
        if name in bound:
            flag = ratio > 1 + bound[name]
            worse += flag
            print(f"  bound {bound[name]:g}{'  WORSE' if flag else ''}", end="")
        print()
    return worse


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="checkout of the parent commit")
    ap.add_argument("b", help="checkout of the change")
    ap.add_argument("--workload", required=True, action="extend", nargs="+")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=601, help="seed of the first pair")
    args = ap.parse_args()
    worse = sum(
        compare(args.a, args.b, workload, args.pairs, args.seed)
        for workload in args.workload
    )
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
