#!/usr/bin/env python3
"""Alternating pairs of ``perf/run.py`` in two checkouts (perf/README.md,
"Comparing two sets of runs"): pair *i* runs seed ``--seed + i`` on both
sides, A first on even pairs and B first on odd ones, and every
end-to-end metric is printed with both medians, their quartiles, B/A and
the pairs B won (all metrics are lower-is-better; ties count for neither).

    python3 tools/perf_pairs.py /root/scratch/parent . --workload fig10_sim
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile


def run_once(checkout: str, workload: str, seed: int) -> dict[str, float]:
    """One ``perf/run.py`` run; its metrics, or SystemExit on a failed check."""
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "perf/run.py", "--workload", workload]
        cmd += ["--seed", str(seed), "--out", out]
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode or report["failed"]:
        raise SystemExit(f"{checkout} seed {seed}: {report['failed']} failed checks")
    return {name: m["value"] for name, m in report["metrics"].items()}


def quartiles(xs: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return f"{med:9.4g} [{q1:.4g}, {q3:.4g}]"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="checkout of the parent commit")
    ap.add_argument("b", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=601, help="seed of the first pair")
    args = ap.parse_args()
    runs: dict[str, list[dict[str, float]]] = {args.a: [], args.b: []}
    for i in range(args.pairs):
        for side in (args.a, args.b) if i % 2 == 0 else (args.b, args.a):
            runs[side].append(run_once(side, args.workload, args.seed + i))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"{args.workload}: {args.pairs} pairs from seed {args.seed}")
    for name in runs[args.a][0]:
        a = [r[name] for r in runs[args.a]]
        b = [r[name] for r in runs[args.b]]
        wins = sum(y < x for x, y in zip(a, b))
        ratio = statistics.median(b) / statistics.median(a)
        print(f"{name:12s} A {quartiles(a)}  B {quartiles(b)}", end="  ")
        print(f"B/A {ratio:.3f}  wins {wins}/{len(a)}")


if __name__ == "__main__":
    main()
