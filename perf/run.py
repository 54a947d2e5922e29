#!/usr/bin/env python3
"""The performance ledger: one command, every metric by name.

    python3 perf/run.py [--workload W] [--seed S] [--seconds T] [--trace 0|1]
                        [--quick] [--out DIR] [--expected FILE]
    python3 perf/run.py --regen-expected

Each workload runs in a fresh single-threaded child process with a
pinned environment.  ``--trace 0`` measures the end-to-end metrics with
no span recorded; ``--trace 1`` is the separate per-layer run.  Every
output is checked against values the oracle engines gave; any failed
check makes the exit code 1.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans as span_tools  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Checks, Layers, draw, load_repro, maxrss_mb, rates,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}

#: fewest measured passes behind a median
MIN_PASSES = 3
#: set-up is timed in this many fresh processes per run
SETUP_SAMPLES = 3
#: seconds the calibration kernel takes on the reference box; pass times
#: are reported as if the box ran the kernel at exactly this speed
CAL_NOMINAL_S = 0.06
CHILD_TIMEOUT_S = 170


# -- the parent: environment, children, reporting ------------------------------


def child_env(tmp: Path) -> dict:
    """The pinned environment every child runs in.

    One thread, default engines, no cache or temp file outside ``tmp``.
    The allocator settings keep freed numpy buffers mapped: without them
    every pass re-faults ~55k pages and the hypervisor's fault cost
    (0.3-2 s a pass on the reference box) drowns the code's own time.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CACHE_DIR=str(tmp / "cache"),
        REPRO_RUNS_DIR=str(tmp / "runs"),
        TMPDIR=str(tmp),
        MALLOC_MMAP_MAX_="0",
        MALLOC_TRIM_THRESHOLD_=str(2**34),
        MALLOC_TOP_PAD_=str(2**28),
    )
    return env


def launch(args, workload: str, tmp: Path, mode: str) -> dict:
    """Run one child to completion and return the object it printed."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", mode,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(args.out), "--expected", str(args.expected),
        "--t0", repr(time.monotonic()),
    ]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(
            cmd, env=child_env(tmp), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S if mode != "regen" else None,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {workload} child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def describe(values: list[float]) -> dict:
    """Median with the sample count, extremes and quartiles behind it."""
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = q3 = ordered[0]
    return {
        "value": statistics.median(ordered), "n": len(ordered),
        "min": ordered[0], "q1": q1, "q3": q3, "max": ordered[-1],
        "samples": values,
    }


def run_workload(args, workload: str) -> dict:
    """One workload, start to finish: children, metrics, report."""
    args.out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=args.out))
    try:
        child = launch(args, workload, tmp, "run")
        setups = [child["setup_s"]]
        if not args.trace:
            setups += [
                launch(args, workload, tmp, "setup")["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rows: dict[str, dict] = {}
    if args.trace:
        for name, meta in PER_LAYER.items():
            rows[name] = {"value": child["layers"].get(name, 0.0), "n": 1,
                          "unit": meta["unit"]}
    else:
        rows["pass_wall_s"] = describe(child["wall_s"])
        rows["pass_cpu_s"] = describe(child["cpu_s"])
        rows["peak_rss_mb"] = describe([child["peak_rss_mb"]])
        rows["setup_s"] = describe(setups)
        for name in rows:
            rows[name]["unit"] = END_TO_END[name]["unit"]
        rows["failed_share"] = {
            "value": child["failed"] / child["attempted"], "n": child["attempted"],
            "unit": "ratio",
        }
        rows["raw_pass_wall_s"] = {**describe(child["raw_wall_s"]), "unit": "s"}
    result = {
        "workload": workload, "header": child["header"], "rows": rows,
        "attempted": child["attempted"], "failed": child["failed"],
        "messages": child["messages"],
    }
    report(result, child)
    return result


def report(result: dict, child: dict) -> None:
    header = result["header"]
    print(f"== {result['workload']}  seed={header['seed']}  "
          f"python={header['python']} numpy={header['numpy']} "
          f"nproc={header['nproc']} engine={header['engine']} "
          f"items={len(header['items'])} quick={header['quick']}")
    print(f"   sizes: {' '.join(header['items'])}")
    for name, row in result["rows"].items():
        line = f"   {name:34s} {row['value']:>16.6g} {row['unit']:<6s} n={row['n']}"
        if "q1" in row and row["n"] > 1:
            line += (f"  min={row['min']:.4g} q1={row['q1']:.4g} "
                     f"q3={row['q3']:.4g} max={row['max']:.4g}")
        print(line)
    for label, shares in child.get("shares", {}).items():
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        print(f"   {label}: " + "  ".join(f"{k}={100 * v:.1f}%" for k, v in ranked))
    print(f"   checks: {result['failed']} failed of {result['attempted']}")
    for message in result["messages"]:
        print(f"   FAILED {message}")


def last_line(results: list[dict], traced: bool) -> dict:
    """The contract's result object (metric names carry the workload
    only when more than one was run)."""
    declared = PER_LAYER if traced else END_TO_END
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        for name in declared:
            row = res["rows"][name]
            metrics[prefix + name] = {"value": row["value"], "unit": row["unit"]}
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def regen_expected(args) -> None:
    """Rebuild expected.json through the oracle engines only."""
    args.out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=args.out))
    try:
        parts = {name: launch(args, name, tmp, "regen") for name in WORKLOADS}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    document = {
        "generated_at_commit": commit,
        "oracle_engines": "interp tracer + reference simulator "
                          "(simulate_stream/simulate_cache engine='reference', "
                          "tune engine='reference+interp', simulate_msi)",
        "workloads": {name: part["expected"] for name, part in parts.items()},
    }
    args.expected.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.expected} "
          f"({sum(len(p['expected']) for p in parts.values())} items)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="measured seconds per workload (whole passes, "
                             f"never fewer than {MIN_PASSES})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, short item lists, one pass: a self-check, "
                             "not a measurement")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json")
    parser.add_argument("--regen-expected", action="store_true")
    parser.add_argument("--child", choices=("run", "setup", "regen"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    args.expected = args.expected.resolve()
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.regen_expected:
        regen_expected(args)
        return 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = [run_workload(args, name) for name in names]
    target = args.out / ("layers.json" if args.trace else "results.json")
    target.write_text(json.dumps(
        {"header": results[0]["header"], "workloads": {r["workload"]: r for r in results}},
        indent=1) + "\n")
    final = last_line(results, bool(args.trace))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


# -- the child: one workload in a fresh process --------------------------------


def calibrate() -> tuple[float, float]:
    """(wall, cpu) seconds of a fixed kernel that touches no ``repro`` code.

    The reference box's speed drifts by 20 % over seconds to minutes
    (shared host); timing the same numpy / integer-loop / object-churn mix
    around and within every pass turns that drift into a ratio that cancels.
    """
    import numpy as np

    w0, c0 = time.perf_counter(), time.process_time()
    values = (np.arange(200_000, dtype=np.int64) * 2654435761) % 1048573
    for _ in range(2):
        order = np.sort(values)
        gathered = values[order % values.size]
        np.unique(gathered >> 6)
        np.diff(np.cumsum(values))
    tree = [0] * 4097
    total = 0
    for k in range(15_000):
        i = (k * 7919) % 4096 + 1
        while i <= 4096:
            tree[i] += 1
            i += i & (-i)
        i = (k * 104729) % 4096 + 1
        while i > 0:
            total += tree[i]
            i -= i & (-i)
    table = {}
    for k in range(12_000):
        table[(k % 997, k % 13)] = (k, str(k))
    sorted(table.items(), key=lambda kv: kv[1])
    return time.perf_counter() - w0, time.process_time() - c0


class Pacer:
    """Times the calibration kernel around a pass and, by an interval
    timer, every ``GAP_S`` of work within it.

    The signal handler runs the kernel in the main thread between two
    bytecodes of the workload, so a pass made of three long ``tune()``
    calls is sampled as densely as one made of eighty short ``run()``
    calls.  The kernel's own time is no part of the pass.
    """

    GAP_S = 0.3

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self) -> None:
        wall, cpu = calibrate()
        self.wall.append(wall)
        self.cpu.append(cpu)

    def _fire(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.GAP_S)

    def time(self, fn):
        """(wall, cpu, result) of ``fn()`` with the samples taken out."""
        self.sample()
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.GAP_S)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - w0 - sum(self.wall[1:])
        cpu = time.process_time() - c0 - sum(self.cpu[1:])
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return wall, cpu, result

    def scale(self, wall: float, cpu: float) -> tuple[float, float]:
        """Seconds as a box running the kernel in ``CAL_NOMINAL_S`` would
        have measured them."""
        return (wall * CAL_NOMINAL_S / statistics.fmean(self.wall),
                cpu * CAL_NOMINAL_S / statistics.fmean(self.cpu))


def timed_pass(workload, state, items, tracer, expected, checks, pacer=None):
    """One pass: (wall, cpu) seconds of ``run_pass`` alone, and its outputs."""
    gc.collect()

    def go():
        return workload.run_pass(state, items, tracer)

    if pacer:
        wall, cpu, outputs = pacer.time(go)
    else:
        w0, c0 = time.perf_counter(), time.process_time()
        outputs = go()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    workload.after_pass(state, items, outputs)
    checks.against(outputs, expected)
    return wall, cpu, outputs


def expected_for(workload, items, state, path: Path) -> tuple[dict, float]:
    """Expected values by item: committed ones where the file has them,
    the oracle's otherwise.  Returns them with the oracle seconds spent."""
    committed = {}
    if path.is_file():
        committed = json.loads(path.read_text())["workloads"].get(workload.name, {})
    t0 = time.perf_counter()
    expected = {
        it.key: committed[it.key] if it.key in committed else workload.oracle(it, state)
        for it in items
    }
    return expected, time.perf_counter() - t0


def child_main(args) -> int:
    workload = WORKLOADS[args.workload]
    tracer = span_tools.Tracer(workload.name, enabled=bool(args.trace))
    tracer.pass_id = "setup"
    t_import = time.perf_counter()
    R = load_repro()
    import_s = time.perf_counter() - t_import

    if args.child == "regen":
        return child_regen(workload)

    items = draw(workload.name, args.seed, workload.items(args.quick))
    state = workload.setup(items, tracer)
    setup_s = time.monotonic() - args.t0
    state["_rss_setup_mb"] = maxrss_mb()
    if not args.trace:  # calibrated like the passes; first kernel call warms numpy
        pacer = Pacer()
        for _ in range(4):
            pacer.sample()
        setup_s *= CAL_NOMINAL_S / statistics.fmean(pacer.wall[1:])
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    expected, oracle_s = expected_for(workload, items, state, args.expected)
    state["_expected"] = expected
    checks = Checks()
    out = {
        "setup_s": setup_s,
        "header": {
            "seed": args.seed, "quick": args.quick,
            "python": platform.python_version(), "numpy": R.np.__version__,
            "nproc": os.cpu_count(), "engine": R.engines.resolve_engines().spec(),
            "items": [it.key for it in items],
        },
    }
    if args.trace:
        out.update(traced_run(args, workload, state, items, tracer, expected, checks))
        out["layers"]["harness.import_s"] = import_s
        out["layers"]["bench.oracle_s"] = oracle_s
        tracer.write(args.out / f"trace-{workload.name}.jsonl")
    else:
        out.update(measured_run(args, workload, state, items, tracer, expected, checks))
    out.update(
        peak_rss_mb=maxrss_mb(),
        attempted=checks.attempted, failed=checks.failed, messages=checks.messages,
    )
    print(json.dumps(out))
    return 0


def measured_run(args, workload, state, items, tracer, expected, checks) -> dict:
    """The end-to-end run: warm-up, then whole passes for ``--seconds``.

    Each pass is reported in calibrated seconds: its own seconds times
    ``CAL_NOMINAL_S`` over the mean kernel time sampled around and
    within it.
    """
    for _ in range(0 if args.quick else workload.cold):
        timed_pass(workload, state, items, tracer, expected, checks)
    series = {"wall_s": [], "cpu_s": [], "raw_wall_s": [], "raw_cpu_s": []}
    while True:
        pacer = Pacer()
        wall, cpu, _ = timed_pass(
            workload, state, items, tracer, expected, checks, pacer)
        series["raw_wall_s"].append(wall)
        series["raw_cpu_s"].append(cpu)
        wall, cpu = pacer.scale(wall, cpu)
        series["wall_s"].append(wall)
        series["cpu_s"].append(cpu)
        if args.quick or (len(series["wall_s"]) >= MIN_PASSES
                          and sum(series["raw_wall_s"]) >= args.seconds):
            return series


def traced_run(args, workload, state, items, tracer, expected, checks) -> dict:
    """The per-layer run: a cold pass, an untraced pass to compare with,
    the traced pass, then the link-by-link pass."""
    layers = Layers()
    tracer.enabled = False
    cold_wall, _, _ = timed_pass(workload, state, items, tracer, expected, checks)
    layers["harness.cold_pass_s"] = cold_wall
    plain_wall = cold_wall
    if not args.quick:
        plain_wall, _, _ = timed_pass(workload, state, items, tracer, expected, checks)

    tracer.enabled = True
    tracer.pass_id = "traced"
    before = workloads.R.metrics.snapshot()
    traced_wall, _, outputs = timed_pass(workload, state, items, tracer, expected, checks)
    counters = workloads.counters_since(before)
    layers["bench.trace_overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall

    tracer.pass_id = "layers"
    workload.layers(state, items, tracer, outputs, layers, checks)

    hits = counters.get("cache.trace.hits", 0) + counters.get("cache.result.hits", 0)
    lookups = hits + counters.get("cache.trace.misses", 0) + counters.get(
        "cache.result.misses", 0)
    layers["harness.cache_hit_share"] = hits / lookups if lookups else 0.0
    layers["tune.candidates"] = counters.get("tune.candidates", 0)
    layers["tune.evaluations"] = counters.get("tune.evaluations", 0)
    dedup = counters.get("tune.dedup.hits", 0)
    if dedup:
        layers["tune.dedup_share"] = dedup / (dedup + layers["tune.evaluations"])

    by_pass = {
        name: [s for s in tracer.spans if s["pass"] == name]
        for name in ("setup", "traced", "layers", "probes")
    }
    rates(layers, by_pass["layers"])
    timed = by_pass["traced"] + by_pass["layers"] + by_pass["probes"]
    for name in PER_LAYER:
        if name.endswith("_s") and name not in layers:
            layers[name] = span_tools.total(timed, name[:-2])
    layers["lang.build_validate_s"] = span_tools.total(
        by_pass["setup"], "lang.build_validate")

    shares = {"traced pass": span_tools.layer_shares(by_pass["traced"], traced_wall)}
    shares["traced pass"]["(covered)"] = span_tools.coverage(
        by_pass["traced"], traced_wall)
    if by_pass["layers"]:
        layers_wall = sum(s["end"] - s["start"] for s in by_pass["layers"]
                          if s["parent"] is None)
        shares["layer pass"] = span_tools.layer_shares(by_pass["layers"], layers_wall)
    return {
        "layers": {k: v for k, v in layers.items() if not k.startswith("_")},
        "shares": shares,
    }


def child_regen(workload) -> int:
    """Oracle values for every size the seed can give every item."""
    from dataclasses import replace

    tracer = span_tools.Tracer(workload.name)
    items = list(workload.items(True))  # --quick at seed 0; other seeds use the oracle
    for it in workload.items(False):
        offsets = (-2, -1, 0, 1, 2) if it.jitter and it.n is not None else (0,)
        items += [replace(it, n=None if it.n is None else it.n + off) for off in offsets]
    items = list({it.key: it for it in items}.values())
    state = workload.setup(items, tracer)
    expected = {}
    for it in items:
        t0 = time.perf_counter()
        expected[it.key] = workload.oracle(it, state)
        print(f"  {it.key}  {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(json.dumps({"expected": expected}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
