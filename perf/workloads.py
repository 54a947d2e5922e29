"""The ledger's four workloads: what a pass runs and what it must return.

Every workload is a fixed list of *items*; the seed decides the size
each item runs at and the order of the pass, nothing else.  ``run_pass``
is the timed region and calls only public ``repro`` entry points;
``oracle`` computes what the same inputs must give through the slow
reference engines and never shares code with ``run_pass``; ``layers`` is
the traced run's second pass, which walks the same chain link by link
under benchmark-owned spans.

``repro`` is imported by :func:`load_repro`, not at module import, so
the child can time the import as part of set-up.
"""

from __future__ import annotations

import hashlib
import random
import resource
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

#: sizes are pinned here, not read from the registry, so a registry edit
#: cannot silently move the ledger (test_selfcheck compares the two)
FIG10_N = {"adi": 161, "swim": 97, "tomcatv": 97, "sp": 18}
SMALL_N = {"adi": 50, "swim": 48, "tomcatv": 48, "sp": 10, "sweep3d": 24}
LEVELS = ("noopt", "sgi", "mckinley", "fusion1", "fusion", "regroup", "new")
FUSED = ("fusion1", "fusion", "new")

#: MemStats fields a check compares (``seconds``/energy derive from them)
STAT_FIELDS = (
    "accesses", "l1_misses", "l2_misses", "tlb_misses",
    "l2_writebacks", "dram_row_hits", "dram_row_misses",
)

R = None  # the repro namespace, filled by load_repro()


def load_repro():
    """Import every ``repro`` entry point the workloads call."""
    global R
    import numpy as np

    import repro.codegen as codegen
    import repro.interp as interp
    from repro import core, engines, harness, locality, memsim, static, stream, tune
    from repro.lang import to_source, validate
    from repro.memsim.geometry import ELEM_BYTES, L1_LINE_BYTES, CacheGeometry
    from repro.obs import metrics
    from repro.programs import registry

    R = SimpleNamespace(**locals())
    return R


@dataclass(frozen=True)
class Item:
    """One unit of a pass; ``key`` names it in expected.json and spans."""

    kind: str  # run | reuse | tune | coh
    program: str
    level: str  # optimisation level, or the tune objective
    n: Optional[int]  # problem size N; None when the program bakes it in
    #: sizes of 3-D programs move the trace by >15 % per step of N, so
    #: they stay put and keep peak memory a property of the code
    jitter: bool = True

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.program}/{self.level}@{self.n}"

    @property
    def params(self) -> dict:
        return {} if self.n is None else {"N": self.n}


def zero_sum_offsets(count: int) -> list[int]:
    """``count`` offsets from {-2..+2} that add up to zero.

    A pass's total size then hardly moves with the seed (the items'
    costs per element differ, so it is steady to first order only), while
    every item still sees five different sizes across seeds.
    """
    out: list[int] = []
    for pair in range(count // 2):
        amplitude = pair % 2 + 1
        out += [-amplitude, amplitude]
    return out + [0] * (count % 2)


def draw(workload: str, seed: int, items: list[Item]) -> list[Item]:
    """The inputs of one run: sizes and pass order, a function of the seed.

    Seed 0 keeps every base size; any other seed also moves each
    jitterable ``N`` by a shuffled zero-sum offset.
    """
    rng = random.Random(f"{workload}:{seed}")
    free = [i for i, it in enumerate(items) if it.jitter and it.n is not None]
    offsets = zero_sum_offsets(len(free)) if seed else [0] * len(free)
    rng.shuffle(offsets)
    out = list(items)
    for i, off in zip(free, offsets):
        out[i] = replace(items[i], n=items[i].n + off)
    rng.shuffle(out)
    return out


class Checks:
    """Counts comparisons of outputs against expected values."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, label: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            message = f"{label}: got {got!r}, expected {want!r}"
            if message not in self.messages and len(self.messages) < 20:
                self.messages.append(message)

    def against(self, outputs: dict, expected: dict) -> None:
        """One check per expected field; an item that raised (or is
        missing) fails all of its checks.  ``chain_*`` fields are for the
        traced run's link-by-link pass, which checks them itself."""
        for key, fields in expected.items():
            got = outputs.get(key) or {}
            if "_error" in got:
                self.messages.append(f"{key} raised: {got['_error']}")
            for name, want in fields.items():
                if not name.startswith("chain_"):
                    self.expect(f"{key}.{name}", got.get(name), want)


def _guarded(fn) -> dict:
    """Run one item; an exception becomes an output that fails its checks."""
    try:
        return fn()
    except Exception:  # noqa: BLE001 - the pass must go on; counted as failed
        return {"_error": traceback.format_exc(limit=3).strip().splitlines()[-1]}


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def counters_since(before: dict) -> dict:
    """Increments of the program's own ``obs.metrics`` counters."""
    return R.metrics.REGISTRY.delta(before, R.metrics.snapshot())["counters"]


def _stats_fields(stats) -> dict:
    return {name: int(getattr(stats, name)) for name in STAT_FIELDS}


# -- program handles -----------------------------------------------------------


def _handle(program: str):
    """(build, steps, machine) of a registry program or fft64."""
    if program == "fft64":
        spec = R.registry.MachineSpec()
        return (lambda: R.registry.build_fft(64)), 1, R.harness.machine_for(spec)
    entry = R.registry.get(program)
    return entry.build, entry.steps, R.harness.machine_for(entry.machine_spec)


def _build_programs(items: list[Item], tr) -> dict:
    programs = {}
    for name in dict.fromkeys(it.program for it in items):
        with tr.span("lang.build_validate", item=name):
            programs[name] = R.validate(_handle(name)[0]())
    return programs


def _run_request(it: Item, programs: dict, **kw):
    if it.program == "fft64":  # not a registry name: pass the program itself
        return R.harness.RunRequest(
            programs["fft64"], levels=it.level, params={}, name="fft64", **kw
        )
    return R.harness.RunRequest(it.program, levels=it.level, params=it.params, **kw)


def _run_item(it: Item, programs: dict, tr, **kw) -> dict:
    def go():
        t0 = time.perf_counter()
        with tr.span("harness.run", item=it.key):
            result = R.harness.run(_run_request(it, programs, **kw))[0]
        out = _stats_fields(result.stats)
        out["_wall"] = time.perf_counter() - t0
        out["_timings"] = dict(result.timings)
        out["_variant"] = result.variant
        return out

    return _guarded(go)


def _oracle_run(it: Item, programs: dict) -> dict:
    """MemStats and stream fingerprint through the interpreter tracer and
    the scalar reference simulator, link by link."""
    _, steps, machine = _handle(it.program)
    variant = R.core.compile_variant(programs[it.program], it.level)
    trace = R.interp.trace_program(variant.program, it.params, steps=steps)
    stream = R.stream.AddressStream.from_trace(trace, variant.layout(it.params))
    stats = R.memsim.simulate_stream(stream, machine, engine="reference")
    return {**_stats_fields(stats), "fingerprint": stream.fingerprint()}


class Layers(dict):
    """Per-layer values gathered during the traced run."""

    def add(self, name: str, value: float) -> None:
        self[name] = self.get(name, 0.0) + value


def _chain(it: Item, tr, layers: Layers, peaks: bool):
    """One ``run()`` item, walked link by link under benchmark spans.

    Returns (variant, stream, stats) so callers can extend the chain and
    check it against what ``run()`` gave for the same item.
    """
    build, steps, machine = _handle(it.program)
    with tr.span("bench.item", item=it.key):
        with tr.span("lang.build_validate"):
            program = R.validate(build())
        with tr.span("core.compile") as sp:
            variant = R.core.compile_variant(program, it.level)
        if it.level in FUSED:
            layers.add("core.compile_fused_s", _dur(sp))
        layers.add("core.ir_chars_after", len(R.to_source(variant.program)))
        if variant.fusion_report is not None:
            layers.add("core.fusion_applied", variant.fusion_report.total_events())
        if variant.regroup is not None:
            layers.add("core.regroup_groups", variant.regroup.group_count())
        layout = variant.layout(it.params)
        before = R.metrics.snapshot()
        with tr.span("codegen.trace"):
            trace = R.codegen.trace_program(variant.program, it.params, steps=steps)
        counters = counters_since(before)
        layers.add("_nests", counters.get("codegen.trace.nests", 0))
        layers.add("_nests_compiled", counters.get("codegen.trace.nests.compiled", 0))
        layers.add("_accesses", len(trace))
        with tr.span("stream.from_trace"):
            stream = R.stream.AddressStream.from_trace(
                trace, layout, name=it.program, source="codegen"
            )
        timings: dict = {}
        with tr.span("memsim.simulate"):
            outcome = R.memsim.MemoryHierarchy.standard(machine).simulate(
                stream, timings=timings
            )
        for level in ("l1", "l2", "tlb", "dram"):
            layers.add(f"memsim.{level}_s", timings.get(level, 0.0))
        stats = R.memsim.stats_from_hierarchy(outcome, machine)
        for name in ("l1_misses", "l2_misses", "tlb_misses", "dram_row_hits"):
            layers.add(f"memsim.{name}", getattr(stats, name))
    if peaks:
        layers["stream.from_trace_peak_mb"] = max(
            layers.get("stream.from_trace_peak_mb", 0.0),
            _peak_mb(lambda: R.stream.AddressStream.from_trace(trace, layout)),
        )
        layers["memsim.sim_peak_mb"] = max(
            layers.get("memsim.sim_peak_mb", 0.0),
            _peak_mb(lambda: R.memsim.MemoryHierarchy.standard(machine).simulate(stream)),
        )
    return variant, stream, stats


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _peak_mb(fn) -> float:
    """Peak Python-heap growth of one call, by tracemalloc (numpy
    buffers included); run apart from every timed span."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def _bytes_ratio(items: list[Item], outputs: dict) -> float:
    """Geometric mean over programs of data moved at ``new`` / ``noopt``."""
    moved = {
        (it.program, it.level): outputs[it.key]["l2_misses"]
        + outputs[it.key]["l2_writebacks"]
        for it in items
        if it.kind == "run" and "l2_misses" in outputs.get(it.key, {})
    }
    return R.harness.geometric_mean([
        moved[p, "new"] / moved[p, "noopt"]
        for (p, lv) in moved
        if lv == "new" and moved.get((p, "noopt"))
    ])


def _run_overhead(items: list[Item], outputs: dict) -> float:
    """``run()`` wall not accounted for by its own stage timings."""
    return sum(
        out["_wall"] - sum(out["_timings"].values())
        for out in (outputs.get(it.key, {}) for it in items if it.kind == "run")
        if "_wall" in out
    )


def rates(layers: Layers, spans: list[dict]) -> None:
    """Throughputs of the chain's tracer and simulator links."""
    from spans import total

    accesses = layers.get("_accesses", 0.0)
    trace_s = total(spans, "codegen.trace")
    sim_s = total(spans, "memsim.simulate")
    if trace_s:
        layers["codegen.accesses_per_s"] = accesses / trace_s
    if sim_s:
        layers["memsim.accesses_per_s"] = accesses / sim_s
    if layers.get("_nests"):
        layers["codegen.nests_compiled_share"] = (
            layers["_nests_compiled"] / layers["_nests"]
        )


class Workload:
    name = ""
    #: warm-up passes before the measured ones
    cold = 0

    def items(self, quick: bool) -> list[Item]:
        raise NotImplementedError

    def setup(self, items: list[Item], tr) -> dict:
        return _build_programs(items, tr)

    def run_pass(self, state: dict, items: list[Item], tr) -> dict:
        """The timed region."""
        raise NotImplementedError

    def after_pass(self, state: dict, items: list[Item], outputs: dict) -> None:
        """Untimed: finish outputs that need slow reads, free pass data."""

    def oracle(self, it: Item, state: dict) -> dict:
        raise NotImplementedError

    def layers(self, state, items, tr, outputs, layers: Layers, checks: Checks):
        """The traced run's link-by-link pass (default: the pass's own
        spans already are the layers)."""


# -- fig10_sim -----------------------------------------------------------------


class Fig10Sim(Workload):
    """Fig. 10 at registry sizes: tracing, address materialisation and
    L1/L2/TLB/DRAM simulation do the work, compile little."""

    name = "fig10_sim"
    cold = 1

    def items(self, quick: bool) -> list[Item]:
        sizes = SMALL_N if quick else FIG10_N
        out = [
            Item("run", p, lv, sizes[p])
            for p in ("adi", "swim", "tomcatv")
            for lv in ("noopt", "fusion", "new")
        ]
        # sp's fused levels are left out so compile does not dominate
        return out + [Item("run", "sp", "noopt", sizes["sp"], jitter=False)]

    def run_pass(self, state, items, tr):
        return {it.key: _run_item(it, state, tr) for it in items}

    def oracle(self, it, state):
        expected = _oracle_run(it, state)
        # run() without a cache exposes no stream: only the chain can check it
        expected["chain_fingerprint"] = expected.pop("fingerprint")
        return expected

    def layers(self, state, items, tr, outputs, layers, checks):
        for it in items:
            _, stream, stats = _chain(it, tr, layers, peaks=True)
            checks.expect(f"{it.key}.chain_fingerprint", stream.fingerprint(),
                          state["_expected"][it.key]["chain_fingerprint"])
            checks.expect(
                f"{it.key}.chain_equals_run",
                _stats_fields(stats),
                {k: v for k, v in outputs[it.key].items() if not k.startswith("_")},
            )
        layers["core.bytes_ratio_new_vs_noopt"] = _bytes_ratio(items, outputs)
        layers["harness.run_overhead_s"] = _run_overhead(items, outputs)


# -- reuse_profile -------------------------------------------------------------


class ReuseProfile(Workload):
    """Reuse distance (sec. 2.1): locality does all the work, memsim none,
    on two distance distributions."""

    name = "reuse_profile"
    cold = 1

    def items(self, quick: bool) -> list[Item]:
        adi, tomcatv = (24, 24) if quick else (72, 44)
        return [
            Item("reuse", "adi", "noopt", adi),
            Item("reuse", "adi", "new", adi),
            Item("reuse", "tomcatv", "new", tomcatv),
        ]

    def setup(self, items, tr):
        """Element-granularity key streams: the inputs of the layer under
        test, so their cost is set-up, not pass time."""
        programs = _build_programs(items, tr)
        state = {"streams": {}, "capacities": {}}
        for it in items:
            entry = R.registry.get(it.program)
            with tr.span("core.compile", item=it.key):
                variant = R.core.compile_variant(programs[it.program], it.level)
            with tr.span("codegen.trace", item=it.key):
                trace = R.codegen.trace_program(
                    variant.program, it.params, steps=entry.steps
                )
            with tr.span("stream.from_trace", item=it.key):
                state["streams"][it.key] = R.stream.AddressStream.from_trace(trace)
            geometry = R.CacheGeometry.from_spec(entry.machine_spec)
            state["capacities"][it.key] = (geometry.l1_elems, geometry.l2_elems)
        return state

    def run_pass(self, state, items, tr):
        def one(it):
            keys = state["streams"][it.key]
            l1, l2 = state["capacities"][it.key]
            with tr.span("locality.reuse_distances", item=it.key):
                distances = R.locality.reuse_distances(keys)
            with tr.span("locality.histogram", item=it.key):
                hist = R.locality.ReuseHistogram.from_distances(distances)
                misses = [R.locality.miss_count(distances, c) for c in (l1, l2)]
            return {
                "miss_l1": misses[0],
                "miss_l2": misses[1],
                "cold": hist.cold,
                "histogram": [int(c) for c in hist.counts],
            }

        return {it.key: _guarded(lambda it=it: one(it)) for it in items}

    def oracle(self, it, state):
        """Fully-associative, one-element-line LRU by the scalar reference
        simulator: misses at capacity C are the cold accesses plus the
        reuses at distance >= C, so power-of-two capacities give the
        log2 histogram too."""
        np = R.np
        keys = np.asarray(state["streams"][it.key])
        l1, l2 = state["capacities"][it.key]
        elem = R.ELEM_BYTES

        def misses(capacity: int) -> int:
            config = R.memsim.CacheConfig("fa", capacity * elem, elem, 0)
            return int(
                R.memsim.simulate_cache(config, keys * elem, engine="reference").sum()
            )

        cold = int(len(np.unique(keys)))
        curve = [misses(1)]  # curve[k] = misses at capacity 2**k
        while curve[-1] > cold:
            curve.append(misses(2 ** len(curve)))
        histogram = [len(keys) - curve[0]]  # distance 0 hits a 1-element cache
        histogram += [curve[k - 1] - curve[k] for k in range(1, len(curve))]
        return {
            "miss_l1": misses(l1),
            "miss_l2": misses(l2),
            "cold": cold,
            "histogram": histogram,
        }

    def layers(self, state, items, tr, outputs, layers, checks):
        from spans import total

        accesses = sum(len(state["streams"][it.key]) for it in items)
        seconds = total([s for s in tr.spans if s["pass"] == "traced"],
                        "locality.reuse_distances")
        layers["locality.accesses_per_s"] = accesses / seconds
        # tracemalloc would slow this pure-Python loop tenfold; the process
        # does nothing else after set-up, so its peak-RSS growth is the layer's
        layers["locality.peak_mb"] = maxrss_mb() - state["_rss_setup_mb"]


# -- tune_static ---------------------------------------------------------------

#: what differs between the three tune calls; the candidate grid is shared.
#: Certification runs on one call only and tomcatv is gated against two
#: named levels, not seven, to fit the driver's time cap (its ``fusion``
#: level alone costs 2.7 s of symbolic analysis).
TUNE_CALLS = {
    ("adi", "misses"): dict(verify=True),
    ("tomcatv", "misses"): dict(verify=False, levels=("noopt", "fusion1")),
    ("adi", "parallel-misses"): dict(verify=False, threads=4, schedule="static"),
}


def _tune_request(it: Item, **kw):
    return R.tune.TuneRequest(
        program=it.program,
        sizes=[it.params],
        objective=it.level,
        enablers=("distribute",),
        fusion_levels=(0, 1),
        cache=False,
        validate_top=True,
        top_k=3,
        **TUNE_CALLS[it.program, it.level],
        **kw,
    )


def _tune_fields(result) -> dict:
    return {
        "best_signature": result.best.signature,
        "best_score": round(result.best.score, 3),
        "best_le_named": all(result.best.score <= c.score for c in result.named),
        "validated": [
            [c.signature, c.measured["l1"], c.measured["l2"], c.measured["accesses"]]
            for c in result.validated
        ],
    }


class TuneStatic(Workload):
    """Trace-free pipeline search: compile, certification and static
    analysis dominate; memsim only validates the top 3."""

    name = "tune_static"

    def items(self, quick: bool) -> list[Item]:
        if quick:
            return [Item("tune", "adi", "misses", 24),
                    Item("tune", "adi", "parallel-misses", 16)]
        return [
            Item("tune", "adi", "misses", 100),
            Item("tune", "tomcatv", "misses", 60),
            Item("tune", "adi", "parallel-misses", 30),
        ]

    def run_pass(self, state, items, tr):
        def one(it):
            with tr.span("tune.tune", item=it.key):
                result = R.tune.tune(_tune_request(it))
            return {**_tune_fields(result), "_result": result}

        return {it.key: _guarded(lambda it=it: one(it)) for it in items}

    def oracle(self, it, state):
        """The committed best signature and score, and the dynamic misses
        of the validated frontier through the oracle engines."""
        return _tune_fields(R.tune.tune(_tune_request(it, engine="reference+interp")))

    def layers(self, state, items, tr, outputs, layers, checks):
        """Re-walk each search outside ``tune()``: compile every pipeline
        with and without certification, analyse each distinct program."""
        from spans import total

        tune_wall = sum(_dur(s) for s in tr.spans
                        if s["pass"] == "traced" and s["name"] == "tune.tune")
        compile_as_tuned = 0.0
        for it in items:
            result = outputs[it.key].get("_result")
            if result is None:
                continue
            request = result.request
            _, steps, _ = _handle(it.program)
            program = state[it.program]
            grid = R.tune.enumerate_candidates(
                enablers=tuple(request.enablers),
                fusion_levels=tuple(request.fusion_levels),
                regroup=request.regroup,
            )
            work = [(lv, R.core.PIPELINES[lv], False) for lv in request.levels]
            work += [(R.tune.spec_signature(s), s, True) for s in grid]
            profiles: dict[str, object] = {}
            named_scores = {c.label: c.score for c in result.named}
            with tr.span("bench.item", item=it.key):
                for label, spec, candidate in work:
                    with tr.span("core.compile") as plain:
                        variant = R.core.compile_pipeline(program, spec, verify=False)
                    layers.add("core.ir_chars_after", len(R.to_source(variant.program)))
                    if variant.fusion_report is not None:
                        layers.add("core.compile_fused_s", _dur(plain))
                        layers.add("core.fusion_applied",
                                   variant.fusion_report.total_events())
                    if variant.regroup is not None:
                        layers.add("core.regroup_groups", variant.regroup.group_count())
                    compile_as_tuned += _dur(plain)
                    if candidate and request.verify:
                        with tr.span("verify.compile_certified") as certified:
                            R.core.compile_pipeline(program, spec, verify=True)
                        layers.add("verify.certify_s", _dur(certified) - _dur(plain))
                        compile_as_tuned += _dur(certified) - _dur(plain)
                    text = hashlib.sha256(R.to_source(variant.program).encode()).hexdigest()
                    if text not in profiles:
                        before = R.metrics.snapshot()
                        with tr.span("static.analyze_program"):
                            profiles[text] = R.static.analyze_program(
                                variant.program, steps=steps
                            )
                        counters = counters_since(before)
                        layers.add("static.refs", counters.get("analysis.static.refs", 0))
                        layers.add("static.components",
                                   counters.get("analysis.static.components", 0))
                        if it.level == "parallel-misses":
                            self._multicore(tr, variant.program, profiles[text],
                                            it, request, steps)
                    if it.level == "misses" and label in named_scores:
                        profile = profiles[text]
                        predicted = sum(
                            profile.miss_count(it.params, c)
                            for c in (result.l1_elems, result.l2_elems)
                        )
                        checks.expect(f"{it.key}.{label}.chain_equals_tune",
                                      round(predicted, 3), round(named_scores[label], 3))
                if it.level == "parallel-misses":
                    with tr.span("interp.interleave"):
                        run = R.interp.interleave_trace(
                            program, it.params, request.threads, steps=steps,
                            schedule=request.schedule)
                    with tr.span("memsim.msi"):
                        _msi(run, request.threads)
            layers.add("tune.validate_s",
                       sum(c.measured["seconds"] for c in result.validated))
            layers.add("_analysis_s", sum(
                c.analysis_seconds for c in result.named + result.candidates))
            if it.level == "misses":
                errors = [abs(c.score - c.measured["misses"]) / c.measured["misses"]
                          for c in result.validated]
                layers.add("_pred_error", 100.0 * sum(errors) / len(errors))
                layers.add("_pred_items", 1)
        if layers.get("_pred_items"):
            layers["static.pred_error_pct"] = layers["_pred_error"] / layers["_pred_items"]
        spans = [s for s in tr.spans if s["pass"] == "layers"]
        dynamic = total(spans, "interp.interleave") + total(spans, "memsim.msi")
        if dynamic:
            # the noopt program is the first one analysed; same program both sides
            first = next(s for s in spans if s["name"] == "static.coherence")
            layers["static.coherence_vs_msi_ratio"] = _dur(first) / dynamic
        layers["tune.overhead_s"] = (
            tune_wall - compile_as_tuned - layers.get("_analysis_s", 0.0)
            - layers.get("tune.validate_s", 0.0)
        )

    @staticmethod
    def _multicore(tr, program, profile, it, request, steps):
        with tr.span("static.parallelism"):
            parallelism = R.static.analyze_parallelism(program, it.params)
        with tr.span("static.multicore"):
            R.static.predict_multicore(
                profile, parallelism, it.params,
                threads=request.threads, schedule=request.schedule)
        with tr.span("static.coherence"):
            R.static.analyze_coherence(
                program, it.params, threads=request.threads,
                schedule=request.schedule, steps=steps,
                parallelism=parallelism, witnesses=False)


# -- small_matrix --------------------------------------------------------------

COH_THREADS = 4


def _msi(run, threads: int):
    line_elems = R.L1_LINE_BYTES // R.ELEM_BYTES
    return R.memsim.simulate_msi(
        R.np.asarray(run.merged) // line_elems,
        R.np.asarray(run.merged.writes, dtype=bool),
        run.merged_threads,
        threads,
    )


def _msi_fields(prefix: str, invalidations, cold, upgrades) -> dict:
    return {
        f"{prefix}_invalidations": [int(v) for v in invalidations],
        f"{prefix}_cold": [int(v) for v in cold],
        f"{prefix}_upgrades": int(upgrades),
    }


class SmallMatrix(Workload):
    """Many short traces through a trace cache: per-call fixed cost and
    compile dominate, .ast writes beside reads, dynamic MSI beside static
    coherence.  The workload that bypasses large-trace optimisations."""

    name = "small_matrix"

    def items(self, quick: bool) -> list[Item]:
        out = [
            Item("run", p, lv, SMALL_N[p])
            for p in ("adi", "swim", "tomcatv")
            for lv in LEVELS
        ]
        coh_n = 12 if quick else 16
        coh = [Item("coh", p, "static", coh_n) for p in ("adi", "swim", "tomcatv")]
        if quick:
            return out + coh
        out += [Item("run", "sweep3d", lv, SMALL_N["sweep3d"], jitter=False)
                for lv in LEVELS]
        # fft64/regroup is left out: at the seed commit it shares a TraceCache
        # key with fft64/new (the key hashes str(Program), a one-line summary,
        # and the two layouts coincide), so whichever runs second replays the
        # other's stream and its fingerprint check fails by pass order
        out += [Item("run", "fft64", lv, None) for lv in LEVELS if lv != "regroup"]
        # sp's fused levels cost 0.5-2 s of compile each, per phase: more
        # than the driver's time cap leaves room for
        out += [Item("run", "sp", lv, SMALL_N["sp"], jitter=False)
                for lv in ("noopt", "sgi", "regroup")]
        return out + coh

    def run_pass(self, state, items, tr):
        cache = R.harness.TraceCache(tempfile.mkdtemp())  # under the run's TMPDIR
        state["_cache"] = cache
        runs = [it for it in items if it.kind == "run"]
        # cold: compile, trace, write .ast, simulate, store
        outputs = {it.key: _run_item(it, state, tr, cache=cache) for it in runs}
        for it in runs:  # warm: compile, read .ast, re-simulate
            warm = _run_item(it, state, tr, cache=cache, result_cache=False)
            cold = outputs[it.key]
            cold["warm_equals_cold"] = "_error" not in warm and all(
                warm[f] == cold.get(f) for f in STAT_FIELDS
            )
            cold["_wall"] = cold.get("_wall", 0.0) + warm.get("_wall", 0.0)
            cold.setdefault("_timings", {})
            for stage, seconds in warm.get("_timings", {}).items():
                cold["_timings"][stage] = cold["_timings"].get(stage, 0.0) + seconds
        for it in items:
            if it.kind == "coh":
                outputs[it.key] = _guarded(lambda: self._coherence(it, state, tr))
        return outputs

    @staticmethod
    def _coherence(it, state, tr):
        _, steps, _ = _handle(it.program)
        program = state[it.program]
        with tr.span("interp.interleave", item=it.key):
            run = R.interp.interleave_trace(program, it.params, COH_THREADS, steps=steps)
        with tr.span("memsim.msi", item=it.key):
            msi = _msi(run, COH_THREADS)
        with tr.span("static.coherence", item=it.key):
            profile = R.static.analyze_coherence(
                program, it.params, threads=COH_THREADS, steps=steps)
        return {
            **_msi_fields("msi", msi.invalidations, msi.cold, msi.total_upgrades),
            **_msi_fields("static", profile.invalidations, profile.cold,
                          profile.upgrades),
        }

    def after_pass(self, state, items, outputs):
        """Fingerprint the .ast files the cold phase stored, then drop them."""
        cache = state.pop("_cache")
        for it in items:
            out = outputs.get(it.key, {})
            variant = out.get("_variant")
            if it.kind != "run" or variant is None:
                continue
            _, steps, _ = _handle(it.program)
            key = cache.trace_key(
                str(variant.program), it.params, steps,
                R.harness.layout_fingerprint(variant.layout(it.params)),
            )
            stored = cache.load_trace(key)
            out["fingerprint"] = None if stored is None else stored.fingerprint()
        shutil.rmtree(cache.root, ignore_errors=True)

    def oracle(self, it, state):
        if it.kind == "run":
            return {**_oracle_run(it, state), "warm_equals_cold": True}
        _, steps, _ = _handle(it.program)
        run = R.interp.interleave_trace(state[it.program], it.params, COH_THREADS,
                                       steps=steps)
        msi = _msi(run, COH_THREADS)
        counts = (msi.invalidations, msi.cold, msi.total_upgrades)
        return {**_msi_fields("msi", *counts), **_msi_fields("static", *counts)}

    def layers(self, state, items, tr, outputs, layers, checks):
        from spans import total

        tmp = Path(tempfile.mkdtemp())
        cache = R.harness.TraceCache(tmp / "cache")
        ast_bytes = 0
        for it in items:
            if it.kind != "run":
                continue
            variant, stream, stats = _chain(it, tr, layers, peaks=False)
            _, steps, machine = _handle(it.program)
            path = tmp / "probe.ast"
            with tr.span("stream.write_ast", item=it.key):
                R.stream.write_stream(path, stream)
            ast_bytes += path.stat().st_size
            with tr.span("stream.read_ast", item=it.key):
                back = R.stream.read_stream_binary(path)
            with tr.span("harness.cache_store", item=it.key):
                cache.store_trace("probe", stream)
                cache.store_result("probe", stats)
            with tr.span("harness.cache_load", item=it.key):
                cache.load_trace("probe")
                cache.load_result("probe")
            tr.pass_id = "probes"  # the oracle tracer is no link of the pass
            with tr.span("interp.trace", item=it.key):
                R.interp.trace_program(variant.program, it.params, steps=steps)
            tr.pass_id = "layers"
            # the chain's stream, written and read back, is what the pass cached
            checks.expect(f"{it.key}.chain_equals_run",
                          {**_stats_fields(stats), "fingerprint": back.fingerprint()},
                          {k: outputs[it.key].get(k)
                           for k in (*STAT_FIELDS, "fingerprint")})
        shutil.rmtree(tmp, ignore_errors=True)
        spans = [s for s in tr.spans if s["pass"] in ("traced", "layers")]
        calls = sum(1 for s in spans if s["name"] == "memsim.simulate")
        layers["memsim.small_call_ms"] = 1e3 * total(spans, "memsim.simulate") / calls
        layers["stream.ast_bytes_per_access"] = ast_bytes / layers["_accesses"]
        layers["core.bytes_ratio_new_vs_noopt"] = _bytes_ratio(items, outputs)
        layers["harness.run_overhead_s"] = _run_overhead(items, outputs)
        dynamic = total(spans, "interp.interleave") + total(spans, "memsim.msi")
        layers["static.coherence_vs_msi_ratio"] = total(spans, "static.coherence") / dynamic


WORKLOADS = {w.name: w for w in (Fig10Sim(), ReuseProfile(), TuneStatic(), SmallMatrix())}
