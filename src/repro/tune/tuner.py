"""The pipeline autotuner: ``tune(TuneRequest) -> TuneResult``.

The paper picks one pass order per program by a greedy heuristic (§4);
with the symbolic reuse profiles this repo can *search* instead.  The
loop is static-rank / dynamic-validate:

1. enumerate the legal candidate grid (:mod:`repro.tune.candidates`)
   plus the paper's named levels as baselines;
2. compile every pipeline through the program's own
   :class:`~repro.core.pm.PassManager` (a shared pass prefix runs, and
   is certified, once per process — a second search compiles nothing) and
   **dedup by compiled program text** — many pipelines converge to the
   same program (e.g. ``new`` vs ``fusion``:
   regrouping never edits the program), and the expensive symbolic
   analysis is per *distinct* program, not per pipeline;
3. statically score every distinct program: predicted L1+L2 misses at
   the target sizes (``objective="misses"``), or the multicore
   private-L1 + shared-L2 prediction (``objective="parallel-misses"``);
4. dynamically validate only the top-``k`` frontier through the
   existing ``run(RunRequest)`` harness (codegen tracer, TraceCache),
   and record whether the measured ordering confirms the static one.

Every candidate evaluation is content-addressed on disk
(:class:`~repro.tune.cache.TuneCache`), so an interrupted or
re-parameterized search resumes instead of re-analyzing; the loop
streams schema-v1 JSONL events (one spec per pipeline, the candidate
signature as the level label) and ``tune.*`` metrics via
:mod:`repro.obs`.

``check_baseline`` is the CI gate over a committed ``BENCH_tune.json``:
the tuned pipeline must never predict more misses than any named level,
and every committed prediction must reproduce under the current analyzer.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from ..core.pm import OPT_LEVELS, PIPELINES, PassManager, PipelineSpec, spec_to_json
from ..harness import RunRequest, TraceCache, format_table, run
from ..lang import Program, ReproError, check_params
from ..memsim.geometry import CacheGeometry
from ..obs import RunLog, make_event, metrics, span, spec_logging
from ..programs.registry import MachineSpec, resolve_target
from ..static import analyze_program
from .cache import TuneCache
from .candidates import (
    ENABLERS,
    FUSION_LEVELS,
    enumerate_candidates,
    parse_signature,
    spec_signature,
)

#: objective names ``TuneRequest.objective`` accepts
OBJECTIVES = ("misses", "parallel-misses", "bytes")


@dataclass(frozen=True)
class TuneRequest:
    """Everything one autotuning run needs, symmetric with ``RunRequest``.

    ``program``
        a registry application name, ``"fft"`` (built at ``n`` from the
        first size, default 64), or a parsed :class:`~repro.lang.Program`;
    ``sizes``
        target parameter bindings the objective sums over (default: the
        registry entry's fig-10 size; required for Program objects);
    ``objective``
        ``"misses"`` ranks by predicted single-thread L1+L2 misses;
        ``"parallel-misses"`` by the multicore prediction — per-thread
        private L1 (including predicted coherence invalidation misses
        from the static sharing analyzer) plus shared L2 at
        ``threads``/``schedule``;
        ``"bytes"`` by predicted data moved — misses weighted by the
        per-level line size (:mod:`repro.memsim.geometry`), the static
        side of the effective-bandwidth report;
    ``enablers`` / ``fusion_levels`` / ``regroup``
        the candidate grid (see :func:`repro.tune.enumerate_candidates`);
        shrink these for programs whose fused analysis is expensive;
    ``levels``
        the named baselines the tuned pipeline is gated against;
    ``top_k`` / ``validate_top`` / ``engine``
        dynamic validation of the frontier through ``run(RunRequest)``;
    ``cache``
        content-addressed resumability: candidate evaluations
        (``tune-*``) and validation traces/results share one root;
    ``verify``
        certify candidate pass legality during compilation (on by
        default; named levels are certified by their own test suites).
    """

    program: Union[str, Program]
    sizes: Optional[Sequence[Mapping[str, int]]] = None
    steps: Optional[int] = None
    machine: Optional[MachineSpec] = None
    objective: str = "misses"
    threads: int = 4
    schedule: str = "static"
    enablers: Sequence[str] = ENABLERS
    fusion_levels: Sequence[int] = FUSION_LEVELS
    regroup: bool = True
    levels: Sequence[str] = OPT_LEVELS
    max_candidates: Optional[int] = None
    top_k: int = 3
    validate_top: bool = True
    engine: Optional[str] = None
    cache: Union[None, bool, str, Path] = True
    verify: bool = True
    name: Optional[str] = None
    trace: Optional[object] = None  # obs.TraceConfig


@dataclass
class CandidateScore:
    """One pipeline's static evaluation (and, if validated, measurement)."""

    label: str
    kind: str  # "named" | "candidate"
    signature: str
    spec: PipelineSpec
    score: float
    per_size: list[dict]
    text_hash: str
    analysis_seconds: float
    cached: bool = False
    deduped_from: Optional[str] = None
    measured: Optional[dict] = None

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "kind": self.kind,
            "signature": self.signature,
            "score": round(self.score, 6),
            "per_size": self.per_size,
            "text_hash": self.text_hash,
            "analysis_seconds": round(self.analysis_seconds, 3),
        }
        if self.deduped_from:
            out["deduped_from"] = self.deduped_from
        if self.measured is not None:
            out["measured"] = self.measured
        return out


@dataclass
class TuneResult:
    """The outcome of one :func:`tune` call."""

    request: TuneRequest
    program: str
    sizes: list[dict]
    steps: int
    l1_elems: int
    l2_elems: int
    objective: str
    named: list[CandidateScore]
    candidates: list[CandidateScore]  # ascending score
    validated: list[CandidateScore] = field(default_factory=list)
    rank_agreement: Optional[bool] = None
    run_dir: Optional[Path] = None
    seconds: float = 0.0

    @property
    def best(self) -> CandidateScore:
        """The best pipeline overall — named levels are legal points in
        the search space, so a restricted grid can still never "tune" to
        something worse than the paper's own levels."""
        return min(
            self.candidates + self.named,
            key=lambda c: (c.score, len(c.spec.steps), c.label),
        )

    @property
    def best_candidate(self) -> CandidateScore:
        return self.candidates[0]

    @property
    def best_named(self) -> CandidateScore:
        return min(self.named, key=lambda c: (c.score, c.label))

    @property
    def strict_win(self) -> bool:
        """Does a grid candidate beat *every* named level strictly?"""
        return (
            bool(self.named)
            and bool(self.candidates)
            and self.best_candidate.score < min(c.score for c in self.named)
        )

    def table(self) -> str:
        """The named levels and the ten best grid candidates, by score."""
        headers = ("pipeline", "kind", "predicted", "vs best named", "measured")
        base = self.best_named.score if self.named else 0.0
        body: list[list[object]] = []
        shown = sorted(
            self.named + self.candidates[:10],
            key=lambda c: (c.score, c.label),
        )
        for c in shown:
            body.append([
                c.label,
                c.kind,
                f"{c.score:.0f}",
                f"{c.score / base:.3f}x" if base else "-",
                f"{c.measured['misses']:.0f}" if c.measured else "-",
            ])
        size = "; ".join(
            ", ".join(f"{k}={v}" for k, v in s.items()) or "(fixed size)"
            for s in self.sizes
        )
        return format_table(
            headers, body,
            title=f"{self.program} autotune ({self.objective} at {size}; "
            f"L1 {self.l1_elems} / L2 {self.l2_elems} elems)",
        )

    def to_json(self) -> dict:
        return {
            "sizes": self.sizes,
            "steps": self.steps,
            "l1_elems": self.l1_elems,
            "l2_elems": self.l2_elems,
            "objective": self.objective,
            "threads": self.request.threads if self.objective != "misses" else None,
            "schedule": self.request.schedule if self.objective != "misses" else None,
            "named": {c.label: c.to_json() for c in self.named},
            "best": {**self.best.to_json(), "spec": spec_to_json(self.best.spec)},
            "candidates_evaluated": len(self.candidates),
            "strict_win": self.strict_win,
            "validated": [c.to_json() for c in self.validated],
            "rank_agreement": self.rank_agreement,
            "seconds": round(self.seconds, 3),
        }


def _program_params(program: Program, size: Mapping[str, int]) -> dict:
    """Restrict a size binding to the program's own parameters
    (fft bakes its size in, so its binding carries a build-only ``n``)."""
    return {k: v for k, v in size.items() if k in program.params}


def _score_profile(
    profile,
    program: Program,
    sizes: Sequence[Mapping[str, int]],
    l1: int,
    l2: int,
    objective: str,
    threads: int,
    schedule: str,
    steps: int = 1,
) -> tuple[float, list[dict]]:
    """Evaluate one static profile under the objective; sum over sizes."""
    per_size: list[dict] = []
    total = 0.0
    for size in sizes:
        params = _program_params(program, size)
        if objective == "parallel-misses":
            from ..lang import AnalysisError
            from ..static import analyze_parallelism
            from ..static.coherence import analyze_coherence
            from ..static.multicore import predict_multicore

            parallelism = analyze_parallelism(program, params or None)
            pred = predict_multicore(
                profile, parallelism, params, threads=threads, schedule=schedule
            )
            try:
                # fold predicted invalidation misses into the private
                # view: a candidate that trades capacity misses for
                # line ping-pong should not win the grid
                coherence = analyze_coherence(
                    program, params or None, threads=threads,
                    schedule=schedule, steps=steps,
                    parallelism=parallelism, witnesses=False,
                )
                pred = pred.with_invalidations(coherence.invalidations)
            except AnalysisError:
                coherence = None  # outside the affine subset: capacity only
            l1m = pred.private_miss_count(l1)
            l2m = pred.shared_miss_count(l2)
        else:
            l1m = profile.miss_count(params, l1)
            l2m = profile.miss_count(params, l2)
        entry = {"params": dict(size), "l1": round(l1m, 3), "l2": round(l2m, 3)}
        if objective == "parallel-misses" and coherence is not None:
            entry["invalidations"] = coherence.total_invalidations
        if objective == "bytes":
            # predicted data moved: misses weighted by line size.  Every
            # machine (base and scaled) keeps the shared line geometry,
            # so the constants apply regardless of the capacity args.
            from ..memsim.geometry import L1_LINE_BYTES, L2_LINE_BYTES

            moved = l1m * L1_LINE_BYTES + l2m * L2_LINE_BYTES
            entry["bytes"] = round(moved, 3)
            total += moved
        else:
            total += l1m + l2m
        per_size.append(entry)
    return total, per_size


def evaluate_candidate(
    manager: PassManager,
    label: str,
    kind: str,
    spec: PipelineSpec,
    steps: int,
    sizes: Sequence[Mapping[str, int]],
    l1_elems: int,
    l2_elems: int,
    objective: str,
    threads: int,
    schedule: str,
    verify: bool,
    tcache: Optional[TuneCache],
    seen_text: dict[str, CandidateScore],
) -> CandidateScore:
    """Statically evaluate one pipeline — the tuner's inner step.

    Cache-load, else compile through ``manager`` (the program's pass
    trie), dedup against ``seen_text`` by compiled program text, else
    analyze and score; fresh results are stored.
    The first evaluation of each distinct text registers itself in
    ``seen_text``.
    """
    signature = spec_signature(spec)
    entry = key = None
    if tcache is not None:
        key = tcache.key(
            str(manager.program), signature, steps, sizes, l1_elems, l2_elems,
            objective, threads, schedule,
        )
        entry = tcache.load(key)
    cached = entry is not None
    if not cached:
        with span("tune-evaluate", pipeline=label, kind=kind) as sp:
            variant = manager.run(spec, verify=verify)
            sp.attrs["shared_steps"] = variant.shared_steps
            text_hash = hashlib.sha256(
                str(variant.program).encode()
            ).hexdigest()[:16]
            prior = seen_text.get(text_hash)
            if prior is not None:
                metrics.inc("tune.dedup.hits")
                entry = {
                    "score": prior.score,
                    "per_size": [dict(p) for p in prior.per_size],
                    "analysis_seconds": 0.0,
                    "deduped_from": prior.label,
                }
            else:
                ta = time.perf_counter()
                profile = analyze_program(variant.program, steps=steps)
                score, per_size = _score_profile(
                    profile, variant.program, sizes, l1_elems, l2_elems,
                    objective, threads, schedule, steps,
                )
                metrics.inc("tune.evaluations")
                entry = {
                    "score": score,
                    "per_size": per_size,
                    "analysis_seconds": time.perf_counter() - ta,
                }
            entry["text_hash"] = text_hash
    result = CandidateScore(
        label=label,
        kind=kind,
        signature=signature,
        spec=spec,
        score=float(entry["score"]),
        per_size=list(entry["per_size"]),
        text_hash=str(entry["text_hash"]),
        analysis_seconds=float(entry["analysis_seconds"]),
        cached=cached,
        deduped_from=entry.get("deduped_from"),
    )
    if tcache is not None and not cached:
        tcache.store(key, result.to_json())
    seen_text.setdefault(result.text_hash, result)
    return result


def _cache_root(cache: Union[None, bool, str, Path]) -> Optional[Path]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return TuneCache().root
    return Path(cache)


def tune(request: TuneRequest) -> TuneResult:
    """Run one autotuning search; the single front door."""
    if request.objective not in OBJECTIVES:
        raise ReproError(
            f"unknown objective {request.objective!r}; expected one of {OBJECTIVES}"
        )
    sizes = [dict(s) for s in request.sizes or ()]
    target = resolve_target(
        request.program,
        sizes[0] if sizes else None,
        request.steps,
        request.name,
        missing="TuneRequest with a Program object requires sizes",
    )
    sizes = sizes or [target.params]
    name, program, steps = target.name, target.program, target.steps
    for size in sizes[1:]:  # the first went through resolve_target's check
        check_params(program, size, complete=False)
    machine_spec = request.machine or target.machine_spec
    geometry = CacheGeometry.from_spec(machine_spec)
    l1_elems = geometry.l1_elems
    l2_elems = geometry.l2_elems

    named_specs = [(level, PIPELINES[level], "named") for level in request.levels]
    fusion_levels = tuple(dict.fromkeys(int(v) for v in request.fusion_levels))
    grid = enumerate_candidates(
        enablers=tuple(request.enablers),
        fusion_levels=fusion_levels,
        regroup=request.regroup,
        max_candidates=request.max_candidates,
    )
    work = named_specs + [(spec_signature(s), s, "candidate") for s in grid]
    metrics.inc("tune.candidates", len(grid))

    root = _cache_root(request.cache)
    tcache = TuneCache(root) if root is not None else None

    cfg = request.trace
    log = RunLog.create(cfg.runs_root, cfg.run_id) if cfg and cfg.events else None
    if log is not None:
        log.write(make_event("run_start", run_id=log.run_id, total=len(work)))

    manager = PassManager.of(program)
    seen_text: dict[str, CandidateScore] = {}
    named: list[CandidateScore] = []
    candidates: list[CandidateScore] = []
    t0 = time.perf_counter()
    for index, (label, spec, kind) in enumerate(work):
        with spec_logging(log, index, name, label, memory=bool(cfg and cfg.memory)):
            result = evaluate_candidate(
                manager, label, kind, spec, steps, sizes, l1_elems,
                l2_elems, request.objective, request.threads,
                request.schedule, request.verify and kind == "candidate",
                tcache, seen_text,
            )
        (named if kind == "named" else candidates).append(result)

    candidates.sort(key=lambda c: (c.score, len(c.spec.steps), c.label))

    outcome = TuneResult(
        request=request,
        program=name,
        sizes=[dict(s) for s in sizes],
        steps=steps,
        l1_elems=l1_elems,
        l2_elems=l2_elems,
        objective=request.objective,
        named=named,
        candidates=candidates,
    )

    if request.validate_top and request.top_k > 0 and candidates:
        _validate_frontier(outcome, program, machine_spec, root)
    outcome.seconds = time.perf_counter() - t0
    if log is not None:
        log.write(
            make_event(
                "run_end",
                run_id=log.run_id,
                completed=len(work),
                total=len(work),
                seconds=round(outcome.seconds, 9),
            )
        )
        outcome.run_dir = log.run_dir
    metrics.gauge(
        "tune.best_score",
        outcome.best.score if (candidates or named) else 0.0,
    )
    return outcome


def _validate_frontier(
    outcome: TuneResult,
    program: Program,
    machine_spec: MachineSpec,
    cache_root: Optional[Path],
) -> None:
    """Measure the static frontier with the real harness (codegen+cache).

    Validation runs at the first target size only (measurement cost is
    per-size; the static ranking already covered the rest).  Agreement
    means: for every validated pair, a strictly better static score
    never measures strictly worse.
    """
    request = outcome.request
    top = outcome.candidates[: request.top_k]
    primary = outcome.sizes[0]
    for cand in top:
        with span("tune-validate", pipeline=cand.label):
            result = run(
                RunRequest(
                    program=program,
                    pipeline=cand.spec,
                    params=_program_params(program, primary),
                    machine=machine_spec,
                    steps=outcome.steps,
                    name=outcome.program,
                    engine=request.engine,
                    cache=TraceCache(cache_root) if cache_root else None,
                )
            ).results[0]
        stats = result.stats
        cand.measured = {
            "l1": stats.l1_misses,
            "l2": stats.l2_misses,
            "misses": stats.l1_misses + stats.l2_misses,
            "accesses": stats.accesses,
            "seconds": round(result.seconds, 3),
        }
        metrics.inc("tune.validated")
    outcome.validated = top
    if len(top) >= 2:
        agree = True
        for i, a in enumerate(top):
            for b in top[i + 1:]:
                if a.score < b.score and a.measured["misses"] > b.measured["misses"]:
                    agree = False
        outcome.rank_agreement = agree


#: relative slack of :func:`check_baseline`'s score comparisons
_RTOL = 1e-6


def check_baseline(
    baseline: Mapping[str, object],
    cache: Union[None, bool, str, Path] = True,
) -> list[str]:
    """The CI regression gate over a committed ``BENCH_tune.json``.

    For every program: (1) the committed best must not predict more
    misses than any committed named level; (2) every committed pipeline
    is re-analyzed under the current code, and the recomputed best must
    neither regress against its committed score nor fall behind any
    recomputed named level.

    Returns failure messages (empty = gate passes).
    """
    failures: list[str] = []
    programs = baseline.get("programs", {})
    root = _cache_root(cache)
    tcache = TuneCache(root) if root is not None else None
    for prog_name, entry in sorted(programs.items()):
        best = entry["best"]
        named = entry["named"]
        sizes = entry["sizes"]
        steps = int(entry["steps"])
        l1, l2 = int(entry["l1_elems"]), int(entry["l2_elems"])
        objective = entry.get("objective", "misses")
        threads = int(entry.get("threads") or 4)
        schedule = entry.get("schedule") or "static"
        floor = min(c["score"] for c in named.values())
        if best["score"] > floor * (1 + _RTOL):
            failures.append(
                f"{prog_name}: committed best ({best['signature']}, "
                f"{best['score']:.0f}) predicts more misses than the best "
                f"named level ({floor:.0f})"
            )
        try:
            manager = PassManager.of(resolve_target(
                entry.get("target", prog_name), sizes[0], steps
            ).program)
        except (KeyError, ReproError) as exc:
            failures.append(f"{prog_name}: cannot rebuild target: {exc}")
            continue

        def recompute(label: str, record: Mapping[str, object], spec) -> None:
            # no text dedup here: every pipeline is analyzed on its own
            score = evaluate_candidate(
                manager, label, "check", spec, steps, sizes, l1, l2,
                objective, threads, schedule, False, tcache, {},
            ).score
            if score > float(record["score"]) * (1 + _RTOL):
                failures.append(
                    f"{prog_name}/{label}: predicted misses regressed "
                    f"{record['score']:.0f} -> {score:.0f}"
                )
            recomputed[label] = score

        recomputed: dict[str, float] = {}
        recompute("best", best, parse_signature(best["signature"]))
        for level, record in sorted(named.items()):
            recompute(level, record, PIPELINES[level])
        for level, score in recomputed.items():
            if level != "best" and recomputed["best"] > score * (1 + _RTOL):
                failures.append(
                    f"{prog_name}: recomputed best "
                    f"({recomputed['best']:.0f}) predicts more misses "
                    f"than named level {level} ({score:.0f})"
                )
    return failures
