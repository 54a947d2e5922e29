"""The experiment front door: ``run(RunRequest) -> RunResult``.

One entry point replaces the historical trio (``measure``,
``measure_application``, ``run_application``), removed in v2.0.  A
:class:`RunRequest` names *what* to run — program (registry name,
``"fft"`` or :class:`~repro.lang.Program`), levels, size, machine,
option objects — and *how* — engine, cache, verification, parallelism,
and observability sinks (:class:`~repro.obs.TraceConfig`).

``run`` resolves the target (:func:`repro.programs.registry.resolve_target`),
folds the request into :func:`~repro.harness.measure_variant` options,
and hands the levels to the one runner loop in
:mod:`repro.harness.parallel`.  Every result is a
:class:`~repro.harness.VariantResult`; serial requests keep the compiled
variant and collected spans, pooled ones (``jobs != 1``, several levels)
come back without them but otherwise identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from ..lang import Program, ReproError
from ..memsim import MachineConfig
from ..obs import TraceConfig
from ..programs.registry import resolve_target
from ..verify import PassVerifier
from .cache import TraceCache
from .experiment import VariantResult, machine_for
from .parallel import run_levels


@dataclass(frozen=True)
class RunRequest:
    """Everything one experiment run needs, as a single value.

    ``program``
        a registry name, ``"fft"`` (built at ``params["n"]``), or a
        parsed/validated :class:`~repro.lang.Program`;
    ``levels``
        one level, a comma-separated string, or a sequence of levels;
    ``pipeline``
        compile through a specific pipeline instead of ``levels``: a
        registered pipeline name, a sequence of registered pass names,
        or a :class:`~repro.core.PipelineSpec`.  Custom (unnamed)
        pipelines run serially only;
    ``params`` / ``machine`` / ``steps``
        default to the registry entry's values (``machine`` also accepts
        a machine name, a :class:`~repro.programs.registry.MachineSpec`,
        or a built :class:`~repro.memsim.MachineConfig`);
    ``regroup_options`` / ``engine`` / ``verify``
        threaded to :func:`~repro.core.compile_variant` and the
        simulator exactly as their keyword twins there;
    ``cache``
        ``True`` (default directory), a path, or a
        :class:`~repro.harness.TraceCache`;
    ``jobs``
        1 = serial (default); ``None`` = one worker per CPU; n = that
        many workers (parallel runs need a registry ``program`` name);
    ``result_cache``
        ``False`` keeps the trace cache but always re-simulates;
    ``trace``
        observability sinks (:class:`~repro.obs.TraceConfig`).
    """

    program: Union[str, Program]
    levels: Union[str, Sequence[str]] = ("noopt",)
    pipeline: Optional[object] = None
    params: Optional[Mapping[str, int]] = None
    machine: Optional[Union[str, MachineConfig, object]] = None
    steps: Optional[int] = None
    name: Optional[str] = None
    regroup_options: Optional[object] = None
    #: engine spec per :func:`repro.engines.resolve_engines`, e.g.
    #: "fast", "codegen", or "reference+interp"
    engine: Optional[str] = None
    cache: Union[None, bool, str, Path, TraceCache] = None
    verify: Union[bool, PassVerifier] = False
    jobs: Optional[int] = 1
    result_cache: bool = True
    trace: Optional[TraceConfig] = None


@dataclass
class RunResult:
    """The outcome of one :func:`run` call."""

    request: RunRequest
    results: list[VariantResult]
    run_dir: Optional[Path] = None
    seconds: float = 0.0

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> VariantResult:
        return self.results[index]

    def rows(self) -> list[dict]:
        return [r.row() for r in self.results]


def _resolve_levels(levels: Union[str, Sequence[str]]) -> list[str]:
    if isinstance(levels, str):
        return [lv for lv in levels.split(",") if lv]
    return list(levels)


def _resolve_cache(cache: Union[None, bool, str, Path, TraceCache]) -> Optional[TraceCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return TraceCache()
    if isinstance(cache, TraceCache):
        return cache
    return TraceCache(cache)


def run(request: RunRequest) -> RunResult:
    """Execute one experiment request; the single front door."""
    from ..core.pm import resolve_pipeline

    pipeline_spec = None
    if request.pipeline is not None:
        pipeline_spec = resolve_pipeline(request.pipeline)
        levels = [pipeline_spec.name]
    else:
        levels = _resolve_levels(request.levels)
        for level in levels:
            resolve_pipeline(level)  # strict: bogus names raise here
    if not levels:
        raise ReproError("RunRequest.levels is empty")

    target = resolve_target(
        request.program,
        request.params,
        request.steps,
        request.name,
        missing="RunRequest with a Program object requires params",
    )
    machine = request.machine
    if not isinstance(machine, MachineConfig):
        machine = machine_for(machine or target.machine_spec)

    workers = request.jobs if request.jobs is not None else (os.cpu_count() or 1)
    pooled = workers > 1 and len(levels) > 1
    if pooled and not isinstance(request.program, str):
        raise ReproError(
            "parallel runs (jobs != 1) need a registry application name; "
            "compiled variants do not cross process boundaries"
        )
    options = dict(
        params=target.params,
        machine=machine,
        steps=target.steps,
        name=target.name,
        regroup_options=request.regroup_options,
        engine=request.engine,
        cache=_resolve_cache(request.cache),
        verify=bool(request.verify) if pooled else request.verify,
        result_cache=request.result_cache,
        pipeline=pipeline_spec,
    )
    results, run_dir, seconds = run_levels(
        request.program if pooled else target.program,
        levels,
        options,
        workers if pooled else 1,
        request.trace,
    )
    return RunResult(request, results, run_dir=run_dir, seconds=seconds)
