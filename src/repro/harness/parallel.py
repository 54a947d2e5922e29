"""The one runner loop: measure a program at each level, in input order.

:func:`run_levels` is the loop behind :func:`repro.harness.run`.  It
owns the run-level bookkeeping — the ``run_start``/``run_end`` events
and the slowest-level record — and has two branches:

*in-process* (``workers <= 1``)
    levels run one after another in this interpreter, so results keep
    the compiled variant, the collected spans and the metrics delta, and
    the job may carry a :class:`~repro.lang.Program`, a custom pipeline
    and a :class:`~repro.verify.PassVerifier`;
*pool* (``workers > 1``)
    levels fan out with ``multiprocessing.Pool.imap`` (``chunksize=1``),
    which yields in input order, so a pooled run returns *bit-identical*
    rows in the *same order* as an in-process one — the property the
    integration tests pin.  The job crosses the process boundary as a
    bundled program name plus plain-data options, and results come back
    without the variant: a :class:`~repro.core.CompiledVariant` carries
    layout closures that do not pickle.  Workers share traces through
    the on-disk :class:`~repro.harness.cache.TraceCache`.

Observability: given a :class:`~repro.obs.TraceConfig` with
``events=True`` the loop creates ``runs/<id>/events.jsonl`` and every
level streams its span/metric events into it (schema v1, see
:mod:`repro.obs.events`).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from ..lang import Program
from ..obs import RunLog, TraceConfig, make_event, spec_logging
from ..programs.registry import resolve_target
from .experiment import VariantResult, measure_variant


def _measure_level(item: tuple) -> VariantResult:
    """Measure one level, streaming its events to the run log."""
    program, level, options, run_dir, index, memory = item
    log = RunLog(run_dir) if run_dir else None
    name = options["name"]
    with spec_logging(log, index, name, level, memory=memory) as collector:
        if isinstance(program, str):  # a pool job: rebuild on this side
            program = resolve_target(program, options["params"]).program
        result = measure_variant(program, level, **options)
    result.seconds = collector.seconds
    result.spans = collector.events
    result.metrics = collector.metrics
    return result


def _measure_level_slim(item: tuple) -> VariantResult:
    """Pool entry (module-level so workers can import it): what pickles."""
    return dataclasses.replace(
        _measure_level(item), variant=None, spans=[], metrics={}
    )


def run_levels(
    program: Union[str, Program],
    levels: Sequence[str],
    options: Mapping[str, object],
    workers: int = 1,
    trace: Optional[TraceConfig] = None,
) -> tuple[list[VariantResult], Optional[Path], float]:
    """Measure ``program`` at every level; ``(results, run_dir, seconds)``.

    ``options`` are :func:`measure_variant`'s keyword arguments, shared
    by all levels.  With ``workers > 1`` ``program`` must be a bundled
    name and every option plain data (see the module docstring).
    """
    log = None
    if trace and trace.events:
        log = RunLog.create(trace.runs_root, trace.run_id)
        log.write(make_event("run_start", run_id=log.run_id, total=len(levels)))
    run_dir = str(log.run_dir) if log is not None else None
    memory = bool(trace and trace.memory)
    items = [
        (program, level, options, run_dir, index, memory)
        for index, level in enumerate(levels)
    ]

    t0 = time.perf_counter()
    if workers <= 1:
        results = [_measure_level(item) for item in items]
    else:
        # fork keeps the already-imported interpreter state; imap with
        # chunksize=1 yields in input order as soon as each completes.
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(workers, len(levels))) as pool:
            results = list(pool.imap(_measure_level_slim, items, chunksize=1))

    seconds = time.perf_counter() - t0
    if log is not None:
        slowest = max(results, key=lambda result: result.seconds)
        log.write(
            make_event(
                "run_end",
                run_id=log.run_id,
                completed=len(results),
                total=len(levels),
                seconds=round(seconds, 9),
                slowest={
                    "program": slowest.program,
                    "level": slowest.level,
                    "seconds": round(slowest.seconds, 9),
                },
            )
        )
    return results, log.run_dir if log is not None else None, seconds
