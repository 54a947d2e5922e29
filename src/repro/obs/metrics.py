"""Process-wide metrics registry: named counters and gauges.

Instrumented subsystems report through the module-level helpers
(``inc``/``gauge``) into one default :data:`REGISTRY`; observers take
:meth:`MetricsRegistry.snapshot` before and after a region and diff the
two with :meth:`MetricsRegistry.delta` — the pattern ``repro profile``
and the per-spec run logs use.

Names are dotted, lowercase, and stable — they are part of the event
schema's payload.  Current emitters:

==============================  =====================================
``cache.trace.hits/misses``     :class:`repro.harness.TraceCache`
``cache.result.hits/misses``    ... result entries
``cache.tune.hits/misses``      ... tune score entries (``repro tune``)
``cache.<kind>.stores``         ... entries written, per kind
``engine.fast.calls``           :func:`repro.memsim.fastsim.simulate_fast`
``engine.fast.n_way_distance``  assoc>=3 via the near/far stack-distance kernel
``engine.reference.calls``      scalar reference engine dispatches
``verify.diagnostics.<sev>``    :class:`repro.verify.DiagnosticBag`
``locality.reuse.accesses``     accesses through ``reuse_distances``
``trace.accesses``              accesses generated by the harness
``trace.generated``             traces generated (cache misses only)
``steps.probe.matched``         runs whose step 2, probed from step 1's
                                first chunk, came back to a state of
                                step 1's (:func:`repro.harness.simulate_steps`)
``steps.fallback``              ... whose probe did not: step 2 traced
                                again
``analysis.cache.hits/misses``  fusion's per-level access memo
``analysis.static.runs``        :func:`repro.static.analyze_program`
``analysis.static.refs``        ... references modeled symbolically
``analysis.static.components``  ... reuse components attributed
``analysis.static.<work>``      ... ``shift_candidates`` calls while
                                attributing a model, same-array pairs
                                outside one uniformly generated set
                                (``ungrouped_pairs``: the shift solver
                                is never asked), and per memo of
                                the analysis (``reuse.MEMOS``) the
                                answers computed (``hulls``,
                                ``compares``, ``shift_solves``,
                                ``window_distance``, ``union_hulls``,
                                ``eliminate``, ...) and served again
                                (``hull_hits``, ``compare_hits``,
                                ``shift_hits``, ``window_hits``, ...)
``analysis.parallelism.*``      :func:`repro.static.analyze_parallelism`
                                ``runs``, ``axes``, axes per verdict
                                (``doall``, ``reduction``, ``serial``),
                                ``races`` (with a witness) and
                                ``inexact`` (a witness search that ran
                                out of budget)
``pm.pass.runs``                passes executed by the pass manager
``pm.pass.<name>.runs``         ... the same, per pass
``pm.pass.shared``              steps a pipeline found already run by an
                                earlier pipeline of the same manager
``pm.certify.shared``           legality verdicts replayed, not recomputed
``pm.pipeline.runs``            full pipeline compilations
==============================  =====================================

Counters are monotonic within a process; gauges are last-write-wins.
Forked worker processes inherit a copy of the registry — per-spec deltas
taken inside the worker are therefore still correct.
"""

from __future__ import annotations

import threading


class MetricsRegistry:
    """Thread-safe named counters and gauges with snapshot/delta."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        with self._lock:
            self._gauges[name] = value

    def snapshot(self) -> dict[str, dict[str, float]]:
        """A point-in-time copy: ``{"counters": {...}, "gauges": {...}}``."""
        with self._lock:
            return {"counters": dict(self._counters), "gauges": dict(self._gauges)}

    def reset(self) -> None:
        """Drop every counter and gauge (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()

    @staticmethod
    def delta(
        before: dict[str, dict[str, float]], after: dict[str, dict[str, float]]
    ) -> dict[str, dict[str, float]]:
        """Counter increments and gauge changes between two snapshots.

        Counters report ``after - before`` (zero-change entries omitted);
        gauges report the ``after`` value wherever it changed or appeared.
        """
        counters = {}
        for name, value in after.get("counters", {}).items():
            d = value - before.get("counters", {}).get(name, 0)
            if d:
                counters[name] = d
        gauges = {
            name: value
            for name, value in after.get("gauges", {}).items()
            if before.get("gauges", {}).get(name) != value
        }
        return {"counters": counters, "gauges": gauges}


#: The process-wide default registry every instrumented subsystem uses.
REGISTRY = MetricsRegistry()


def inc(name: str, value: float = 1) -> None:
    """Increment a counter in the default registry."""
    REGISTRY.inc(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge in the default registry."""
    REGISTRY.gauge(name, value)


def snapshot() -> dict[str, dict[str, float]]:
    """Snapshot the default registry."""
    return REGISTRY.snapshot()
