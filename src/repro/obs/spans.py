"""Span-based tracing: nested, timed, optionally memory-profiled blocks.

``span("fusion")`` times a block; inside an active :class:`SpanCollector`
the spans nest (the collector tracks the open-span stack and records
events in pre-order), carry free-form attributes (loop counts, engine
names, miss counts — whatever the instrumented site knows), and — when
the collector enables it — a ``tracemalloc`` peak-memory figure per
span, with child peaks propagated to their parents.

Outside any collector a span still measures its own duration (so call
sites can thread wall-clock into legacy ``timings`` dicts) but records
nothing — the overhead is two ``perf_counter`` calls.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .events import make_event

_ACTIVE: contextvars.ContextVar[Optional["SpanCollector"]] = contextvars.ContextVar(
    "repro_obs_collector", default=None
)


@dataclass
class SpanEvent:
    """One finished (or still-open) span."""

    name: str
    path: str  # dotted ancestry, e.g. "compile.fusion"
    depth: int
    start_s: float  # seconds since the collector was entered
    duration_s: float = 0.0
    peak_kb: Optional[float] = None  # tracemalloc peak, when tracked
    attrs: dict = field(default_factory=dict)

    def to_event(self, ts: Optional[float] = None) -> dict:
        """Serialize as a schema-v1 ``span`` event dict."""
        extra = {} if self.peak_kb is None else {"peak_kb": round(self.peak_kb, 3)}
        return make_event(
            "span",
            ts=ts,
            name=self.name,
            path=self.path,
            depth=self.depth,
            start_s=round(self.start_s, 9),
            dur_s=round(self.duration_s, 9),
            attrs={k: _plain(v) for k, v in self.attrs.items()},
            **extra,
        )


def _plain(value: object) -> object:
    """JSON-safe attribute values (tuples become lists, exotica become str).

    A tuple type with its own ``__str__`` (an affine form, a polynomial)
    is one value, not a sequence: it renders as text."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)) and type(value).__str__ is object.__str__:
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)


class SpanCollector:
    """Collects the spans opened while it is the active collector.

    Use as a context manager; ``events`` holds :class:`SpanEvent` records
    in pre-order (parents before children) once the block exits.  With
    ``memory=True`` the collector starts ``tracemalloc`` (if not already
    tracing) and attaches a peak-kB figure to every span.
    """

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.events: list[SpanEvent] = []
        self._stack: list[SpanEvent] = []
        self._token: Optional[contextvars.Token] = None
        self._t0 = 0.0
        self._started_tracemalloc = False
        #: wall-clock of the whole collected block; set by spec_logging
        self.seconds: float = 0.0
        #: metrics-registry delta over the block; set by spec_logging
        self.metrics: dict = {}

    def __enter__(self) -> "SpanCollector":
        self._t0 = time.perf_counter()
        self._token = _ACTIVE.set(self)
        if self.memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
            tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc: object) -> None:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        if self._started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._started_tracemalloc = False

    # -- span bookkeeping (used by the span() context manager) ----------

    def _open(self, name: str, attrs: dict) -> SpanEvent:
        path = ".".join([s.name for s in self._stack] + [name])
        ev = SpanEvent(
            name=name,
            path=path,
            depth=len(self._stack),
            start_s=time.perf_counter() - self._t0,
            attrs=attrs,
        )
        self.events.append(ev)  # pre-order: parents precede children
        self._stack.append(ev)
        if self.memory:
            import tracemalloc

            tracemalloc.reset_peak()
        return ev

    def _resume(self, ev: SpanEvent) -> None:
        """Re-open an event recorded earlier (a :class:`ChunkedSpan`)."""
        self._stack.append(ev)
        if self.memory:
            import tracemalloc

            tracemalloc.reset_peak()

    def _close(self, ev: SpanEvent, duration: float) -> None:
        self._stack.pop()
        ev.duration_s = duration
        if self.memory:
            import tracemalloc

            peak_kb = tracemalloc.get_traced_memory()[1] / 1024.0
            ev.peak_kb = max(peak_kb, ev.peak_kb or 0.0)
            if self._stack:
                parent = self._stack[-1]
                # a parent's peak is at least any child's peak
                parent.peak_kb = max(parent.peak_kb or 0.0, ev.peak_kb)
            tracemalloc.reset_peak()


def current_collector() -> Optional[SpanCollector]:
    """The active :class:`SpanCollector`, or None when not collecting."""
    return _ACTIVE.get()


@contextmanager
def span(name: str, **attrs: object) -> Iterator[SpanEvent]:
    """Time a block; record it in the active collector when there is one.

    Yields the :class:`SpanEvent` so call sites can attach attributes
    after the fact (``sp.attrs["misses"] = n``) and read the measured
    ``duration_s`` once the block exits.
    """
    collector = _ACTIVE.get()
    if collector is None:
        ev = SpanEvent(name=name, path=name, depth=0, start_s=0.0, attrs=dict(attrs))
        t0 = time.perf_counter()
        try:
            yield ev
        finally:
            ev.duration_s = time.perf_counter() - t0
        return
    ev = collector._open(name, dict(attrs))
    t0 = time.perf_counter()
    try:
        yield ev
    finally:
        collector._close(ev, time.perf_counter() - t0)


class ChunkedSpan:
    """One span over a stage that runs a chunk at a time.

    The measuring chain interleaves its stages chunk by chunk (trace,
    lay out, simulate each level, next chunk); each stage still reports
    one span.  Every ``with stage.chunk():`` block adds its seconds to
    the same event and bumps its ``chunks`` attribute; the event enters
    the active collector (if any) where its first chunk starts, nests
    whatever spans open inside any chunk, and keeps the largest peak.
    """

    def __init__(self, name: str, **attrs: object) -> None:
        self._collector = _ACTIVE.get()
        self.event = SpanEvent(name=name, path=name, depth=0, start_s=0.0,
                               attrs=dict(attrs, chunks=0))

    @property
    def duration_s(self) -> float:
        return self.event.duration_s

    @contextmanager
    def chunk(self) -> Iterator[SpanEvent]:
        collector, ev = self._collector, self.event
        if collector is not None:
            if ev.attrs["chunks"] == 0:
                ev = self.event = collector._open(ev.name, ev.attrs)
            else:
                collector._resume(ev)
        ev.attrs["chunks"] += 1
        t0 = time.perf_counter()
        try:
            yield ev
        finally:
            total = ev.duration_s + time.perf_counter() - t0
            if collector is None:
                ev.duration_s = total
            else:
                collector._close(ev, total)
