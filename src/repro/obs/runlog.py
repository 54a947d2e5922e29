"""Per-run JSONL event logs under ``runs/<id>/events.jsonl``.

Every harness run (serial or pooled ``jobs=`` workers) that enables the
events sink gets a run directory holding one append-only JSONL file of
schema-v1 events (see :mod:`repro.obs.events`).
Worker processes append directly — each event is a single short
``write()`` of one line, so concurrent appends from forked workers do
not interleave in practice — and ``repro runs`` summarizes the logs
afterwards.

:class:`TraceConfig` is the sink configuration object the experiment
front door (:func:`repro.harness.run`) accepts.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

from .events import RUN_LOG_FILENAME, SchemaError, make_event, validate_event
from .metrics import REGISTRY, MetricsRegistry
from .spans import SpanCollector

#: Default directory run logs land in (overridable via ``REPRO_RUNS_DIR``).
DEFAULT_RUNS_DIR = "runs"


@dataclass(frozen=True)
class TraceConfig:
    """Observability sinks for one experiment run.

    ``events``
        write a ``runs/<id>/events.jsonl`` run log;
    ``runs_root`` / ``run_id``
        where the run directory is created (defaults: ``runs/`` or
        ``$REPRO_RUNS_DIR``; a fresh timestamped id);
    ``memory``
        track ``tracemalloc`` peaks per span (slower; ``repro profile``
        turns this on);
    ``progress``
        stream live completed/total + ETA + slowest-spec lines.
    """

    events: bool = False
    runs_root: Optional[str] = None
    run_id: Optional[str] = None
    memory: bool = False
    progress: bool = False


def runs_root(root: Optional[Union[str, Path]] = None) -> Path:
    """The directory run logs live under."""
    if root is not None:
        return Path(root)
    return Path(os.environ.get("REPRO_RUNS_DIR", DEFAULT_RUNS_DIR))


def new_run_id() -> str:
    """A sortable, collision-resistant run id."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:6]


class RunLog:
    """Append-only writer/reader for one run's ``events.jsonl``."""

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / RUN_LOG_FILENAME

    @classmethod
    def create(
        cls,
        root: Optional[Union[str, Path]] = None,
        run_id: Optional[str] = None,
    ) -> "RunLog":
        run_dir = runs_root(root) / (run_id or new_run_id())
        run_dir.mkdir(parents=True, exist_ok=True)
        return cls(run_dir)

    @property
    def run_id(self) -> str:
        return self.run_dir.name

    def write(self, event: dict) -> None:
        """Validate and append one event as one JSONL line."""
        validate_event(event)
        line = json.dumps(event, sort_keys=True) + "\n"
        # open/append/close per event: safe across forked workers, and a
        # run emits few enough events that the syscall cost is noise
        with open(self.path, "a") as handle:
            handle.write(line)

    def events(self) -> list[dict]:
        """Parse the log; corrupt or unknown-schema lines are skipped."""
        out: list[dict] = []
        if not self.path.exists():
            return out
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
                validate_event(event)
            except (ValueError, SchemaError):
                continue
            out.append(event)
        return out


def list_runs(root: Optional[Union[str, Path]] = None) -> list[Path]:
    """Run directories (those containing an event log), oldest first."""
    base = runs_root(root)
    if not base.is_dir():
        return []
    return sorted(
        p for p in base.iterdir() if (p / RUN_LOG_FILENAME).is_file()
    )


def summarize_run(run_dir: Union[str, Path]) -> dict:
    """Aggregate one run log into the summary ``repro runs`` prints."""
    log = RunLog(run_dir)
    events = log.events()
    total = completed = 0
    seconds = 0.0
    started: Optional[float] = None
    slowest: Optional[dict] = None
    levels: set[str] = set()
    programs: set[str] = set()
    for event in events:
        if started is None:
            started = float(event["ts"])
        kind = event["kind"]
        if kind == "run_start":
            total = int(event["total"])
        elif kind == "spec_end":
            completed += 1
            seconds += float(event["seconds"])
            programs.add(str(event["program"]))
            levels.add(str(event["level"]))
            if slowest is None or event["seconds"] > slowest["seconds"]:
                slowest = {
                    "program": event["program"],
                    "level": event["level"],
                    "seconds": float(event["seconds"]),
                }
        elif kind == "run_end":
            total = int(event["total"])
            seconds = float(event["seconds"])
    return {
        "run_id": log.run_id,
        "path": str(log.path),
        "events": len(events),
        "started": started,
        "total": total or completed,
        "completed": completed,
        "seconds": seconds,
        "slowest": slowest,
        "programs": sorted(programs),
        "levels": sorted(levels),
    }


@contextmanager
def spec_logging(
    log: Optional[RunLog],
    index: int,
    program: str,
    level: str,
    memory: bool = False,
) -> Iterator[SpanCollector]:
    """Collect one spec's spans + metrics delta, streaming to ``log``.

    Yields the active :class:`SpanCollector`; on exit it carries the
    spec's wall-clock ``seconds`` and metrics-registry ``metrics`` delta,
    and — when a log is given — the spec_start/span/metrics/spec_end
    events have been appended.
    """
    before = REGISTRY.snapshot()
    if log is not None:
        log.write(make_event("spec_start", index=index, program=program, level=level))
    collector = SpanCollector(memory=memory)
    t0 = time.perf_counter()
    try:
        with collector:
            yield collector
    finally:
        collector.seconds = time.perf_counter() - t0
        collector.metrics = MetricsRegistry.delta(before, REGISTRY.snapshot())
        if log is not None:
            for ev in collector.events:
                log.write(ev.to_event())
            if collector.metrics["counters"] or collector.metrics["gauges"]:
                log.write(make_event("metrics", **collector.metrics))
            log.write(
                make_event(
                    "spec_end",
                    index=index,
                    program=program,
                    level=level,
                    seconds=round(collector.seconds, 9),
                )
            )
