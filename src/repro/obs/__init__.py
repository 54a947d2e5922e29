"""Observability subsystem: spans, metrics, run logs, profiles.

One vocabulary threaded through the whole stack:

* :func:`span` / :class:`SpanCollector` — nested wall-clock (and
  optional peak-memory) tracing emitted by the compiler pipeline, trace
  generation, and every simulation stage (:class:`ChunkedSpan` for a
  stage that runs a chunk at a time);
* :data:`REGISTRY` (:class:`MetricsRegistry`) — process-wide counters
  and gauges (cache hits, engine fallbacks, verifier diagnostics);
* :class:`RunLog` + :class:`TraceConfig` — per-run JSONL event sinks
  under ``runs/<id>/events.jsonl`` with a versioned, validated schema;
* :func:`format_span_tree` / :func:`format_metric_delta` — the
  renderings ``repro profile`` and ``repro runs`` print.

The package depends only on the standard library, so any layer of the
repo may import it without cycles.
"""

from .events import (
    EVENT_KINDS,
    OPTIONAL_FIELDS,
    RUN_LOG_FILENAME,
    SCHEMA_VERSION,
    SchemaError,
    make_event,
    validate_event,
)
from .metrics import REGISTRY, MetricsRegistry, gauge, inc, snapshot
from .profile import format_metric_delta, format_span_tree
from .runlog import (
    DEFAULT_RUNS_DIR,
    RunLog,
    TraceConfig,
    list_runs,
    new_run_id,
    runs_root,
    spec_logging,
    summarize_run,
)
from .spans import ChunkedSpan, SpanCollector, SpanEvent, current_collector, span

__all__ = [
    "ChunkedSpan",
    "DEFAULT_RUNS_DIR",
    "EVENT_KINDS",
    "OPTIONAL_FIELDS",
    "REGISTRY",
    "RUN_LOG_FILENAME",
    "SCHEMA_VERSION",
    "MetricsRegistry",
    "RunLog",
    "SchemaError",
    "SpanCollector",
    "SpanEvent",
    "TraceConfig",
    "current_collector",
    "format_metric_delta",
    "format_span_tree",
    "gauge",
    "inc",
    "list_runs",
    "make_event",
    "new_run_id",
    "runs_root",
    "snapshot",
    "span",
    "spec_logging",
    "summarize_run",
    "validate_event",
]
