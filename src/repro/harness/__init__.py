"""Experiment drivers and table formatting shared by benchmarks/examples.

Everything enters through :func:`run` with a :class:`RunRequest` —
serial or pooled (``jobs=``) — and comes back as
:class:`VariantResult` rows.  The historical ``measure`` /
``measure_application`` / ``run_application`` trio is gone (v2.0); see
the README migration table for the ``RunRequest`` equivalents.
"""

from .artifacts import merge_json_artifact
from .cache import TraceCache, default_cache_dir, layout_fingerprint
from .experiment import (
    VariantResult,
    machine_for,
    measure_variant,
    stage_timer,
    variant_chunks,
    variant_stream,
)
from .run import RunRequest, RunResult, run
from .sweep import SweepPoint, growth_factor, scaling_sweep
from .tables import (
    NORMALIZED_HEADERS,
    TIMING_HEADERS,
    TIMING_STAGES,
    format_table,
    geometric_mean,
    normalized_rows,
    ratio,
    timing_rows,
)

__all__ = [
    "NORMALIZED_HEADERS",
    "RunRequest",
    "RunResult",
    "SweepPoint",
    "TIMING_HEADERS",
    "TIMING_STAGES",
    "TraceCache",
    "VariantResult",
    "default_cache_dir",
    "format_table",
    "geometric_mean",
    "layout_fingerprint",
    "machine_for",
    "measure_variant",
    "merge_json_artifact",
    "normalized_rows",
    "ratio",
    "growth_factor",
    "run",
    "scaling_sweep",
    "stage_timer",
    "timing_rows",
    "variant_chunks",
    "variant_stream",
]
