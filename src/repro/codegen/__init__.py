"""Native-speed numpy trace generation for the loop IR.

The trace generator in :mod:`repro.interp.tracegen` is the correctness
oracle; this package is the *fast path* proven against it bit for bit
by the differential suite under ``tests/codegen/``.

:func:`trace_program` is whole-nest vectorized trace generation — every
loop level is enumerated as numpy index arrays (no Python work per
iteration), guards split instance frames by membership masks, and the
per-step stream is tiled across time steps.  It falls back cleanly, per
top-level nest, to the interpreter-based oracle for any construct
outside the supported subset, recording ``codegen.*`` fallback metrics
so the degradation is observable (and lintable, code S401).

Programs are *executed* by :func:`repro.interp.run_program` only.
"""

from .lowering import CodegenUnsupported, int_affine, trace_fingerprint
from .plan import CodegenPlan, plan_program
from .tracer import trace_program

__all__ = [
    "CodegenPlan",
    "CodegenUnsupported",
    "int_affine",
    "plan_program",
    "trace_fingerprint",
    "trace_program",
]
