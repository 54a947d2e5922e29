"""Native-speed numpy trace generation for the loop IR.

The trace generator in :mod:`repro.interp.tracegen` is the correctness
oracle; this package is the *fast path* proven against it bit for bit
by the differential suite under ``tests/codegen/``.

:func:`trace_program` is whole-nest vectorized trace generation — every
loop level is enumerated as numpy index arrays (no Python work per
iteration), guards split instance frames by membership masks, and the
trace comes out as the segments the measuring chain streams
(:class:`~repro.codegen.tracer.NestTracer`).  It reads the same lowered
form as the oracle (integer address records, see
:mod:`repro.interp.tracegen`), so a program outside the supported input
— anything not integer-affine after parameter binding — is one
:class:`~repro.lang.AnalysisError` raised by that shared lowering, not a
second code path.

Programs are *executed* by :func:`repro.interp.run_program` only.
"""

from .lowering import trace_fingerprint
from .tracer import trace_program

__all__ = [
    "trace_fingerprint",
    "trace_program",
]
