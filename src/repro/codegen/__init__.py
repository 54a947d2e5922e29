"""The production tracer: whole-nest vectorized numpy trace generation.

:func:`trace_program` enumerates every loop level as numpy index arrays
(no Python work per iteration), splits guards by membership masks, and
emits the trace as the segments the measuring chain streams
(:class:`~repro.codegen.tracer.NestTracer`).  It reads the program's one
lowering folded at the binding (:class:`repro.lang.lowering.Fold`), so a
program outside the supported input — anything not integer-affine after
parameter binding — is one :class:`~repro.lang.AnalysisError` raised by
that fold.  The differential suite under ``tests/codegen/`` proves it bit
for bit against the Walk oracle, :func:`repro.interp.trace_program`.

Programs are *executed* by :func:`repro.interp.run_program` only.
"""

from .tracer import trace_program

__all__ = [
    "trace_program",
]
