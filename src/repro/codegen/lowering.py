"""Trace fingerprints for the codegen differential suite.

The lowering itself is shared with the interpreter tracer
(:class:`repro.interp.tracegen._Compiler`: integer address records, an
:class:`~repro.lang.AnalysisError` for anything that is not
integer-affine after binding); what is left here is the hash the golden
fingerprints and the perf ledger compare traces by.
"""

from __future__ import annotations

import hashlib

import numpy as np


def trace_fingerprint(trace) -> str:
    """Stable hash of an :class:`~repro.interp.trace.AccessTrace`.

    Same scheme as :func:`repro.harness.cache.layout_fingerprint`
    (sha256 prefix), over every array that defines trace equality, so
    the committed golden fingerprints diff readably per variant.
    """
    h = hashlib.sha256()
    h.update(repr(trace.array_names).encode())
    h.update(repr(trace.array_sizes).encode())
    h.update(repr([(r.ref_id, r.stmt_id, r.array, r.is_write, r.text) for r in trace.refs]).encode())
    for arr in (trace.array_ids, trace.elems, trace.ref_ids):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    h.update(np.packbits(np.asarray(trace.writes, dtype=bool)).tobytes())
    if trace.instr_ids is not None:
        h.update(np.ascontiguousarray(trace.instr_ids, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]
