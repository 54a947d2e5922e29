"""The static model mirrors the dynamic trace's reference numbering.

Every cross-validation guarantee rests on one invariant: the ref_ids the
extractor assigns by walking the IR are *the same ids* the trace
generator stamps on dynamic accesses.  These tests pin that
correspondence — identities, per-reference access counts, and loop
scopes — on real programs.
"""

import numpy as np
import pytest

from repro.interp import trace_program
from repro.programs import registry
from repro.static import build_model

from conftest import build

STREAM = """
program stream
param N
real A[N], B[N]
for i = 2, N { A[i] = f(A[i - 1], B[i]) }
for i = 1, N { B[i] = g(A[i]) }
"""


def test_ref_ids_match_trace_ids():
    p = build(STREAM)
    model = build_model(p)
    tr = trace_program(p, {"N": 32})
    assert {r.ref_id for r in model.refs} == set(np.unique(tr.ref_ids).tolist())
    # the model's text for each id matches the trace's reference table
    for r in model.refs:
        assert tr.refs[r.ref_id].text == r.text


def test_exec_counts_match_trace_counts():
    p = build(STREAM)
    model = build_model(p)
    n = 17
    tr = trace_program(p, {"N": n})
    counts = np.bincount(tr.ref_ids, minlength=len(model.refs))
    for r in model.refs:
        assert int(r.exec_count().evaluate({"N": n})) == int(counts[r.ref_id])


@pytest.mark.parametrize("name", ["sp", "adi"])
def test_registry_programs_correspond(name):
    entry = registry.get(name)
    program = entry.build()
    model = build_model(program)
    params = dict(entry.small_params)
    tr = trace_program(program, params)  # one body pass is enough
    assert {r.ref_id for r in model.refs} == set(np.unique(tr.ref_ids).tolist())
    counts = np.bincount(tr.ref_ids, minlength=len(model.refs))
    for r in model.refs:
        assert int(r.exec_count().evaluate(params)) == int(counts[r.ref_id])
    # total accesses is the sum of the per-reference counts
    assert int(model.total_accesses().evaluate(params)) == len(tr.ref_ids)


def test_scopes_carry_exact_trip_counts():
    p = build(STREAM)
    model = build_model(p)
    for r in model.refs:
        env = {"N": 23}
        trip = 1
        for ctx in r.scope:
            width = ctx.hi.evaluate(env) - ctx.lo.evaluate(env) + 1
            assert int(ctx.trip.evaluate(env)) == int(width)
            trip *= int(width)
        assert int(r.exec_count().evaluate(env)) == trip


GUARDED = """
program guarded
param N
real A[N, N], B[N, N]
for i = 1, N {
  for k = 1, N {
    when i in [2:N - 1] { A[k, i] = f(A[k, i - 1], B[k, i]) } else { A[k, i] = 0.0 }
  }
}
for j = 1, N {
  when j in [1, N] { B[1, j] = g(A[1, j]) }
}
"""


def test_guards_narrow_the_guarded_scope():
    from repro.lang import Affine
    from repro.static import analyze_program

    p = build(GUARDED)
    model = build_model(p)
    n = Affine.var("N")
    body, orelse, border = model.refs[0], model.refs[3], model.refs[4]

    # one interval: the body's range *is* the interval
    ctx = body.scope[0]
    assert (ctx.index, ctx.lo, ctx.hi, ctx.exact) == ("i", Affine.constant(2), n - 1, True)
    assert ctx.trip.evaluate({"N": 12}) == 10
    # the else branch keeps the loop's hull and counts the complement
    ctx = orelse.scope[0]
    assert (ctx.lo, ctx.hi, ctx.exact) == (Affine.constant(1), n, False)
    assert ctx.trip.evaluate({"N": 12}) == 2
    # an inner, unguarded level is untouched on both branches
    assert body.scope[1] == orelse.scope[1] and body.scope[1].exact
    # two intervals: the hull [1, N] over-covers, the trip does not
    ctx = border.scope[0]
    assert (ctx.lo, ctx.hi, ctx.exact) == (Affine.constant(1), n, False)
    assert ctx.trip.evaluate({"N": 12}) == 2
    # a narrowed level still belongs to the loop it narrows
    assert body.scope[0].loop_id == orelse.scope[0].loop_id != border.scope[0].loop_id

    # the same numbering, and the same number of accesses, as the tracer
    trace = trace_program(p, {"N": 12})
    assert [(r.ref_id, r.stmt_id, r.array, r.is_write, r.text) for r in model.refs] == [
        (r.ref_id, r.stmt_id, r.array, r.is_write, r.text) for r in trace.refs
    ]
    counts = np.bincount(trace.ref_ids, minlength=len(model.refs))
    for r in model.refs:
        assert int(r.exec_count().evaluate({"N": 12})) == int(counts[r.ref_id])
    assert analyze_program(p).histogram({"N": 12}).total == len(trace) == 388
