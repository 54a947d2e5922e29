"""The multicore predictor's per-thread table (``multicore._share``).

Each reference's box on a thread is what ``lang.scope.eliminate`` gives
over its scope with the outer level narrowed to the thread's span, so a
subscript coupling two indices keeps the footprint it really has: every
box lies inside the array's declared extents.  Widening each index on
its own gave ``B[j - i + 1, i]`` under ``j = i, N`` rows (-10, 12) at
N=12, outside the array's 12 rows.
"""

from __future__ import annotations

import pytest

from repro.lang import parse, validate
from repro.static import analyze_parallelism, analyze_program, predict_multicore
from repro.static.multicore import _share

#: a column sweep, then a triangular sweep reading B through a coupled
#: subscript: rows j - i + 1 run over 1 .. N - i + 1
COUPLED = """
program coupled
param N
real A[N,N]
real B[N,N]
for j = 1, N {
  for i = 1, N {
    B[i,j] = A[i,j] + 1.0
  }
}
for i = 1, N {
  for j = i, N {
    A[j,i] = A[j,i] + B[j - i + 1, i]
  }
}
"""

#: the reversal: rows i - j + 1 run over 1 .. i
REVERSED = """
program reversed
param N
real A[N,N]
real B[N,N]
for i = 1, N {
  for j = 1, i {
    B[j,i] = A[i - j + 1, j]
  }
}
"""

SCHEDULES = ("static", "static,2", "guided", "dynamic")


def shares(source: str, n: int, threads: int, schedule: str):
    """``(ref, share)`` for every reference of ``source`` at ``N=n``."""
    program = validate(parse(source))
    env = {"N": n}
    model = analyze_program(program).model
    parallel = frozenset(analyze_parallelism(program, env).parallel_nests())
    return model, [
        (ref, _share(ref.scope, ref.subs, ref.nest in parallel, env, threads, schedule))
        for ref in model.refs
    ]


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("threads", [2, 3, 4])
@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("source", [COUPLED, REVERSED], ids=["coupled", "reversed"])
def test_every_thread_box_lies_inside_its_array(source, n, threads, schedule):
    model, table = shares(source, n, threads, schedule)
    for ref, share in table:
        extents = model.arrays[ref.array].shape({"N": n})
        for part in share.parts:
            if part is None:
                continue
            for (lo, hi), extent in zip(part[0], extents):
                assert 1 <= lo <= hi <= extent, (ref.text, part[0], extents)


def test_a_coupled_subscript_keeps_its_rows_on_a_chunk():
    # T=4 static at N=12: thread 1 runs i in [4, 6], whose rows of
    # B[j - i + 1, i] run over 1 .. 12 - 4 + 1
    _, table = shares(COUPLED, 12, 4, "static")
    (share,) = [s for ref, s in table if ref.array == "B" and ref.nest == 1]
    assert share.outer == (1, 12)
    assert share.parts[1] == (((1, 9), (4, 6)), 1.0)


FRACTIONAL = """
program frac
param N
real A[N,N]
for i = 1, N {
  for j = 1, N / 2 {
    A[j,i] = A[j,i] + 1.0
  }
}
for i = 1, N {
  for j = 1, N {
    A[j,i] = A[N / 2, i] * 0.5
  }
}
"""


def test_a_fractional_bound_or_subscript_gives_no_box():
    # at odd N, N / 2 is no integer: the first nest's references have a
    # fractional bound and A[N / 2, i] a fractional subscript
    _, table = shares(FRACTIONAL, 9, 2, "static")
    boxed = {(ref.nest, ref.text): share is not None for ref, share in table}
    assert boxed == {
        (0, "A[j, i]"): False,
        (1, "A[j, i]"): True,
        (1, "A[(N / 2), i]"): False,
    }, boxed
    # the prediction at N=9 still conserves the accesses with the
    # verdicts of N=10, where both nests are DOALL: a reference without
    # a box is cut by no chunk boundary and covers no later one
    program = validate(parse(FRACTIONAL))
    profile = analyze_program(program)
    parallelism = analyze_parallelism(program, {"N": 10})
    assert parallelism.parallel_nests() == (0, 1)
    pred = predict_multicore(profile, parallelism, {"N": 9}, 2, "guided")
    assert pred.total == float(profile.model.total_accesses().evaluate({"N": 9}))
