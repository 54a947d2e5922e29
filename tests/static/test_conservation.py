"""Per-class conservation: the static profile against the trace, one
reference at a time.

Every program's predicted total equals its trace length, but a total can
hide per-class errors that cancel.  Each reuse class (one reference, the
same ``ref_id`` the trace carries) must therefore add up on its own:

* its symbolic ``cold`` count, evaluated at the size, is never negative
  (no class is credited more reuses than it executes);
* when every component of the class is labelled ``exact``, its cold
  count equals the trace's first touches by that reference.

The probes are pairs whose access matrices differ (reversal, transpose),
a guard-narrowed level whose inner count depends on its index, and adi
after ``mckinley``.  Today each fails, so the test is a strict xfail: it
starts to pass, and must then lose its mark, when the pair rule and the
guard pieces make the classes conserve.
"""

import numpy as np
import pytest
from conftest import build

from repro.core import PIPELINES, PassManager
from repro.interp import trace_program
from repro.programs import registry
from repro.static import analyze_program

REVERSAL = """
program reversal
param N
real A[N]
for i = 1, N {
  A[N + 1 - i] = f(A[i])
}
"""

TRANSPOSE = """
program transpose
param N
real C[N, N]
for i = 1, N {
  for j = 1, N {
    C[i, j] = f(C[j, i])
  }
}
"""

COPY = """
program copy
param N
real A[N], B[N]
for i = 1, N {
  B[i] = f(A[i])
}
"""

GUARDED_TRIANGLE = """
program guarded_triangle
param N
real A[N], B[N]
for i = 1, N {
  when i in [1:1] { B[i] = 0.0 } else { for j = i, N { A[j] = f(A[j]) } }
}
"""


def _adi_mckinley():
    return PassManager(registry.get("adi").build()).run(PIPELINES["mckinley"]).program


#: probe -> (program, size); measured failures at these sizes: reversal,
#: both classes all-exact with cold 24 against 12 first touches each;
#: transpose, ``C[j, i]`` exact with cold 576 against 300; the guarded
#: triangle's write ``A[j]`` exact with cold -8; adi ``mckinley``, four
#: negative classes and eight all-exact classes that disagree
PROBES = {
    "reversal": (lambda: build(REVERSAL), {"N": 24}),
    "transpose": (lambda: build(TRANSPOSE), {"N": 24}),
    "guarded-triangle": (lambda: build(GUARDED_TRIANGLE), {"N": 8}),
    "adi-mckinley": (_adi_mckinley, {"N": 16}),
}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="non-uniformly generated pairs and guard-narrowed boxes credit "
    "reuses a reference never has (ROADMAP: per-reference conservation)",
)
@pytest.mark.parametrize("probe", sorted(PROBES))
def test_every_class_conserves_its_accesses(probe):
    make, params = PROBES[probe]
    _check_classes(probe, make(), params)


def test_a_uniform_copy_conserves():
    """The oracle is not vacuous: each class of a copy loop is exact and
    its cold count is its reference's first touches."""
    _check_classes("copy", build(COPY), {"N": 16})


def _check_classes(probe, program, params):
    profile = analyze_program(program, steps=1)
    trace = trace_program(program, params, steps=1)
    _, first = np.unique(trace.global_keys(), return_index=True)
    touches = np.bincount(trace.ref_ids[first], minlength=len(profile.classes))
    wrong = []
    for cls in profile.classes:
        cold = float(cls.cold.evaluate(params))
        exact = all(c.exact for c in cls.components)
        if cold < 0 or (exact and cold != touches[cls.ref.ref_id]):
            wrong.append(
                f"{cls.ref.text} (ref {cls.ref.ref_id}): cold {cold:g}, "
                f"{'exact' if exact else 'bounded'}, "
                f"{touches[cls.ref.ref_id]} first touches"
            )
    assert not wrong, f"{probe}: " + "; ".join(wrong)
