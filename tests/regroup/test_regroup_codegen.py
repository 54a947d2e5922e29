"""Source-level regrouping emission tests."""

import numpy as np

from repro.core.regroup import emit_source, regroup_plan
from repro.core.regroup.layout import default_layout
from repro.interp import run_program, trace_program
from repro.lang import to_source, validate

from conftest import build


ELEMENT_GROUP = """
program t
param N
real A[N, N], B[N, N]
for i = 1, N {
  for j = 1, N { A[j, i] = f(A[j, i], B[j, i]) }
}
for i = 1, N {
  for j = 1, N { B[j, i] = g(A[j, i], B[j, i]) }
}
"""


def test_element_group_emits_merged_array():
    p = build(ELEMENT_GROUP)
    plan = regroup_plan(p)
    src = emit_source(plan)
    validate(src.program)
    assert not src.unexpressible
    (merged, ordinal_a, level) = src.mapping["A"]
    assert level == 0 and ordinal_a == 1
    assert src.mapping["B"][1] == 2
    decl = src.program.array(merged)
    assert decl.ndim == 3
    text = to_source(src.program)
    assert f"{merged}[1, j, i]" in text


def test_emitted_source_preserves_semantics():
    p = build(ELEMENT_GROUP)
    src = emit_source(regroup_plan(p))
    n = 9
    ref = run_program(p, {"N": n}, steps=2)
    # seed the merged array with the originals' initial values by running
    # the rewritten program and comparing slice-wise against a rewritten
    # initial state: instead, compare the *relationship* — every member
    # slice of the merged result must equal the original array computed
    # from the same initial values.  We achieve identical initial values
    # by running the original program on the merged initial data.
    merged_name = src.mapping["A"][0]
    out = run_program(src.program, {"N": n}, steps=2)
    merged = out[merged_name]
    # reconstruct an "original" run from the merged initial state
    from repro.interp import init_arrays

    init = init_arrays(src.program, {"N": n})
    from repro.interp.interpreter import Interpreter

    interp = Interpreter(p, {"N": n})
    interp.arrays = {
        "A": init[merged_name][0].copy(),
        "B": init[merged_name][1].copy(),
    }
    interp.scalars = {}
    for _ in range(2):
        interp.walk_body(p.body)
    assert np.array_equal(interp.arrays["A"], merged[0])
    assert np.array_equal(interp.arrays["B"], merged[1])


def test_emitted_addresses_match_layout_engine():
    """The rewritten program under the *default* layout must touch exactly
    the addresses the layout engine assigns to the original program."""
    p = build(ELEMENT_GROUP)
    plan = regroup_plan(p)
    src = emit_source(plan)
    n = 6
    orig_trace = trace_program(p, {"N": n})
    new_trace = trace_program(src.program, {"N": n})
    orig_addrs = plan.materialize({"N": n}).addresses(orig_trace, in_bytes=False)
    new_addrs = default_layout(src.program, {"N": n}).addresses(
        new_trace, in_bytes=False
    )
    assert np.array_equal(orig_addrs, new_addrs)


def test_fig7_nested_group_reported_unexpressible(fig7_program):
    plan = regroup_plan(fig7_program)
    src = emit_source(plan)
    assert src.unexpressible  # A/B nested inside the row group
    validate(src.program)  # arrays fall back to their original form
