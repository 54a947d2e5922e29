"""Harness (experiment driver) tests."""

import pytest

from repro.harness import (
    NORMALIZED_HEADERS,
    RunRequest,
    format_table,
    geometric_mean,
    machine_for,
    normalized_rows,
    ratio,
    run,
)
from repro.interp import trace_program
from repro.lang import parse, validate
from repro.programs.registry import MachineSpec

import fences


def test_machine_for_spec():
    m = machine_for(MachineSpec(l1_bytes=4096, l2_bytes=32768, tlb_entries=8, page_bytes=1024))
    assert m.l1.size_bytes == 4096
    assert m.l2.size_bytes == 32768
    assert m.tlb.entries == 8


def test_machine_for_name():
    assert machine_for("octane").l2.size_bytes == 1024 * 1024


def test_run_program():
    program = validate(
        parse(
            """
            program t
            param N
            real A[N], B[N]
            for i = 1, N { B[i] = f(A[i]) }
            """
        )
    )
    machine = machine_for(MachineSpec())
    result = run(
        RunRequest(
            program=program, levels=("noopt",), params={"N": 100},
            machine=machine, steps=2,
        )
    ).results[0]
    assert result.stats.accesses == 2 * 2 * 100
    assert result.level == "noopt"
    assert result.trace_length == result.stats.accesses
    row = result.row()
    assert row["program"] == "t" and row["l2"] >= 0


def test_run_application_small():
    results = run(
        RunRequest(program="adi", levels=("noopt", "new"), params={"N": 33}, steps=1)
    ).results
    assert [r.level for r in results] == ["noopt", "new"]
    rows = normalized_rows(results)
    assert rows[0][1] == 1.0  # base normalizes to itself
    table = format_table(NORMALIZED_HEADERS, rows, title="t")
    assert "time/base" in table


def test_trace_for():
    # run() measures the trace trace_program yields for the variant
    program, params = fences.compiled("adi", "noopt").program, {"N": 17}
    trace = trace_program(program, params, steps=1)
    result = run(RunRequest("adi", params=params, steps=1)).results[0]
    assert result.trace_length == len(trace) > 0
    trace_i = trace_program(program, params, with_instr=True)
    assert trace_i.instr_ids is not None


def test_ratio_and_geomean():
    assert ratio(4, 2) == 2
    assert ratio(0, 0) == 0.0
    assert ratio(1, 0) == float("inf")
    assert geometric_mean([1, 4]) == pytest.approx(2.0)
    assert geometric_mean([]) == 0.0


def test_compound_level_fusion1_regroup():
    results = run(
        RunRequest(program="adi", levels=("fusion1+regroup",), params={"N": 33})
    ).results
    assert results[0].variant.regroup is not None
    assert results[0].variant.fusion_report is not None


def test_scaling_sweep_and_growth():
    from repro.harness import growth_factor, scaling_sweep

    points = scaling_sweep("adi", ["noopt"], [17, 33], steps=1)
    assert len(points) == 2
    assert points[0].n == 17 and points[1].n == 33
    assert all(0 <= p.l2_rate <= 1 for p in points)
    g = growth_factor(points, "noopt")
    assert g > 0
