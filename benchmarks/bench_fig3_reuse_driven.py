"""E2 — Figure 3: reuse-distance histograms of program order vs
reuse-driven execution, for ADI and SP at two input sizes each (plus the
reuse-based-fusion curve for SP, the paper's lower-right panel).

The paper's y-axis is thousands of references per log2 distance bin; the
qualitative content is (1) program order has hills that move right as the
input grows (evadable reuses), (2) reuse-driven execution collapses most
of those hills, (3) source-level fusion realizes a large part of that.
"""

import pytest

from repro.codegen import trace_program as codegen_trace
from repro.core import compile_variant
from repro.harness import stage_timer
from repro.interp import trace_program
from repro.lang import validate
from repro.locality import ReuseHistogram, reuse_distances
from repro.programs import APPLICATIONS
from repro.reusedriven import reuse_driven_order

from conftest import paper_sized

#: (application, parameter values) — scaled stand-ins for the paper's
#: ADI 50x50 / 100x100 and SP 14^3 / 28^3 (see EXPERIMENTS.md)
CASES = {
    "adi": [50, 100] if not paper_sized() else [50, 100],
    "sp": [8, 12] if not paper_sized() else [14, 28],
}


def curves(
    app: str, n: int, with_fused: bool, timings: dict
) -> dict[str, ReuseHistogram]:
    entry = APPLICATIONS[app]
    program = validate(entry.build())
    out = {}
    with stage_timer(timings, "trace-gen"):
        trace = trace_program(program, {"N": n}, with_instr=True)
    with stage_timer(timings, "distance"):
        out["program order"] = ReuseHistogram.from_distances(
            reuse_distances(trace.global_keys())
        )
    reordered = reuse_driven_order(trace)
    with stage_timer(timings, "distance"):
        out["reuse driven"] = ReuseHistogram.from_distances(
            reuse_distances(reordered.trace.global_keys())
        )
    if with_fused:
        fused = compile_variant(program, "fusion")
        with stage_timer(timings, "trace-gen"):
            ftrace = codegen_trace(fused.program, {"N": n})
        with stage_timer(timings, "distance"):
            out["reuse-based fusion"] = ReuseHistogram.from_distances(
                reuse_distances(ftrace.global_keys())
            )
    return out


def render(app: str, sizes) -> str:
    lines = [f"Figure 3 - {app}: reuse distance histograms (log2 bins)"]
    timings: dict = {}
    for n in sizes:
        with_fused = app == "sp" and n == sizes[-1]
        data = curves(app, n, with_fused, timings)
        lines.append(f"\n-- input {n} --")
        for label, hist in data.items():
            lines.append(hist.format_ascii(width=40, label=f"[{label}]"))
            lines.append(
                f"  mean log2 distance: {hist.mean_log_distance():.2f}, "
                f"frac >= 2^8: {hist.fraction_ge(256):.3f}"
            )
        po = data["program order"]
        rd = data["reuse driven"]
        if app == "adi":
            assert rd.mean_log_distance() <= po.mean_log_distance(), (
                "reuse-driven execution must shorten ADI's reuses"
            )
        else:
            # mini-SP: Fig. 2's producer chasing pulls whole 3-D stencil
            # wavefronts forward and loses to phase-major program order at
            # simulator scale — recorded as deviation D1 in EXPERIMENTS.md
            delta = rd.mean_log_distance() - po.mean_log_distance()
            lines.append(
                f"\n  [deviation D1] mean log2 distance change under "
                f"reuse-driven execution: {delta:+.2f}"
            )
    lines.append(
        "\nstage seconds: "
        + ", ".join(f"{k} {v:.2f}" for k, v in sorted(timings.items()))
    )
    return "\n".join(lines)


@pytest.mark.parametrize("app", sorted(CASES))
def test_fig3(app, benchmark, record_artifact):
    text = benchmark.pedantic(render, args=(app, CASES[app]), rounds=1, iterations=1)
    record_artifact(f"fig3_{app}", text)
