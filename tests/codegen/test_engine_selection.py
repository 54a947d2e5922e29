"""The unified engine-spec grammar and its harness/CLI seams."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.engines import (
    EngineSelection,
    TRACE_ENGINES,
    engine_spec,
    resolve_engines,
)
from repro.memsim import ENGINES as SIM_ENGINES


def test_defaults():
    sel = resolve_engines(None)
    assert sel.sim in SIM_ENGINES
    assert sel.tracer == "codegen"  # the proven-equal fast path


def test_single_axis_specs():
    assert resolve_engines("fast").sim == "fast"
    assert resolve_engines("reference").sim == "reference"
    assert resolve_engines("codegen").tracer == "codegen"
    assert resolve_engines("interp").tracer == "interp"
    # naming one axis leaves the other at its default
    assert resolve_engines("interp").sim == resolve_engines(None).sim


def test_combined_specs():
    sel = resolve_engines("fast+interp")
    assert (sel.sim, sel.tracer) == ("fast", "interp")
    # order-insensitive: each token binds to the axis it belongs to
    assert resolve_engines("interp+fast") == sel
    assert sel.spec() == "fast+interp"


def test_selection_passthrough():
    sel = EngineSelection(sim="reference", tracer="interp")
    assert resolve_engines(sel) is sel


def test_unknown_tokens_raise():
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engines("bogus")
    with pytest.raises(ValueError):
        resolve_engines("fast+bogus")


def test_conflicting_tokens_raise():
    with pytest.raises(ValueError):
        resolve_engines("fast+reference")
    with pytest.raises(ValueError):
        resolve_engines("codegen+interp")


def test_only_deployment_paths_come_from_the_environment():
    """An environment variable is an option every test and benchmark has
    to cover twice; the two the package reads say *where* to write, not
    *what* to compute.  A new knob has to be argued for by editing this."""
    src = Path(__file__).resolve().parents[2] / "src"
    names = {
        name
        for path in src.rglob("*.py")
        for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())
    }
    assert names == {"REPRO_CACHE_DIR", "REPRO_RUNS_DIR"}


@pytest.mark.parametrize(
    "spec, expected",
    [
        (None, ("fast", "codegen")),
        ("", ("fast", "codegen")),
        ("fast", ("fast", "codegen")),
        ("reference", ("reference", "codegen")),
        ("codegen", ("fast", "codegen")),
        ("interp", ("fast", "interp")),
        ("fast+codegen", ("fast", "codegen")),
        ("fast+interp", ("fast", "interp")),
        ("reference+codegen", ("reference", "codegen")),
        ("reference+interp", ("reference", "interp")),
        ("codegen+fast", ("fast", "codegen")),
        ("interp+fast", ("fast", "interp")),
        ("codegen+reference", ("reference", "codegen")),
        ("interp+reference", ("reference", "interp")),
        (" fast + interp ", ("fast", "interp")),
    ],
)
def test_every_spelling(spec, expected):
    """The full spec grammar: every sim x tracer spelling resolves."""
    sel = resolve_engines(spec)
    assert (sel.sim, sel.tracer) == expected
    if spec:
        assert engine_spec(spec) == spec  # CLI hook round-trips the string
        assert resolve_engines(sel) == sel  # RunRequest round-trips the object


def test_run_request_engine_uses_same_parser():
    """RunRequest.engine rejects unknown specs with the shared message."""
    from repro.harness import RunRequest, run

    with pytest.raises(ValueError, match="unknown engine"):
        run(
            RunRequest(
                program="adi", levels=("noopt",), params={"N": 16},
                steps=1, engine="bogus",
            )
        )


def test_engine_spec_cli_hook():
    # validates eagerly (argparse reports bad specs at parse time) but
    # passes the string through, so RunRequest.engine stays a str
    assert engine_spec("reference+interp") == "reference+interp"
    with pytest.raises(ValueError):
        engine_spec("bogus")


def test_trace_engines_registry():
    assert TRACE_ENGINES == ("codegen", "interp")


def test_trace_counts_every_nest_as_compiled():
    # perf/ derives codegen.nests_compiled_share from these two counters;
    # with no second path to fall back to they move together
    from repro.codegen import trace_program
    from repro.lang import parse, validate
    from repro.obs import metrics

    program = validate(parse(
        """
        program stencil
        param N
        real A[N, N], B[N, N]
        for i = 1, N {
          for j = 2, N { A[j, i] = f(A[j - 1, i], B[j, i]) }
        }
        for i = 2, N { B[i, i] = g(A[i, i]) }
        """
    ))
    before = metrics.snapshot()["counters"]
    trace_program(program, {"N": 9})
    after = metrics.snapshot()["counters"]
    for key in ("codegen.trace.nests", "codegen.trace.nests.compiled"):
        assert after[key] - before.get(key, 0) == 2


def test_measure_variant_same_stats_across_tracers():
    """Both tracers must yield identical simulation results end to end."""
    from repro.harness import machine_for, measure_variant
    from repro.lang import validate
    from repro.programs import registry
    from repro.programs.registry import MachineSpec

    entry = registry.get("adi")
    program = validate(entry.build())
    machine = machine_for(MachineSpec())
    results = {}
    for spec in ("fast+codegen", "fast+interp"):
        r = measure_variant(
            program, "noopt", {"N": 16}, machine, steps=1, engine=spec
        )
        results[spec] = r
    a, b = results["fast+codegen"].stats, results["fast+interp"].stats
    assert a.accesses == b.accesses
    assert a.l1_misses == b.l1_misses
    assert a.l2_misses == b.l2_misses
    assert a.tlb_misses == b.tlb_misses
