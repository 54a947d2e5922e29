"""Trace-generator tests, including an interpreter-derived oracle."""

import numpy as np
import pytest

from repro.codegen import trace_program as codegen_trace
from repro.interp import run_program, trace_program
from repro.interp.interpreter import Interpreter
from repro.lang import (
    AnalysisError,
    ArrayRef,
    Assign,
    ValidationError,
    array_reads,
    parse,
)

from conftest import build


def reference_trace(program, params, steps=1):
    """Oracle: a tracing subclass of the reference interpreter.

    Records (array, 0-based subscripts, is_write) in execution order with
    the same per-statement convention as the trace generator: reads in
    expression order, then the write.
    """
    events = []

    class Tracer(Interpreter):
        def exec_stmt(self, stmt):
            if isinstance(stmt, Assign):
                for ref in array_reads(stmt.expr):
                    events.append((ref.array, self._subscripts(ref), False))
                if isinstance(stmt.target, ArrayRef):
                    tgt = (stmt.target.array, self._subscripts(stmt.target), True)
                    self.arrays[stmt.target.array][tgt[1]] = self.eval(stmt.expr)
                    events.append(tgt)
                else:
                    self.scalars[stmt.target.name] = self.eval(stmt.expr)
            else:
                super().exec_stmt(stmt)

    Tracer(program, params).run(steps=steps)
    return events


def canonical(program, params, name, subscripts):
    """Column-major canonical element index for a subscript tuple."""
    shape = program.array(name).shape(params)
    lin, stride = 0, 1
    for k, idx in enumerate(subscripts):
        lin += idx * stride
        stride *= shape[k]
    return lin


PROGRAMS = [
    """
    program simple
    param N
    real A[N], B[N]
    for i = 2, N { A[i] = f(A[i - 1], B[i]) }
    """,
    """
    program guarded
    param N
    real A[N], B[N]
    for i = 1, N {
      when i in [1, N] { A[i] = 0.0 } else { A[i] = g(B[i], B[i - 1]) }
    }
    """,
    """
    program nested
    param N
    real A[N, N]
    for i = 1, N {
      A[1, i] = 0.0
      for j = 2, N { A[j, i] = f(A[j - 1, i]) }
    }
    """,
    """
    program multiguard
    param N
    real A[N]
    for i = 1, N {
      when i in [2:4] { A[i] = 1.0 }
      when i in [3:N - 1] { A[i] = f(A[i - 1]) } else { A[1] = A[i] }
    }
    """,
]


@pytest.mark.parametrize("source", PROGRAMS)
@pytest.mark.parametrize("n", [8, 13])
def test_trace_matches_interpreter_order(source, n):
    p = build(source)
    params = {"N": n}
    trace = trace_program(p, params)
    oracle = reference_trace(p, params)
    assert len(trace) == len(oracle)
    for k, (name, elem, wr) in enumerate(trace.iter_accesses()):
        oname, osubs, owr = oracle[k]
        assert name == oname, f"access {k}: array {name} != {oname}"
        assert wr == owr, f"access {k}: write flag"
        assert elem == canonical(p, params, oname, osubs), f"access {k}: element"


def test_instruction_ids_monotone_and_grouped():
    p = build(PROGRAMS[0])
    t = trace_program(p, {"N": 10}, with_instr=True)
    diffs = np.diff(t.instr_ids)
    assert np.all(diffs >= 0)
    # 3 accesses per instruction in this kernel
    _, counts = np.unique(t.instr_ids, return_counts=True)
    assert set(counts) == {3}


def test_steps_concatenates():
    p = build(PROGRAMS[0])
    t1 = trace_program(p, {"N": 10}, steps=1)
    t2 = trace_program(p, {"N": 10}, steps=2)
    assert len(t2) == 2 * len(t1)
    assert np.array_equal(t2.elems[: len(t1)], t1.elems)


def test_call_requires_inlining():
    p = build(
        """
        program t
        param N
        real A[N]
        proc z(k) { A[k] = 0.0 }
        call z(1)
        """
    )
    with pytest.raises(AnalysisError, match="inlined"):
        trace_program(p, {"N": 8})


def test_out_of_bounds_detected():
    p = parse(
        """
        program t
        param N
        real A[N]
        for i = 1, N { A[i + 1] = 0.0 }
        """
    )
    with pytest.raises(AnalysisError, match="out-of-bounds"):
        trace_program(p, {"N": 8})


TRACERS = pytest.mark.parametrize(
    "tracer", [trace_program, codegen_trace], ids=["interp", "codegen"]
)

#: not integer-affine after binding: (loop nest, N, what the error names)
FRACTIONAL = {
    "subscript-stride": (
        "for i = 1, N { A[(i + 1) / 2] = f(A[(i + 1) / 2]) }",
        8,
        "A[((i + 1) / 2)]",
    ),
    "loop-bound": ("for i = 1, N / 2 { A[i] = f(A[i]) }", 9, "for i = 1, (N / 2)"),
    "guarded-subscript": (
        "for i = 1, N { when i in [2] { A[i / 2] = 1.0 } }",
        8,
        "A[(i / 2)]",
    ),
}


def _kernel(nest):
    return build(f"program t\nparam N\nreal A[N]\n{nest}\n")


@TRACERS
@pytest.mark.parametrize("case", sorted(FRACTIONAL))
def test_fractional_residue_is_an_error(case, tracer):
    # a truncated address is a wrong number; both tracers share the
    # lowering that refuses it, naming the reference / loop and the binding
    nest, n, named = FRACTIONAL[case]
    with pytest.raises(AnalysisError) as exc:
        tracer(_kernel(nest), {"N": n})
    message = str(exc.value)
    assert named in message and f"'N': {n}" in message
    assert "out-of-bounds" not in message


def test_fractional_bound_follows_the_interpreter():
    # N / 2 is an integer at even N only: run_program and both tracers
    # draw the line at exactly the same sizes
    p = _kernel(FRACTIONAL["loop-bound"][0])
    run_program(p, {"N": 8})
    a, b = trace_program(p, {"N": 8}), codegen_trace(p, {"N": 8})
    assert a.elems.tolist() == b.elems.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
    with pytest.raises(ValidationError, match="non-integral bound"):
        run_program(p, {"N": 9})


def test_packing_overflow_is_an_error(monkeypatch):
    from repro.codegen import tracer

    monkeypatch.setattr(tracer, "_REF_BITS", 1)
    p = build(PROGRAMS[0])  # three references
    with pytest.raises(AnalysisError, match="packing limits"):
        codegen_trace(p, {"N": 8})
    assert len(trace_program(p, {"N": 8})) == 21  # the oracle packs nothing


def test_report_on_unsupported_file_is_a_coded_exit(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "frac.loop"
    path.write_text(
        "program frac\nparam N\nreal A[N]\n"
        + FRACTIONAL["subscript-stride"][0]
        + "\n"
    )
    assert main(["report", str(path), "-p", "N=8", "--levels", "noopt"]) == 1
    err = capsys.readouterr().err
    # (simplify has rewritten the subscript by the time it is traced)
    assert err.startswith("error: cannot trace `A[") and "Traceback" not in err
    assert "fractional coefficient 1/2 of 'i'" in err


def test_global_keys_disjoint_between_arrays():
    p = build(PROGRAMS[0])
    t = trace_program(p, {"N": 10})
    keys_a = set(t.global_keys()[t.array_ids == 0].tolist())
    keys_b = set(t.global_keys()[t.array_ids == 1].tolist())
    assert not keys_a & keys_b
