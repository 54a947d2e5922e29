#!/usr/bin/env python
"""Bring your own kernel: optimize a user-written Jacobi solver.

Demonstrates using the library on new code rather than the bundled
benchmarks: a Jacobi smoother with a residual computation and an error
reduction, written with the *builder API* instead of DSL text.  The
pipeline fuses the sweeps, regroups the mesh arrays, and the example
verifies semantics and reports the simulated memory behaviour.

Run:  python examples/custom_kernel.py
"""

import numpy as np

from repro.codegen import trace_program
from repro.core import compile_variant
from repro.harness import machine_for
from repro.interp import run_program
from repro.lang import (
    ProgramBuilder,
    assign,
    call,
    idx,
    loop,
    param,
    to_source,
    validate,
)
from repro.memsim import simulate_stream
from repro.programs.registry import MachineSpec
from repro.stream import AddressStream


def build_jacobi():
    b = ProgramBuilder("jacobi", params=["N"])
    U = b.array("U", param("N"), param("N"))
    V = b.array("V", param("N"), param("N"))
    R = b.array("R", param("N"), param("N"))
    F = b.array("F", param("N"), param("N"))
    i, j = idx("i"), idx("j")

    # sweep: V = relax(U, F)
    b.add(
        loop(
            "i", 2, param("N") - 1,
            loop(
                "j", 2, param("N") - 1,
                assign(
                    V[j, i],
                    call("relax", U[j - 1, i], U[j + 1, i], U[j, i - 1],
                         U[j, i + 1], F[j, i]),
                ),
            ),
        )
    )
    # residual: R = resid(V, U)
    b.add(
        loop(
            "i", 2, param("N") - 1,
            loop(
                "j", 2, param("N") - 1,
                assign(R[j, i], call("resid", V[j, i], U[j, i], F[j, i])),
            ),
        )
    )
    # copy back: U = V
    b.add(
        loop(
            "i", 2, param("N") - 1,
            loop("j", 2, param("N") - 1, assign(U[j, i], call("cp", V[j, i]))),
        )
    )
    return validate(b.build())


def main() -> None:
    program = build_jacobi()
    print("original nests:", program.loop_nest_count())

    optimized = compile_variant(program, "new")
    print("\n--- optimized source ---")
    print(to_source(optimized.program))
    print("regrouping:", optimized.regroup.describe().replace("\n", " / "))

    ref = run_program(program, {"N": 40}, steps=3)
    out = run_program(optimized.program, {"N": 40}, steps=3)
    assert all(np.array_equal(ref[k], out[k]) for k in ref)
    print("\nsemantics preserved over 3 relaxation steps  [OK]")

    machine = machine_for(MachineSpec(l2_bytes=96 * 1024))
    n = 193
    for label, variant in (("original", compile_variant(program, "noopt")),
                           ("optimized", optimized)):
        trace = trace_program(variant.program, {"N": n}, steps=2)
        stream = AddressStream.from_trace(trace, variant.layout({"N": n}))
        stats = simulate_stream(stream, machine)
        print(
            f"{label:9s}: L1 {stats.l1_misses:8,}  L2 {stats.l2_misses:7,}  "
            f"TLB {stats.tlb_misses:5,}  {stats.seconds * 1e3:7.2f} ms modeled  "
            f"({stats.data_transferred_bytes / 1e6:.1f} MB from memory)"
        )


if __name__ == "__main__":
    main()
