#!/usr/bin/env python
"""Quickstart: fuse and regroup a small program, watch the misses drop.

This walks the full public API in ~60 lines:

1. write a program in the mini-language,
2. apply the paper's global strategy (reuse-based loop fusion + data
   regrouping) with ``compile_variant``,
3. check the transformation is semantics-preserving,
4. simulate the memory hierarchy before and after.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.codegen import trace_program
from repro.core import compile_variant
from repro.harness import machine_for
from repro.interp import run_program
from repro.lang import parse, to_source, validate
from repro.memsim import simulate_stream
from repro.programs.registry import MachineSpec
from repro.stream import AddressStream

SOURCE = """
program quickstart
param N
real A[N, N], B[N, N], C[N, N]

# phase 1: smooth A using B
for i = 1, N {
  for j = 2, N { A[j, i] = f(A[j - 1, i], B[j, i]) }
}
# phase 2: boundary condition
for i = 1, N { A[1, i] = g(A[1, i]) }
# phase 3: derive C from A and B
for i = 1, N {
  for j = 1, N { C[j, i] = h(A[j, i], B[j, i]) }
}
"""

N = 257  # odd sizes avoid pathological power-of-two strides


def main() -> None:
    program = validate(parse(SOURCE))
    print("=== original program ===")
    print(to_source(program))

    variant = compile_variant(program, "new")  # fusion + regrouping
    print("=== after reuse-based fusion ===")
    print(to_source(variant.program))
    print("=== data regrouping decision ===")
    print(variant.regroup.describe(), "\n")

    # 1. the transformation must be invisible to the program's output
    ref = run_program(program, {"N": 64})
    out = run_program(variant.program, {"N": 64})
    assert all(np.array_equal(ref[k], out[k]) for k in ref)
    print("semantics check: outputs identical before/after  [OK]\n")

    # 2. measure the memory behaviour on a scaled Origin2000-like machine
    machine = machine_for(MachineSpec(l2_bytes=96 * 1024))
    for label, prog_variant in (("original", compile_variant(program, "noopt")),
                                ("optimized", variant)):
        trace = trace_program(prog_variant.program, {"N": N})
        # lay the trace out as byte addresses, then L1 -> L2 -> TLB -> DRAM
        stream = AddressStream.from_trace(trace, prog_variant.layout({"N": N}))
        stats = simulate_stream(stream, machine)
        print(
            f"{label:9s}: {stats.accesses:9,} accesses | "
            f"L1 {stats.l1_misses:8,} | L2 {stats.l2_misses:7,} | "
            f"TLB {stats.tlb_misses:6,} | {stats.seconds * 1e3:6.2f} ms modeled"
        )


if __name__ == "__main__":
    main()
