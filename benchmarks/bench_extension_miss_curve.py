"""Extension — cache-size spectrum from one reuse-distance profile.

Reuse distance is machine-independent: one profile predicts the miss
ratio of every fully-associative LRU cache size (the methodology behind
the paper's Fig. 3 analysis).  This bench prints the predicted miss-ratio
curve for ADI before and after the global strategy — the optimized
program reaches its floor with a fraction of the cache.
"""

from repro.codegen import trace_program
from repro.core import compile_variant
from repro.harness import format_table
from repro.lang import validate
from repro.locality import miss_ratio_curve, reuse_distances
from repro.programs import registry

CAPACITIES = [2**k for k in range(6, 17)]  # 64 .. 65536 elements


def run():
    entry = registry.get("adi")
    program = validate(entry.build())
    params = dict(entry.small_params)
    curves = {}
    for level in ("noopt", "new"):
        variant = compile_variant(program, level)
        trace = trace_program(variant.program, params, steps=entry.steps)
        # element-granularity distances under the variant's layout
        addrs = variant.layout(params).addresses(trace, in_bytes=False)
        curves[level] = miss_ratio_curve(reuse_distances(addrs), CAPACITIES)
    rows = [
        [c, f"{curves['noopt'][c]:.4f}", f"{curves['new'][c]:.4f}"]
        for c in CAPACITIES
    ]
    table = format_table(
        ("capacity (elements)", "original miss ratio", "optimized miss ratio"),
        rows,
        title="Extension - predicted fully-associative LRU miss-ratio curves (ADI)",
    )
    # the optimized program must reach near-floor miss ratio at a much
    # smaller capacity: compare the mid-range capacities
    mid = CAPACITIES[len(CAPACITIES) // 2]
    assert curves["new"][mid] < curves["noopt"][mid], (
        "optimization must shift the miss-ratio knee to smaller caches"
    )
    return table


def test_extension_miss_curve(benchmark, record_artifact):
    text = benchmark.pedantic(run, rounds=1, iterations=1)
    record_artifact("extension_miss_curve", text)
