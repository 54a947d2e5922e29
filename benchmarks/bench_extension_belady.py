"""Extension — replacement policy vs reordering (paper §2.2 framing).

Reuse-driven execution is "the inverse of Belady's policy".  This
extension quantifies the distinction on ADI: Belady-optimal replacement
bounds what ANY cache policy can do for the original order, while
computation reordering (fusion) changes the order itself — the paper's
argument that bandwidth problems need restructuring, not better caches:
fused + plain LRU beats the unfused program even under an oracle cache.
"""

from repro.baselines import simulate_belady
from repro.codegen import trace_program
from repro.core import compile_variant
from repro.harness import format_table, machine_for
from repro.lang import validate
from repro.memsim import simulate_cache
from repro.programs import registry


def run():
    entry = registry.get("adi")
    program = validate(entry.build())
    params = dict(entry.small_params)
    machine = machine_for(entry.machine_spec)

    base = compile_variant(program, "noopt")
    fused = compile_variant(program, "new")
    rows = []
    results = {}
    for label, variant in (("original", base), ("fusion+regroup", fused)):
        trace = trace_program(variant.program, params, steps=entry.steps)
        addrs = variant.layout(params).addresses(trace)
        lru = int(simulate_cache(machine.l2, addrs).sum())
        # capacity-equivalent fully-associative OPT bound
        opt = int(simulate_belady(machine.l2, addrs).sum())
        rows.append([label, len(trace), lru, opt])
        results[label] = (lru, opt)
    table = format_table(
        ("program version", "accesses", "L2 misses (2-way LRU)", "L2 misses (OPT bound)"),
        rows,
        title="Extension - oracle replacement vs computation reordering (ADI L2)",
    )
    lru_orig, opt_orig = results["original"]
    lru_new, _ = results["fusion+regroup"]
    assert lru_new < opt_orig, (
        "restructured code under plain LRU must beat the original under an "
        "oracle replacement policy — bandwidth needs reordering, not caching"
    )
    return table


def test_extension_belady(benchmark, record_artifact):
    text = benchmark.pedantic(run, rounds=1, iterations=1)
    record_artifact("extension_belady", text)
