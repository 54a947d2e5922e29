"""The order loop distribution emits a body's dependence components in.

``distribution_groups`` must reproduce one fixed order bit for bit:
components numbered as Tarjan/Nuutila completes them, the condensation
emitted by topological generations.  Every compiled variant (trace
fingerprints, BENCH_tune, the `to_source` goldens) depends on it, and it
is not source order, so it is pinned twice:

* ``golden_distribution_orders.json``: every distinct graph distribution
  sees when the five registry programs and fft (n = 16 and 64) compile
  at every named level and every default tune candidate, plus seeded
  random body-shaped graphs — each with the order networkx's
  ``condensation`` + ``topological_sort`` gives it;
* a hypothesis test against networkx itself, when it is installed
  (nothing installs it: it is a test-only oracle).

``PYTHONPATH=src python tests/analysis/test_distribution_order.py``
rewrites the golden file (needs networkx) — only for an intended change
to the graphs distribution sees, listed in the commit.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import distribution_groups

GOLDEN = Path(__file__).with_name("golden_distribution_orders.json")

#: seeded random body-shaped graphs in the golden file
RANDOM_CASES = 100
RANDOM_SEED = 38


def adjacency(n: int, edges) -> list[list[int]]:
    graph: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        graph[u].append(v)
    return graph


def body_edges(n: int, directions) -> list[tuple[int, int]]:
    """Edges in ``body_dependence_graph``'s insertion order: pairs
    ``a < b`` in order, ``a -> b`` before ``b -> a``."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = []
    for (a, b), (fwd, bwd) in zip(pairs, directions):
        if fwd:
            edges.append((a, b))
        if bwd:
            edges.append((b, a))
    return edges


def networkx_order(n: int, edges) -> list[list[int]]:
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    condensation = nx.condensation(graph)
    return [
        sorted(condensation.nodes[c]["members"])
        for c in nx.topological_sort(condensation)
    ]


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("section", ["compiled", "random"])
def test_golden_orders(section):
    cases = _golden()[section]
    assert cases
    for case in cases:
        got = distribution_groups(adjacency(case["n"], case["edges"]))
        assert got == case["order"], case


def test_golden_pins_orders_that_are_not_source_order():
    # the point of the file: graphs the registry compiles whose emitted
    # order is not the statements' source order, the docstring's
    # example among them
    off = [
        case
        for case in _golden()["compiled"]
        if [i for group in case["order"] for i in group] != list(range(case["n"]))
    ]
    example = {"n": 5, "edges": [[0, 2], [0, 3], [1, 2], [1, 4]],
               "order": [[0], [1], [3], [2], [4]]}
    assert example in off


@st.composite
def body_graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = n * (n - 1) // 2
    pair = st.tuples(st.booleans(), st.booleans())
    directions = draw(st.lists(pair, min_size=pairs, max_size=pairs))
    return n, body_edges(n, directions)


@settings(max_examples=300, deadline=None)
@given(body_graphs())
def test_matches_networkx(graph):
    pytest.importorskip("networkx")
    n, edges = graph
    assert distribution_groups(adjacency(n, edges)) == networkx_order(n, edges)


def _compiled_graphs() -> list[tuple[int, list[tuple[int, int]]]]:
    """Every distinct graph distribution sees over the registry grid."""
    import repro.transform.distribute as distribute
    from repro.core import compile_variant
    from repro.core.pm.pipelines import PIPELINES
    from repro.lang import validate
    from repro.programs import build_fft, registry
    from repro.tune.candidates import enumerate_candidates

    seen: dict[tuple, None] = {}  # insertion-ordered set
    build = distribute.body_dependence_graph

    def recording(loop, fixed, assume):
        graph = build(loop, fixed, assume)
        edges = tuple((u, v) for u, succ in enumerate(graph) for v in succ)
        seen[len(graph), edges] = None
        return graph

    programs = [registry.get(name).build for name in registry.names()]
    programs += [lambda: build_fft(16), lambda: build_fft(64)]
    distribute.body_dependence_graph = recording
    try:
        for make in programs:
            program = validate(make())
            for spec in [*PIPELINES, *enumerate_candidates()]:
                compile_variant(program, spec)
    finally:
        distribute.body_dependence_graph = build
    return [(n, list(edges)) for n, edges in seen]


def _random_graphs() -> list[tuple[int, list[tuple[int, int]]]]:
    rng = random.Random(RANDOM_SEED)
    out = []
    for _ in range(RANDOM_CASES):
        n = rng.randint(2, 12)
        density = rng.random() * 0.4
        directions = [
            (rng.random() < density, rng.random() < density)
            for _ in range(n * (n - 1) // 2)
        ]
        out.append((n, body_edges(n, directions)))
    return out


def write_golden() -> None:
    sections = {
        "compiled": _compiled_graphs(),
        "random": _random_graphs(),
    }
    lines = ["{"]
    for k, (name, graphs) in enumerate(sections.items()):
        lines.append(f'  "{name}": [')
        rows = [
            json.dumps({"n": n, "edges": edges, "order": networkx_order(n, edges)})
            for n, edges in graphs
        ]
        lines.append(",\n".join("    " + row for row in rows))
        lines.append("  ]" + ("," if k + 1 < len(sections) else ""))
    lines.append("}")
    GOLDEN.write_text("\n".join(lines) + "\n")
    for name, graphs in sections.items():
        print(f"{name}: {len(graphs)} graphs")


if __name__ == "__main__":
    write_golden()
