"""One PassManager per source program: a trie of pass steps.

Sharing must be invisible (every pipeline compiles to what a standalone
``compile_pipeline`` gives), certification must stay per pass and per
pipeline (a broken pass is blamed every time, a prefix first compiled
unverified is certified when a verified pipeline crosses it), and the
only large state — dependence snapshots — must not outlive its use.
"""

import gc
import random
from dataclasses import replace

import pytest

from repro.core import PIPELINES, PassManager, compile_pipeline
from repro.core.pm import PASSES, FunctionPass, PassContext, PassStep, register_pass
from repro.core.pm.pipelines import custom_pipeline
from repro.harness.cache import layout_fingerprint
from repro.lang import Loop, ValidationError, to_source
from repro.obs import metrics
from repro.programs import registry
from repro.programs.registry import resolve_target
from repro.tune import enumerate_candidates
from repro.verify import PassLegalityError, PassVerifier, Snapshot

SMALL = {"N": 10}


def _counters(*names):
    snap = metrics.snapshot()["counters"]
    return [snap.get(name, 0) for name in names]


@pytest.fixture
def test_pass():
    """Register throwaway passes; the registry is restored afterwards."""
    added = []

    def add(name, fn, **kw):
        added.append(name)
        return register_pass(FunctionPass(name, fn, **kw))

    yield add
    for name in added:
        PASSES.pop(name, None)


# -- (a) sharing is invisible --------------------------------------------------


@pytest.mark.parametrize(
    "target, params",
    [
        ("adi", {"N": 12}),
        ("tomcatv", {"N": 12}),
        ("swim", {"N": 12}),
        ("fft", {"n": 8}),
        # 169 one-shot compiles of fft64 are 10 s of comparator alone
        pytest.param("fft", {"n": 64}, marks=pytest.mark.slow),
    ],
)
def test_shared_manager_equals_standalone_compiles(target, params):
    """All 160 grid candidates + the 9 named pipelines, in shuffled order,
    through one manager — every second one certified — against a fresh
    one-shot compile of the same spec."""
    resolved = resolve_target(target, params)
    program = resolved.program
    bind = {k: v for k, v in params.items() if k in program.params}
    specs = list(PIPELINES.values()) + enumerate_candidates()
    assert len(specs) == 169
    random.Random(20011).shuffle(specs)
    manager = PassManager(program, verify=True, verify_params={"N": 6})
    for index, spec in enumerate(specs):
        shared = manager.run(spec, verify=index % 2 == 0)
        alone = compile_pipeline(program, spec)
        assert shared.level == alone.level == spec.name
        assert to_source(shared.program) == to_source(alone.program)
        assert layout_fingerprint(shared.layout(bind)) == layout_fingerprint(
            alone.layout(bind)
        )
        assert shared.stages == alone.stages
        assert list(shared.stages) == list(alone.stages)
        assert shared.fusion_report == alone.fusion_report
        assert shared.regroup == alone.regroup
        # a variant owns its stages: the next walk must not see edits
        shared.stages["input"]["poisoned"] = True


# -- (b) a broken pass is blamed every time ------------------------------------


def _reverse_first_loop(program, ctx):
    """Run the first loop nest backwards in time: swap the first two
    top-level statements, reversing every dependence between them."""
    body = list(program.body)
    loops = [i for i, s in enumerate(body) if isinstance(s, Loop)]
    body[loops[0]], body[loops[1]] = body[loops[1]], body[loops[0]]
    return program.with_body(tuple(body))


def test_broken_pass_is_blamed_on_every_crossing(test_pass):
    runs = []

    def broken(program, ctx):
        runs.append(1)
        return _reverse_first_loop(program, ctx)

    test_pass("reverse_dependence", broken)
    program = resolve_target("adi").program
    bad = [
        custom_pipeline(["inline", "reverse_dependence", "simplify"]),
        custom_pipeline(["inline", "reverse_dependence", "distribute"]),
    ]
    good = custom_pipeline(["inline", "distribute", "simplify"])
    manager = PassManager(program, verify=True, verify_params=SMALL)
    for spec in bad + bad:  # second crossings replay the cached verdict
        with pytest.raises(PassLegalityError, match="reverse_dependence") as err:
            manager.run(spec)
        assert err.value.bag.has_errors()
        assert manager.verifier.history[-1][0] == "reverse_dependence"
    assert len(runs) == 1, "the broken pass must not be re-run"
    assert manager.run(good).program is not None
    # the unverified spelling of a standalone compile does not check either
    assert manager.run(bad[0], verify=False).program is not None


# -- (c) certification is lazy, per edge ---------------------------------------


def test_prefix_compiled_unverified_is_certified_when_crossed_verified():
    program = resolve_target("adi").program
    spec = PIPELINES["fusion1"]
    alone = PassVerifier(program, SMALL)
    compile_pipeline(program, spec, verify=alone)

    manager = PassManager(program, verify=True, verify_params=SMALL)
    manager.run(spec, verify=False)
    assert manager.verifier is None, "an unverified walk takes no snapshot"
    runs, replays = _counters("pm.pass.runs", "pm.certify.shared")
    manager.run(spec)
    history = manager.verifier.history
    assert [name for name, _ in history] == [name for name, _ in alone.history]
    assert all(not bag.has_errors() for _, bag in history)
    assert _counters("pm.pass.runs", "pm.certify.shared") == [runs, replays]
    # a third walk replays all eight verdicts into the history
    manager.run(PIPELINES["fusion1+regroup"])
    assert len(history) == 2 * len(alone.history)
    assert _counters("pm.certify.shared")[0] == replays + len(alone.history)


# -- (e) the purity contract the trie relies on --------------------------------


@pytest.mark.parametrize("app", sorted(registry.names()))
def test_every_registered_pass_is_pure(app):
    """Equal input, equal program and equal deposits — twice over."""
    source = resolve_target(app).program
    inlined = PASSES["inline"].run(source, PassContext())
    for name, pass_obj in sorted(PASSES.items()):
        before = to_source(inlined)
        outs = []
        for _ in range(2):
            ctx = PassContext(stages={"input": {}})
            outs.append((pass_obj.run(inlined, ctx), ctx))
        (p1, c1), (p2, c2) = outs
        assert to_source(p1) == to_source(p2), name
        assert replace(c1, layout_factory=None) == replace(c2, layout_factory=None)
        assert (c1.layout_factory is None) == (c2.layout_factory is None), name
        assert to_source(inlined) == before, f"{name} mutated its input"


# -- (f) snapshots do not outlive their use ------------------------------------


def _live_snapshots():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Snapshot))


def _reached(node, seen=None):
    seen = {} if seen is None else seen
    if id(node) not in seen and node.program is not None:
        seen[id(node)] = node
        for child in node.children.values():
            _reached(child, seen)
    return list(seen.values())


def test_declared_search_keeps_no_snapshot_it_does_not_need():
    program = resolve_target("tomcatv").program
    grid = enumerate_candidates(
        enablers=("unroll", "distribute"), fusion_levels=(0, 1, 2)
    )
    floor = _live_snapshots()
    manager = PassManager(program, verify=True, verify_params={"N": 6})
    manager.declare(grid)
    peak = 0
    for spec in grid:
        manager.run(spec)
        nodes = _reached(manager.root)
        holders = [n for n in nodes if n.snapshot is not None]
        # open branch points: a declared edge out of them awaits its verdict
        assert all(n.awaited() for n in holders), spec.name
        assert len(holders) <= sum(n.awaited() for n in nodes)
        # + 1: the verifier's baseline, the last snapshot taken
        live = _live_snapshots() - floor
        assert live <= len(holders) + 1, spec.name
        peak = max(peak, live)
    assert peak >= 3, "the bound must have been exercised"
    # everything declared is certified: only the verifier's baseline is left
    assert not any(n.awaited() for n in _reached(manager.root))
    assert _live_snapshots() - floor == 1
    del manager, nodes, holders
    assert _live_snapshots() == floor


# -- satellite: one validate, in one place -------------------------------------


def test_ill_formed_pass_output_is_rejected_by_the_manager(test_pass):
    def drop_declarations(program, ctx):
        return replace(program, arrays=program.arrays[:1])

    test_pass("drop_declarations", drop_declarations, certify=False)
    program = resolve_target("adi").program
    with pytest.raises(ValidationError):
        compile_pipeline(program, ["inline", "drop_declarations"])


def test_checkpoint_is_part_of_the_edge():
    """``simplify`` and ``simplify [checkpoint]`` are different steps:
    the named levels' stage tables must not leak into candidates."""
    program = resolve_target("adi").program
    manager = PassManager(program)
    manager.run(PIPELINES["fusion"])
    plain = manager.run(custom_pipeline(PIPELINES["fusion"].pass_names()))
    assert list(plain.stages) == ["input"]
    assert PassStep("simplify") != PassStep("simplify", checkpoint="fused")
