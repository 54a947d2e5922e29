"""One PassManager per source program: a trie of pass steps.

Sharing must be invisible (every pipeline compiles to what a fresh
manager gives — ``PassManager(program).run(spec)``, the oracle here,
since ``compile_pipeline`` itself shares), certification must stay per
pass and per pipeline (a broken pass is blamed every time, a prefix
first compiled unverified is certified when a verified pipeline crosses
it), and the only large state — dependence snapshots — must not outlive
its use.
"""

import random
from dataclasses import replace

import pytest
from conftest import live_snapshots, reverse_first_loops

from repro.core import PIPELINES, PassManager, compile_pipeline
from repro.core.pm import PASSES, FunctionPass, PassContext, PassStep, register_pass
from repro.core.pm.pipelines import custom_pipeline
from repro.harness.cache import layout_fingerprint
from repro.lang import ValidationError, to_source
from repro.obs import metrics
from repro.programs import registry
from repro.programs.registry import resolve_target
from repro.tune import enumerate_candidates
from repro.verify import PassLegalityError, PassVerifier

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
    manager's compile of the same spec."""
    resolved = resolve_target(target, params)
    program = resolved.program
    bind = {k: v for k, v in params.items() if k in program.params}
    specs = list(PIPELINES.values()) + enumerate_candidates()
    assert len(specs) == 169
    random.Random(20011).shuffle(specs)
    manager = PassManager(program, verify_params={"N": 6})
    for index, spec in enumerate(specs):
        shared = manager.run(spec, verify=index % 2 == 0)
        alone = PassManager(program).run(spec)
        assert alone.passes_run == len(spec.steps)
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


def test_broken_pass_is_blamed_on_every_crossing(test_pass):
    runs = []

    def broken(program, ctx):
        runs.append(1)
        return reverse_first_loops(program, ctx)

    test_pass("reverse_dependence", broken)
    program = resolve_target("adi").program
    bad = [
        custom_pipeline(["inline", "reverse_dependence", "simplify"]),
        custom_pipeline(["inline", "reverse_dependence", "distribute"]),
    ]
    good = custom_pipeline(["inline", "distribute", "simplify"])
    manager = PassManager(program, verify_params=SMALL)
    verifier = PassVerifier(program, SMALL)
    for spec in bad + bad:  # second crossings replay the cached verdict
        with pytest.raises(PassLegalityError, match="reverse_dependence") as err:
            manager.run(spec, verify=verifier)
        assert err.value.bag.has_errors()
        assert verifier.history[-1][0] == "reverse_dependence"
    assert len(runs) == 1, "the broken pass must not be re-run"
    assert manager.run(good, verify=True).program is not None
    # the unverified spelling of a standalone compile does not check either
    assert manager.run(bad[0], verify=False).program is not None


# -- (c) certification is lazy, per edge ---------------------------------------


def test_prefix_compiled_unverified_is_certified_when_crossed_verified():
    program = resolve_target("adi").program
    spec = PIPELINES["fusion1"]
    alone = PassVerifier(program, SMALL)
    compile_pipeline(program, spec, verify=alone)

    manager = PassManager(program, verify_params=SMALL)
    floor = live_snapshots()
    manager.run(spec, verify=False)
    assert live_snapshots() == floor, "an unverified walk takes no snapshot"
    assert not any(node.bags for node in manager._nodes())
    runs, replays = _counters("pm.pass.runs", "pm.certify.shared")
    verifier = PassVerifier(program, SMALL)
    manager.run(spec, verify=verifier)
    history = verifier.history
    assert [name for name, _ in history] == [name for name, _ in alone.history]
    assert all(not bag.has_errors() for _, bag in history)
    assert _counters("pm.pass.runs", "pm.certify.shared") == [runs, replays]
    # a third walk replays all eight verdicts into the history
    manager.run(PIPELINES["fusion1+regroup"], verify=verifier)
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


def _reached(manager):
    return [node for node in manager._nodes() if node.program is not None]


def test_declared_search_keeps_no_snapshot_it_does_not_need():
    program = resolve_target("tomcatv").program
    grid = enumerate_candidates(
        enablers=("unroll", "distribute"), fusion_levels=(0, 1, 2)
    )
    floor = live_snapshots()
    manager = PassManager(program, verify_params={"N": 6})
    peak = 0
    with manager.declared(grid):
        for spec in grid:
            manager.run(spec, verify=True)
            nodes = _reached(manager)
            holders = [n for n in nodes if n.snapshot is not None]
            # open branch points: a declared edge out of them awaits its verdict
            assert all(n.awaited() for n in holders), spec.name
            live = live_snapshots() - floor
            assert live == len(holders), spec.name
            peak = max(peak, live)
        assert peak >= 3, "the bound must have been exercised"
        # everything declared is certified: nothing is awaited, nothing kept
        assert not any(n.awaited() for n in _reached(manager))
        assert live_snapshots() == floor


# -- satellite: one validate, in one place -------------------------------------


def test_ill_formed_pass_output_is_rejected_by_the_manager(test_pass):
    def drop_declarations(program, ctx):
        return replace(program, arrays=program.arrays[:1])

    test_pass("drop_declarations", drop_declarations, certify=False)
    program = resolve_target("adi").program
    for _ in range(2):  # only a validation that passed is remembered
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
