"""The pass manager: compiles the pipeline specs of one source program,
owning every cross-cutting concern.

A manager holds a **trie of pass steps** rooted at its source program
(DESIGN §3.1).  A node is one compilation state: the program after a
pass prefix, the :class:`PassContext` deposits so far and, while needed,
the program's dependence snapshot.  An edge is a :class:`PassStep`; a
pass that returns its input program and deposits nothing loops back to
the node it left.  ``run(spec)`` walks from the root and

* **executes** a pass only where no walk has yet — passes are pure (see
  :class:`~repro.core.pm.passes.Pass`).  A shared step emits no pass
  span (nothing ran) and counts in ``pm.pass.shared``; ``pm.pass.runs``
  keeps meaning *executed*;
* **certifies** an edge the first time a *verified* walk crosses it —
  lazily, because one search mixes unverified compiles (named levels)
  and verified ones (candidates) over the same prefixes.  The verdict
  stays on the edge and is replayed into the verifier's ``history`` on
  every later verified crossing (``pm.certify.shared``); a failed one
  raises :class:`~repro.verify.PassLegalityError` each time;
* **assembles** the :class:`CompiledVariant` from a copy of the last
  node's deposits — what a standalone compile of the same spec gives.

Snapshots are the only large state (sp: 29.9 MB each).  A node keeps its
snapshot only while a *declared* edge out of it awaits its verdict:
``declare`` a search's specs up front (``run`` declares its own) and a
node drops the snapshot with its last such edge; leaves never keep one.
``compile_pipeline`` is the one-shot spelling: a fresh manager, one walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Mapping, Optional, Union

from ...lang import Program, validate
from ...obs import current_collector, metrics, span
from ...verify import DiagnosticBag, PassVerifier, Snapshot, check_legality
from .passes import Pass, PassContext, get_pass
from .pipelines import PassStep, PipelineSpec


@dataclass
class CompiledVariant:
    """A program compiled at one optimization level (or custom pipeline)."""

    level: str
    program: Program
    layout_factory: Callable[[Mapping[str, int]], object]
    fusion_report: Optional[object] = None
    regroup: Optional[object] = None
    #: structural checkpoints along the pipeline (for §4.4-style tables)
    stages: dict[str, dict] = field(default_factory=dict)

    def layout(self, params: Mapping[str, int]):
        return self.layout_factory(params)


class _Node:
    """One compilation state of the manager's source program."""

    __slots__ = ("program", "ctx", "children", "declared", "bags", "snapshot")

    def __init__(self) -> None:
        #: program and deposits in this state; None until a walk reaches it
        self.program: Optional[Program] = None
        self.ctx: Optional[PassContext] = None
        self.children: dict[PassStep, _Node] = {}
        #: out-edges a declared (verified) walk is still to cross
        self.declared: set[PassStep] = set()
        #: legality verdict per certified out-edge
        self.bags: dict[PassStep, DiagnosticBag] = {}
        self.snapshot: Optional[Snapshot] = None

    def awaited(self) -> bool:
        """Does a declared edge out of this node still await its verdict?"""
        pending = self.declared - self.bags.keys()
        return any(get_pass(step.name).certify for step in pending)

    def absorb(self, other: "_Node") -> None:
        """Fold ``other`` — declared but never reached — into this node."""
        self.declared |= other.declared
        for step, child in other.children.items():
            mine = self.children.setdefault(step, child)
            if mine is not child:
                mine.absorb(child)


class PassManager:
    """Compiles pipeline specs of ``program``, sharing their prefixes.

    ``verify`` and ``verify_params`` are ``compile_pipeline``'s: true
    makes walks certify (``run(spec, verify=False)`` opts one out); a
    :class:`~repro.verify.PassVerifier` instance is used as is — its
    ``history`` logs every certified crossing, its baseline moves to
    each snapshot taken — otherwise one is built, with its snapshot of
    the source, when a walk first certifies.
    """

    def __init__(
        self,
        program: Program,
        verify: Union[None, bool, PassVerifier] = False,
        regroup_options: Optional[object] = None,
        verify_params: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.program = program
        self.verify = verify
        self.verify_params = verify_params
        self.verifier: Optional[PassVerifier] = None
        #: steps walks found already executed (``pm.pass.shared``)
        self.shared_steps = 0
        self.root = _Node()
        self.root.program = program
        self.root.ctx = PassContext(
            regroup_options=regroup_options, stages={"input": program.stats()}
        )

    def declare(self, specs: Iterable[PipelineSpec]) -> None:
        """Announce verified walks to come, so every node knows how long
        its snapshot is needed."""
        for spec in specs:
            node = self.root
            for step in spec.steps:
                node.declared.add(step)
                node = node.children.setdefault(step, _Node())

    def run(self, spec: PipelineSpec, verify: bool = True) -> CompiledVariant:
        """Compile the source program through ``spec``, certifying every
        certifiable pass if the manager verifies and ``verify``."""
        certify = bool(verify and self.verify)
        if certify:
            if self.verifier is None:
                made = self.verify
                if not isinstance(made, PassVerifier):
                    made = PassVerifier(self.program, self.verify_params)
                self.verifier = made
                self.root.snapshot = made.baseline
            self.declare([spec])
        metrics.inc("pm.pipeline.runs")
        node = anchor = self.root
        for step in spec.steps:
            pass_obj = get_pass(step.name)
            parent, node = node, self._run_step(node, step, pass_obj)
            if pass_obj.certify:
                if certify:
                    self._certify(anchor, parent, step)
                anchor = node
        p = validate(node.program)
        ctx = node.ctx
        return CompiledVariant(
            spec.name,
            p,
            ctx.layout_factory or partial(default_layout_for, p),
            fusion_report=ctx.fusion_report,
            regroup=ctx.regroup_plan,
            stages={k: dict(v) for k, v in ctx.stages.items()},
        )

    def _run_step(self, parent: _Node, step: PassStep, pass_obj: Pass) -> _Node:
        """The state ``step`` leads to from ``parent``, running the pass
        if no walk has yet."""
        node = parent.children.setdefault(step, _Node())
        if node.program is not None:
            self.shared_steps += 1
            metrics.inc("pm.pass.shared")
            return node
        metrics.inc("pm.pass.runs")
        metrics.inc(f"pm.pass.{pass_obj.name}.runs")
        ctx = replace(parent.ctx, stages=dict(parent.ctx.stages))
        with span(pass_obj.name, **step.kwargs()) as sp:
            ctx._span = sp
            try:
                result = pass_obj.run(parent.program, ctx, **step.kwargs())
            finally:
                ctx._span = None
            if current_collector() is not None and isinstance(result, Program):
                stats = result.stats()
                for key in ("loop_nests", "loops", "arrays", "statements"):
                    if key in stats:
                        sp.attrs[key] = stats[key]
        if step.checkpoint:
            ctx.stages[step.checkpoint] = result.stats()
        if result is parent.program and ctx == parent.ctx:
            # the pass changed nothing here: the edge loops back
            parent.children[step] = parent
            parent.absorb(node)
            return parent
        node.program, node.ctx = result, ctx
        return node

    def _certify(self, anchor: _Node, parent: _Node, step: PassStep) -> None:
        """Check ``parent``'s out-edge ``step`` against ``anchor``'s
        snapshot, or replay its verdict; raises on a broken dependence
        either way."""
        pass_obj, verifier = get_pass(step.name), self.verifier
        bag = parent.bags.get(step)
        if bag is not None:
            metrics.inc("pm.certify.shared")
        else:
            node = parent.children[step]
            with span("verify", certifies=pass_obj.name):
                before = anchor.snapshot
                if before is None:
                    before = verifier.snapshot(anchor.program)
                after = verifier.snapshot(node.program)
                bag = parent.bags[step] = check_legality(
                    before, after, pass_name=pass_obj.name, strict=pass_obj.strict
                )
            anchor.snapshot = before if anchor.awaited() else None
            if not bag.has_errors():
                verifier.baseline = after
                node.snapshot = after if node.awaited() else None
        verifier.record(pass_obj.name, bag)


def default_layout_for(program: Program, params: Mapping[str, int]):
    """Declaration-order layout — the no-regrouping default.

    Module-level (not a closure) so compiled variants carry no
    late-binding lambdas; the program is captured via ``partial``.
    """
    from ..regroup import default_layout

    return default_layout(program, params)
