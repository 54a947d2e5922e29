"""The pass manager: compiles the pipeline specs of one source program,
owning every cross-cutting concern.

A manager holds a **trie of pass steps** rooted at its source program
(DESIGN §3.1).  A node is one compilation state: the program after a
pass prefix and the :class:`PassContext` deposits so far.  An edge is a
:class:`PassStep`; a pass that returns its input program and deposits
nothing loops back to the node it left.  ``run(spec)`` walks from the root and

* **executes** a pass only where no walk has yet — passes are pure (see
  :mod:`~repro.core.pm.passes`).  A shared step emits no pass
  span (nothing ran) and counts in ``pm.pass.shared``; ``pm.pass.runs``
  keeps meaning *executed*;
* **certifies** an edge the first time a *verified* walk crosses it —
  lazily, because unverified compiles (named levels, ``run()``) and
  verified ones (``tune`` candidates, ``verify-pass``) cross the same
  prefixes.  The verdict stays on the edge and is replayed on every
  later verified crossing (``pm.certify.shared``), into the caller's
  ``PassVerifier.history`` if it brought one; a failed one raises
  :class:`~repro.verify.PassLegalityError` each time;
* **assembles** the :class:`CompiledVariant` from a copy of the last
  node's deposits — what a compile through a fresh manager gives — and
  remembers on the node that its program validated.

**One trie per source program, for as long as the program lives.**
Compiling is a function of (source program, pass prefix), so the trie
belongs to the :class:`~repro.lang.Program` object: :meth:`PassManager.of`
is the manager every front door walks (``compile_pipeline``,
``measure_variant``, ``tune``), a (program, prefix) executes once per
process, and a walk reports what *it* ran (``CompiledVariant.passes_run``
/ ``shared_steps``) — a shared prefix's seconds are charged to the walk
that executed it.  The trie is small (a full seven-level trie of sp
retains 5.7 MB) and dies with its program.

Snapshots are the only large state, and a snapshot lives in the walk
that took it: a verified walk keeps the snapshot of its last certified
state in a local, so at most two (before and after the pass being
certified) are alive at once and none outlives the walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping, Optional, Union

from ...lang import Program, TransformError, validate
from ...obs import current_collector, metrics, span
from ...verify import (
    DiagnosticBag,
    PassLegalityError,
    PassVerifier,
    Snapshot,
    check_legality,
    snapshot_program,
)
from .passes import PASSES, PassContext
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
    #: what *this* walk cost: passes it executed, and steps it found
    #: already executed by an earlier walk over the same source program
    passes_run: int = field(default=0, compare=False)
    shared_steps: int = field(default=0, compare=False)

    def layout(self, params: Mapping[str, int]):
        return self.layout_factory(params)


class _Node:
    """One compilation state of the manager's source program."""

    __slots__ = ("program", "ctx", "children", "bags", "valid")

    def __init__(self, program: Program, ctx: PassContext) -> None:
        self.program = program
        self.ctx = ctx
        self.children: dict[PassStep, _Node] = {}
        #: legality verdict per certified out-edge
        self.bags: dict[PassStep, DiagnosticBag] = {}
        #: ``validate(program)`` has passed (a walk that ended here ran it)
        self.valid = False


class PassManager:
    """Compiles pipeline specs of ``program``, sharing their prefixes.

    :meth:`of` is the manager every front door walks; constructing one
    gives a fresh trie — for ``regroup_options`` (every ``regroup``
    deposit depends on them) or a non-default verification size
    (``verify_params`` / ``verify_steps``, what
    :func:`~repro.verify.snapshot_program` takes: every verdict depends
    on them), and as the tests' oracle.
    """

    def __init__(
        self,
        program: Program,
        regroup_options: Optional[object] = None,
        verify_params: Optional[Mapping[str, int]] = None,
        verify_steps: int = 1,
    ) -> None:
        self.program = program
        self.verify_params = verify_params
        self.verify_steps = verify_steps
        stages = {"input": program.stats()}
        self.root = _Node(program, PassContext(regroup_options, stages=stages))

    @classmethod
    def of(cls, program: Program) -> "PassManager":
        """``program``'s own manager (default options), made on first use.

        It hangs off the program object itself — found in O(1) by
        identity, reachable through nothing else — so the reference cycle
        ``program -> manager -> root.program`` is collected with the
        program and no table of programs exists to outlive them.
        """
        manager = program.__dict__.get("_pass_manager")
        if manager is None:
            manager = program.__dict__["_pass_manager"] = cls(program)
        return manager

    def run(
        self, spec: PipelineSpec, verify: Union[bool, PassVerifier] = False
    ) -> CompiledVariant:
        """Compile the source program through ``spec``.

        ``verify`` true certifies every certifiable pass on the way; a
        :class:`~repro.verify.PassVerifier` (of this manager's
        verification size — :func:`~repro.core.compile_pipeline` sees to
        that) also gets every verdict, fresh or replayed, appended to its
        ``history``.
        """
        metrics.inc("pm.pipeline.runs")
        node = anchor = self.root
        before: Optional[Snapshot] = None  # of ``anchor``, once taken
        shared = 0
        for step in spec.steps:
            parent, node = node, node.children.get(step)
            if node is not None:
                shared += 1
                metrics.inc("pm.pass.shared")
            else:
                node = self._run_step(parent, step)
            if PASSES[step.name].certify:
                if verify:
                    before = self._certify(anchor, before, parent, step, verify)
                anchor = node
        if not node.valid:
            validate(node.program)
            node.valid = True
        p, ctx = node.program, node.ctx
        return CompiledVariant(
            spec.name,
            p,
            ctx.layout_factory or partial(default_layout_for, p),
            fusion_report=ctx.fusion_report,
            regroup=ctx.regroup_plan,
            stages={k: dict(v) for k, v in ctx.stages.items()},
            passes_run=len(spec.steps) - shared,
            shared_steps=shared,
        )

    def _run_step(self, parent: _Node, step: PassStep) -> _Node:
        """Run ``step`` on ``parent``'s state — no walk has yet — and
        return the state it leads to.  A pass that does not inline
        rewrites the main body only, so it needs a program without
        procedures."""
        if parent.program.procedures and not PASSES[step.name].inlines:
            raise TransformError(
                f"pass {step.name!r} needs an inlined program "
                f"(it has procedures); run inline first"
            )
        metrics.inc("pm.pass.runs")
        metrics.inc(f"pm.pass.{step.name}.runs")
        ctx = replace(parent.ctx, stages=dict(parent.ctx.stages))
        with span(step.name, **step.kwargs()) as sp:
            ctx._span = sp
            try:
                result = PASSES[step.name].fn(parent.program, ctx, **step.kwargs())
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
            node = parent  # the pass changed nothing here: the edge loops back
        else:
            node = _Node(result, ctx)
        parent.children[step] = node
        return node

    def _certify(
        self,
        anchor: _Node,
        before: Optional[Snapshot],
        parent: _Node,
        step: PassStep,
        verify: Union[bool, PassVerifier],
    ) -> Optional[Snapshot]:
        """Check ``parent``'s out-edge ``step`` against ``anchor``'s
        snapshot ``before`` (taken here if the walk has none), or replay
        its verdict; raises on a broken dependence either way.  Returns
        the snapshot of the state the edge leads to, if one was taken."""
        after = None
        bag = parent.bags.get(step)
        if bag is not None:
            metrics.inc("pm.certify.shared")
        else:
            with span("verify", certifies=step.name):
                if before is None:
                    before = self._snapshot(anchor.program)
                after = self._snapshot(parent.children[step].program)
                bag = parent.bags[step] = check_legality(
                    before, after, pass_name=step.name, strict=PASSES[step.name].strict
                )
        if isinstance(verify, PassVerifier):
            verify.record(step.name, bag)
        elif bag.has_errors():
            raise PassLegalityError.from_bag(f"pass {step.name!r}", bag)
        return after

    def _snapshot(self, program: Program) -> Snapshot:
        return snapshot_program(program, self.verify_params, self.verify_steps)


def default_layout_for(program: Program, params: Mapping[str, int]):
    """Declaration-order layout — the no-regrouping default.

    Module-level (not a closure) so compiled variants carry no
    late-binding lambdas; the program is captured via ``partial``.
    """
    from ..regroup import default_layout

    return default_layout(program, params)
