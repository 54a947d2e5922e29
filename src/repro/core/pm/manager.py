"""The pass manager: compiles the pipeline specs of one source program,
owning every cross-cutting concern.

A manager holds a **trie of pass steps** rooted at its source program
(DESIGN §3.1).  A node is one compilation state: the program after a
pass prefix, the :class:`PassContext` deposits so far and, while needed,
the program's dependence snapshot.  An edge is a :class:`PassStep`; a
pass that returns its input program and deposits nothing loops back to
the node it left.  ``run(spec)`` walks from the root and

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

Snapshots are the only large state (sp: 29.9 MB each) and must not live
that long.  A node keeps its snapshot only while a *declared* edge out
of it awaits its verdict: a search wraps its verified walks in
``with manager.declared(specs)`` (``run`` declares its own) and a node
drops the snapshot with its last such edge; when the scope ends —
normally or not — the declarations are withdrawn and no node holds one.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from ...lang import Program, validate
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

    __slots__ = (
        "program", "ctx", "children", "declared", "bags", "snapshot", "valid"
    )

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
        #: ``validate(program)`` has passed (a walk that ended here ran it)
        self.valid = False

    def awaited(self) -> bool:
        """Does a declared edge out of this node still await its verdict?"""
        pending = self.declared - self.bags.keys()
        return any(PASSES[step.name].certify for step in pending)

    def absorb(self, other: "_Node") -> None:
        """Fold ``other`` — declared but never reached — into this node."""
        self.declared |= other.declared
        for step, child in other.children.items():
            mine = self.children.setdefault(step, child)
            if mine is not child:
                mine.absorb(child)


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
        #: open ``declared`` scopes; the outermost withdraws on exit
        self._scopes = 0
        self.root = _Node()
        self.root.program = program
        self.root.ctx = PassContext(
            regroup_options=regroup_options, stages={"input": program.stats()}
        )

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

    @contextmanager
    def declared(self, specs: Iterable[PipelineSpec]) -> Iterator[None]:
        """Announce the verified walks of one search, so every node knows
        how long its snapshot is needed; when the (outermost) scope ends,
        however it ends, the declarations are withdrawn and every
        snapshot is dropped."""
        self._scopes += 1
        try:
            for spec in specs:
                node = self.root
                for step in spec.steps:
                    node.declared.add(step)
                    node = node.children.setdefault(step, _Node())
            yield
        finally:
            self._scopes -= 1
            if not self._scopes:
                for node in self._nodes():
                    node.declared.clear()
                    node.snapshot = None

    def _nodes(self) -> list[_Node]:
        """Every node of the trie, reached by a walk or only declared."""
        seen = {id(self.root): self.root}
        stack = [self.root]
        while stack:
            for child in stack.pop().children.values():
                if id(child) not in seen:
                    seen[id(child)] = child
                    stack.append(child)
        return list(seen.values())

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
        if not verify:
            return self._walk(spec, False)
        with self.declared([spec]):
            return self._walk(spec, verify)

    def _walk(
        self, spec: PipelineSpec, verify: Union[bool, PassVerifier]
    ) -> CompiledVariant:
        metrics.inc("pm.pipeline.runs")
        node = anchor = self.root
        shared = 0
        for step in spec.steps:
            parent, node = node, node.children.get(step)
            if node is not None and node.program is not None:
                shared += 1
                metrics.inc("pm.pass.shared")
            else:
                node = self._run_step(parent, step)
            if PASSES[step.name].certify:
                if verify:
                    self._certify(anchor, parent, step, verify)
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
        return the state it leads to."""
        node = parent.children.setdefault(step, _Node())
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
            # the pass changed nothing here: the edge loops back
            parent.children[step] = parent
            parent.absorb(node)
            return parent
        node.program, node.ctx = result, ctx
        return node

    def _certify(
        self,
        anchor: _Node,
        parent: _Node,
        step: PassStep,
        verify: Union[bool, PassVerifier],
    ) -> None:
        """Check ``parent``'s out-edge ``step`` against ``anchor``'s
        snapshot, or replay its verdict; raises on a broken dependence
        either way."""
        bag = parent.bags.get(step)
        if bag is not None:
            metrics.inc("pm.certify.shared")
        else:
            node = parent.children[step]
            with span("verify", certifies=step.name):
                before = anchor.snapshot
                if before is None:
                    before = self._snapshot(anchor.program)
                after = self._snapshot(node.program)
                bag = parent.bags[step] = check_legality(
                    before, after, pass_name=step.name, strict=PASSES[step.name].strict
                )
            anchor.snapshot = before if anchor.awaited() else None
            if not bag.has_errors():
                node.snapshot = after if node.awaited() else None
        if isinstance(verify, PassVerifier):
            verify.record(step.name, bag)
        elif bag.has_errors():
            raise PassLegalityError.from_bag(f"pass {step.name!r}", bag)

    def _snapshot(self, program: Program) -> Snapshot:
        return snapshot_program(program, self.verify_params, self.verify_steps)


def default_layout_for(program: Program, params: Mapping[str, int]):
    """Declaration-order layout — the no-regrouping default.

    Module-level (not a closure) so compiled variants carry no
    late-binding lambdas; the program is captured via ``partial``.
    """
    from ..regroup import default_layout

    return default_layout(program, params)
