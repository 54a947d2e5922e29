"""The pass manager: runs pipeline specs, owning every cross-cutting concern.

One place — instead of a wrapper bolted onto each call site — handles:

* **observability**: each pass runs under an obs span named after the
  pass, carrying its per-step options (e.g. fusion's ``max_levels``) and,
  when a collector is active, the structural counts of the program it
  produced; per-pass run counters land in the metrics registry;
* **certification**: an optional :class:`~repro.verify.PassVerifier`
  checks every certifiable pass right after it runs (strict or relaxed
  per the pass's declaration), under a ``verify`` span naming what it
  certifies;
* **variant assembly**: the single construction site for
  :class:`CompiledVariant` (levels historically built it in three
  slightly different ways).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

from ...lang import Program, validate
from ...obs import current_collector, metrics, span
from ...verify import PassVerifier
from .passes import PassContext, get_pass
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


class PassManager:
    """Executes pipeline specs over programs.

    A manager is cheap and stateless between runs; construct one per
    compilation (the verifier, when given, is stateful — it re-baselines
    after every certified pass).
    """

    def __init__(self, verifier: Optional[PassVerifier] = None) -> None:
        self.verifier = verifier

    def run_passes(
        self,
        program: Program,
        steps: Sequence[PassStep],
        ctx: PassContext,
    ) -> Program:
        """Run ``steps`` in order; returns the transformed program."""
        p = program
        for step in steps:
            p = self._run_step(p, step, ctx)
        return p

    def _run_step(
        self, program: Program, step: PassStep, ctx: PassContext
    ) -> Program:
        pass_obj = get_pass(step.name)
        metrics.inc("pm.pass.runs")
        metrics.inc(f"pm.pass.{pass_obj.name}.runs")
        with span(pass_obj.name, **step.kwargs()) as sp:
            ctx._span = sp
            try:
                result = pass_obj.run(program, ctx, **step.kwargs())
            finally:
                ctx._span = None
            if current_collector() is not None and isinstance(result, Program):
                stats = result.stats()
                for key in ("loop_nests", "loops", "arrays", "statements"):
                    if key in stats:
                        sp.attrs[key] = stats[key]
        if self.verifier is not None and pass_obj.certify:
            with span("verify", certifies=pass_obj.name):
                self.verifier.check(pass_obj.name, result, strict=pass_obj.strict)
        if step.checkpoint:
            ctx.stages[step.checkpoint] = result.stats()
        return result

    def run(
        self,
        program: Program,
        spec: PipelineSpec,
        ctx: Optional[PassContext] = None,
    ) -> CompiledVariant:
        """Compile ``program`` through ``spec``; assemble the variant."""
        ctx = ctx or PassContext(level=spec.name)
        if not ctx.level:
            ctx.level = spec.name
        ctx.stages.setdefault("input", program.stats())
        metrics.inc("pm.pipeline.runs")
        p = validate(self.run_passes(program, spec.steps, ctx))
        layout_factory = ctx.layout_factory or partial(default_layout_for, p)
        return CompiledVariant(
            ctx.level,
            p,
            layout_factory,
            fusion_report=ctx.fusion_report,
            regroup=ctx.regroup_plan,
            stages=ctx.stages,
        )


def default_layout_for(program: Program, params: Mapping[str, int]):
    """Declaration-order layout — the no-regrouping default.

    Module-level (not a closure) so compiled variants carry no
    late-binding lambdas; the program is captured via ``partial``.
    """
    from ..regroup import default_layout

    return default_layout(program, params)
