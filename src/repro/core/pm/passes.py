"""The ``Pass`` protocol and the process-wide pass registry.

A *pass* is a named, metadata-carrying unit of program transformation.
Its contract:

``name``
    stable identifier — the span name in profiles, the label the
    verifier certifies under, and the token pipeline specs (and the CLI's
    ``--passes``) refer to;
``run(program, ctx, **options)``
    the transformation itself; returns the new program (or the same
    object for analysis-only passes such as ``regroup``) and may deposit
    byproducts — fusion reports, regrouping plans, layout factories —
    on the :class:`PassContext`;
``strict``
    verifier strictness: ``False`` for passes that legitimately rewrite
    arithmetic, ``None`` to use the verifier's by-name default;
``certify``
    whether the pass-legality verifier checks this pass at all
    (``False`` only for analysis passes that do not touch the program).

Passes are stateless; per-run inputs (regrouping options) come from the
:class:`PassContext` or from per-step ``options`` in the pipeline spec.

**Purity.**  ``run`` is a function of ``(program, ctx, options)``: equal
inputs give an equal program and equal deposits, the input program is
never mutated, and a deposit is assigned on ``ctx`` (``ctx.stages[k] =
...``, ``ctx.fusion_report = ...``), never mutated in place.  The pass
manager relies on it: it runs each distinct pass prefix of a source
program once and hands later pipelines a fork of the deposits
(``tests/pm/test_trie.py`` runs every registered pass twice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Protocol, runtime_checkable

from ...lang import Program, TransformError

#: §4.1 step 2: loops and leading array dimensions up to this constant
#: extent are unrolled / split (one value for both, so every unrolled
#: subscript finds its plane)
MAX_UNROLL = 5


@dataclass
class PassContext:
    """Everything a pass may read or deposit during one pipeline run."""

    regroup_options: Optional[object] = None
    #: structural checkpoints (the §4.4 tables read these)
    stages: dict[str, dict] = field(default_factory=dict)
    #: byproducts deposited by passes
    fusion_report: Optional[object] = None
    regroup_plan: Optional[object] = None
    layout_factory: Optional[Callable] = None
    #: the open span of the currently running pass (set by the manager)
    _span: Optional[object] = None

    def annotate(self, **attrs: object) -> None:
        """Attach attributes to the running pass's span."""
        if self._span is not None:
            self._span.attrs.update(attrs)


@runtime_checkable
class Pass(Protocol):
    """Structural protocol every registered pass satisfies."""

    name: str
    description: str
    strict: Optional[bool]
    certify: bool

    def run(self, program: Program, ctx: PassContext, **options) -> Program: ...


@dataclass(frozen=True)
class FunctionPass:
    """A pass defined by a plain function ``fn(program, ctx, **options)``."""

    name: str
    fn: Callable[..., Program]
    description: str = ""
    strict: Optional[bool] = None
    certify: bool = True

    def run(self, program: Program, ctx: PassContext, **options) -> Program:
        return self.fn(program, ctx, **options)


#: the process-wide pass registry pipeline specs resolve against
PASSES: dict[str, Pass] = {}


def register_pass(p: Pass) -> Pass:
    """Register ``p`` under ``p.name``."""
    if p.name in PASSES:
        raise TransformError(f"pass {p.name!r} is already registered")
    PASSES[p.name] = p
    return p


def get_pass(name: str) -> Pass:
    try:
        return PASSES[name]
    except KeyError:
        raise TransformError(
            f"unknown pass {name!r}; registered passes: "
            f"{', '.join(sorted(PASSES))}"
        ) from None


def pass_names() -> tuple[str, ...]:
    return tuple(sorted(PASSES))


# -- built-in passes ----------------------------------------------------------
#
# §4.1 preliminary transformations.


def _inline(program: Program, ctx: PassContext) -> Program:
    from ...transform import inline_procedures

    return inline_procedures(program)


def _unroll(program: Program, ctx: PassContext) -> Program:
    from ...transform import unroll_small_loops

    return unroll_small_loops(program, MAX_UNROLL)


def _split_arrays(program: Program, ctx: PassContext) -> Program:
    from ...transform import split_arrays

    return split_arrays(program, MAX_UNROLL)


def _distribute(program: Program, ctx: PassContext) -> Program:
    from ...transform import distribute_loops

    return distribute_loops(program)


def _constprop(program: Program, ctx: PassContext) -> Program:
    from ...transform import propagate_scalar_constants

    return propagate_scalar_constants(program)


def _simplify(program: Program, ctx: PassContext) -> Program:
    from ...transform import simplify_program

    return simplify_program(program)


def _fusion(program: Program, ctx: PassContext, max_levels: int = 8) -> Program:
    from ..fusion import fuse_program

    fused, report = fuse_program(program, max_levels=max_levels)
    ctx.fusion_report = report
    return fused


def _regroup(program: Program, ctx: PassContext) -> Program:
    """Plan data regrouping; the *program* is untouched (layouts relocate
    data without reordering accesses, so no certification either)."""
    from ..regroup import regroup_plan

    plan = regroup_plan(program, ctx.regroup_options)
    ctx.regroup_plan = plan
    ctx.layout_factory = plan.materialize
    ctx.annotate(merged_arrays=plan.merged_array_count())
    ctx.stages["regrouped"] = {"merged_arrays": plan.merged_array_count()}
    return program


def _sgi(program: Program, ctx: PassContext) -> Program:
    from ...baselines.sgi_like import sgi_transform
    from ..regroup import padded_layout

    p = sgi_transform(program)
    ctx.stages["sgi"] = p.stats()
    ctx.layout_factory = partial(padded_layout, p)
    return p


def _mckinley(program: Program, ctx: PassContext) -> Program:
    from ...baselines.mckinley import mckinley_transform

    p, report = mckinley_transform(program)
    ctx.fusion_report = report
    ctx.stages["mckinley"] = p.stats()
    return p


register_pass(FunctionPass(
    "inline", _inline,
    description="inline every procedure call (§4.1 step 1)",
))
register_pass(FunctionPass(
    "unroll", _unroll,
    description="fully unroll small constant-trip loops (§4.1 step 2)",
))
register_pass(FunctionPass(
    "split_arrays", _split_arrays,
    description="split small leading array dimensions into scalars/planes",
))
register_pass(FunctionPass(
    "distribute", _distribute,
    description="maximal loop distribution (Allen–Kennedy SCCs)",
))
register_pass(FunctionPass(
    "constprop", _constprop,
    description="propagate scalar constants (relaxed certification)",
    strict=False,
))
register_pass(FunctionPass(
    "simplify", _simplify,
    description="fold constants and drop dead scalars (relaxed certification)",
    strict=False,
))
register_pass(FunctionPass(
    "fusion", _fusion,
    description="reuse-based multi-level loop fusion (§2.3, Fig. 6)",
))
register_pass(FunctionPass(
    "regroup", _regroup,
    description="multi-level data regrouping plan + layout (§3, Fig. 8)",
    certify=False,
))
register_pass(FunctionPass(
    "sgi", _sgi,
    description="SGI-like baseline: intra-nest fusion + inter-array padding",
    strict=False,
))
register_pass(FunctionPass(
    "mckinley", _mckinley,
    description="restricted fusion baseline (identical bounds, no enablers)",
    strict=False,
))
