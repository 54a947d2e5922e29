"""The compiler's passes: one fixed table, :data:`PASSES`.

The table holds the paper's §4.1 steps (inline, unroll/split, distribute,
constant propagation and cleanup, fusion, regrouping) and the two
baseline compilers.  A pass's key is its name — the span name in
profiles, the label the verifier certifies under, and the token a pass
sequence (``--passes``, a tuner signature) spells it with.  An entry
holds

``fn(program, ctx, **options)``
    the transformation itself; returns the new program (or the same
    object for the analysis-only ``regroup``) and may deposit byproducts
    — fusion reports, regrouping plans, layout factories — on the
    :class:`PassContext`;
``strict``
    how the pass-legality verifier certifies it: ``False`` for passes
    that legitimately rewrite arithmetic, which are checked on array
    dataflow only.  This flag is the one place that says so;
``certify``
    whether the verifier checks the pass at all (``False`` only for
    ``regroup``, which does not touch the program).

**Purity.**  ``fn`` is a function of ``(program, ctx, options)``: equal
inputs give an equal program and equal deposits, the input program is
never mutated, and a deposit is assigned on ``ctx`` (``ctx.stages[k] =
...``, ``ctx.fusion_report = ...``), never mutated in place.  The pass
manager relies on it: it runs each distinct pass prefix of a source
program once and hands later pipelines a fork of the deposits
(``tests/pm/test_trie.py`` runs every pass twice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

from ...lang import Program
from ...transform import (
    distribute_loops,
    inline_procedures,
    propagate_scalar_constants,
    simplify_program,
    split_arrays,
    unroll_small_loops,
)
from ..fusion import fuse_program
from ..regroup import padded_layout, regroup_plan

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


class _Pass(NamedTuple):
    fn: Callable[..., Program]
    description: str
    strict: bool = True
    certify: bool = True


def _fusion(program: Program, ctx: PassContext, max_levels: int = 8) -> Program:
    fused, ctx.fusion_report = fuse_program(program, max_levels=max_levels)
    return fused


def _regroup(program: Program, ctx: PassContext) -> Program:
    """Plan data regrouping; the *program* is untouched (layouts relocate
    data without reordering accesses, so no certification either)."""
    plan = ctx.regroup_plan = regroup_plan(program, ctx.regroup_options)
    ctx.layout_factory = plan.materialize
    ctx.annotate(merged_arrays=plan.merged_array_count())
    ctx.stages["regrouped"] = {"merged_arrays": plan.merged_array_count()}
    return program


def _sgi(program: Program, ctx: PassContext) -> Program:
    from ...baselines.sgi_like import sgi_transform

    p = sgi_transform(program)
    ctx.stages["sgi"] = p.stats()
    ctx.layout_factory = partial(padded_layout, p)
    return p


def _mckinley(program: Program, ctx: PassContext) -> Program:
    from ...baselines.mckinley import mckinley_transform

    p, ctx.fusion_report = mckinley_transform(program)
    ctx.stages["mckinley"] = p.stats()
    return p


#: every pass, by name
PASSES: dict[str, _Pass] = {
    "inline": _Pass(
        lambda p, ctx: inline_procedures(p),
        "inline every procedure call (§4.1 step 1)",
    ),
    "unroll": _Pass(
        lambda p, ctx: unroll_small_loops(p, MAX_UNROLL),
        "fully unroll small constant-trip loops (§4.1 step 2)",
    ),
    "split_arrays": _Pass(
        lambda p, ctx: split_arrays(p, MAX_UNROLL),
        "split small leading array dimensions into scalars/planes",
    ),
    "distribute": _Pass(
        lambda p, ctx: distribute_loops(p),
        "maximal loop distribution (Allen–Kennedy SCCs)",
    ),
    "constprop": _Pass(
        lambda p, ctx: propagate_scalar_constants(p),
        "propagate scalar constants (relaxed certification)",
        strict=False,
    ),
    "simplify": _Pass(
        lambda p, ctx: simplify_program(p),
        "fold constants and drop dead scalars (relaxed certification)",
        strict=False,
    ),
    "fusion": _Pass(_fusion, "reuse-based multi-level loop fusion (§2.3, Fig. 6)"),
    "regroup": _Pass(
        _regroup,
        "multi-level data regrouping plan + layout (§3, Fig. 8)",
        certify=False,
    ),
    "sgi": _Pass(
        _sgi,
        "SGI-like baseline: intra-nest fusion + inter-array padding",
        strict=False,
    ),
    "mckinley": _Pass(
        _mckinley,
        "restricted fusion baseline (identical bounds, no enablers)",
        strict=False,
    ),
}
