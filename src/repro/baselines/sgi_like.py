"""The "SGI compiler" comparator (paper §4.2, §6).

The paper compiles everything with ``f77 -mips4 -Ofast`` and credits the
SGI compiler with strong *local* optimization: intra-nest locality,
prefetching, and array padding ("SGI compiler has padding as a part of
its optimization").  What it lacks is exactly what the paper adds —
global (cross-nest) fusion and inter-array regrouping.

This stand-in therefore performs:

* procedure inlining and expression cleanup (parity with every variant);
* *intra-nest* fusion only: loops inside one nest body may fuse when they
  share data and need no alignment — modelling the local scheduling a
  production back end performs — while top-level (cross-nest) loops are
  left untouched;
* inter-array padding in the layout, staggering base offsets to spread
  cache-set pressure.

:func:`sgi_transform` is the program transformation the ``sgi`` pipeline
pass runs (the pass adds the padded layout).
"""

from __future__ import annotations

from ..core.fusion import FusionOptions
from ..lang import Program, validate
from ..transform import inline_procedures, simplify_program


def sgi_transform(program: Program) -> Program:
    """Inline + cleanup + intra-nest-only fusion (no layout decisions)."""
    p = validate(simplify_program(inline_procedures(program)))
    # local-only fusion: skip level 1 by fusing nothing at the top —
    # restrict to inner levels by running full fusion per top-level nest
    # body only.
    from ..core.fusion.multilevel import _MultiLevel
    from ..lang import Assumptions, Loop
    from ..transform.subst import bound_names

    options = FusionOptions(embedding=False, alignment=False, splitting=False)
    engine = _MultiLevel(p.params, options, max_levels=8)
    engine.fresh.reserve(bound_names(p.body))
    assume = Assumptions(default=options.param_min)
    body = []
    for stmt in p.body:
        if isinstance(stmt, Loop):
            body.append(engine.descend(stmt, 1, tuple(p.params), assume))
        else:
            body.append(stmt)
    engine.access_memo.publish()
    return validate(simplify_program(p.with_body(body)))
