"""Restricted loop fusion after McKinley, Carr & Tseng (paper §5).

The first implemented-and-evaluated fusion the paper compares against
"fused only loops with an equal number of iterations and with no
fusion-preventing dependences" — no statement embedding, no alignment,
no splitting.  The paper notes this fused just 6% of candidate loops and
produced marginal improvements; the comparator benchmarks reproduce that
gap.

:func:`mckinley_transform` is the program transformation the
``mckinley`` pipeline pass runs.
"""

from __future__ import annotations

from ..core.fusion import FusionOptions, FusionReport, fuse_program
from ..lang import Program, validate
from ..transform import inline_procedures, simplify_program


def mckinley_options() -> FusionOptions:
    return FusionOptions(
        embedding=False,
        alignment=False,
        splitting=False,
        identical_bounds=True,
    )


def mckinley_transform(program: Program) -> tuple[Program, FusionReport]:
    """Inline + cleanup + identical-bounds-only fusion."""
    p = validate(simplify_program(inline_procedures(program)))
    fused, report = fuse_program(p, max_levels=8, options=mckinley_options())
    return validate(simplify_program(fused)), report
