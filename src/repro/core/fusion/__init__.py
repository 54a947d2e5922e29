"""Reuse-based loop fusion (paper §2.3): the first half of the strategy."""

from .codegen import peel_iterations, unit_to_stmts
from .greedy import FusionEvent, FusionOptions, LevelReport
from .multilevel import FusionReport, fuse_program
from .unit import Embed, FusionUnit, Member

__all__ = [
    "Embed",
    "FusionEvent",
    "FusionOptions",
    "FusionReport",
    "FusionUnit",
    "LevelReport",
    "Member",
    "fuse_program",
    "peel_iterations",
    "unit_to_stmts",
]
