"""Preliminary transformations (paper §4.1) and rewriting utilities."""

from .distribute import distribute_loops
from .inline import inline_procedures
from .simplify import propagate_scalar_constants, simplify_program
from .split_arrays import split_arrays
from .subst import FreshNames, bound_names, rename_bound, subst_stmt
from .unroll import unroll_small_loops

__all__ = [
    "FreshNames",
    "bound_names",
    "distribute_loops",
    "inline_procedures",
    "propagate_scalar_constants",
    "rename_bound",
    "simplify_program",
    "split_arrays",
    "subst_stmt",
    "unroll_small_loops",
]
