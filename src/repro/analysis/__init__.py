"""Program analyses: footprints, dependence, alignment, embedding."""

from .access import (
    SCALAR_PREFIX,
    RefAccess,
    arrays_of,
    collect_loop_accesses,
    collect_stmt_accesses,
    shares_data,
)
from .classify import DimClass, DimKind, classify_subscript
from .constraint import (
    AlignmentResult,
    Conflict,
    ConflictKind,
    compute_alignment,
    pair_conflict,
    symbolic_max,
    symbolic_min,
)
from .dependence import body_dependence_graph, depends, distribution_groups
from .embedding import EmbedPoint, embed_after, embed_before

__all__ = [
    "AlignmentResult",
    "Conflict",
    "ConflictKind",
    "DimClass",
    "DimKind",
    "EmbedPoint",
    "RefAccess",
    "SCALAR_PREFIX",
    "arrays_of",
    "body_dependence_graph",
    "classify_subscript",
    "collect_loop_accesses",
    "collect_stmt_accesses",
    "compute_alignment",
    "depends",
    "distribution_groups",
    "embed_after",
    "embed_before",
    "pair_conflict",
    "shares_data",
    "symbolic_max",
    "symbolic_min",
]
