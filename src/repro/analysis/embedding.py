"""Embedding-point computation for statement embedding (paper §2.3).

Statement embedding schedules a non-loop statement into one iteration of a
(fused) loop.  ``GreedilyFuse`` moves a *later* statement S up into its
closest data-sharing predecessor loop U, so S executes at some fused
iteration ``t`` instead of after the whole loop; dependence requires every
conflicting instance of U to execute no later than ``t``.  The symmetric
case (an earlier statement absorbed by a later loop) bounds ``t`` from
above instead.

The returned embedding point is an affine form — boundary statements such
as ``A[1] = A[N]`` may need to run at iteration ``N`` — which the fused
loop's segmented code generation turns into peeled straight-line code,
just like the paper's Fig. 4(a) output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..lang import Affine, Assumptions
from .access import RefAccess
from .constraint import ConflictKind, pair_conflict, symbolic_max, symbolic_min


@dataclass(frozen=True)
class EmbedPoint:
    """Result of an embedding feasibility test."""

    ok: bool
    #: iteration to embed at; None with ok=True means "unconstrained".
    at: Optional[Affine] = None
    reason: str = ""


def embed_after(
    unit_accesses: Sequence[RefAccess],
    stmt_accesses: Sequence[RefAccess],
    assume: Assumptions,
) -> EmbedPoint:
    """Embedding point for a statement that *follows* the unit.

    Moving S earlier (into iteration ``t``) requires every conflicting unit
    instance to be at an iteration <= t; read-read sharing prefers the
    iteration that touches the same element, for closest reuse.
    """
    required: list[Affine] = []
    preferred: list[Affine] = []
    for r1 in unit_accesses:
        for r2 in stmt_accesses:
            c = pair_conflict(r1, r2, assume)
            if c is None:
                continue
            if c.kind is ConflictKind.PIN1 and c.pin1 is not None:
                (required if c.is_required else preferred).append(c.pin1)
            elif c.is_required:
                # the whole active range of r1 conflicts
                if r1.active_hi is None:
                    return EmbedPoint(False, reason=f"unbounded conflict on {r1.array}")
                required.append(r1.active_hi)
    point = symbolic_max(required + preferred, assume)
    if point is None and (required or preferred):
        return EmbedPoint(False, reason="incomparable embedding constraints")
    return EmbedPoint(True, at=point)


def embed_before(
    stmt_accesses: Sequence[RefAccess],
    unit_accesses: Sequence[RefAccess],
    assume: Assumptions,
) -> EmbedPoint:
    """Embedding point for a statement that *precedes* the unit.

    Moving S later (into iteration ``t``) requires every conflicting unit
    instance to be at an iteration >= t.
    """
    required: list[Affine] = []
    preferred: list[Affine] = []
    for r1 in stmt_accesses:
        for r2 in unit_accesses:
            c = pair_conflict(r1, r2, assume)
            if c is None:
                continue
            if c.kind is ConflictKind.PIN2 and c.pin2 is not None:
                (required if c.is_required else preferred).append(c.pin2)
            elif c.is_required:
                if r2.active_lo is None:
                    return EmbedPoint(False, reason=f"unbounded conflict on {r2.array}")
                required.append(r2.active_lo)
    point = symbolic_min(required + preferred, assume)
    if point is None and (required or preferred):
        return EmbedPoint(False, reason="incomparable embedding constraints")
    return EmbedPoint(True, at=point)
