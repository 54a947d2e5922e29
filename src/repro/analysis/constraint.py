"""Alignment-constraint math for reuse-based loop fusion (paper §2.3).

Given the frame-relative accesses of two fusion units U1 (earlier in
program order) and U2 (later), fusing with alignment ``D`` places U2's
iteration ``u`` at fused position ``u + D``.  Every conflicting pair of
references (at least one write) demands that the U1 instance execute no
later than the U2 instance, which lower-bounds ``D``; read-read sharing
*prefers* the ``D`` that puts the reuse in the same fused iteration.  The
paper's ``FusibleTest`` is: per array take the smallest alignment that
satisfies dependence with closest reuse, then take the largest over all
arrays; fusion is possible iff that bound is a bounded constant.

The pair analysis below also reports *why* a bound is unbounded (which
boundary iterations pin the conflict), which is what lets the fusion
driver apply the paper's iteration reordering — splitting at boundary
iterations — and retry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from ..lang import Affine, Assumptions
from .access import RefAccess
from .classify import DimKind


class ConflictKind(Enum):
    DELTA = "delta"  # iteration-to-iteration: u2 = u1 + delta
    PIN1 = "pin1"  # U1 side pinned to one iteration
    PIN2 = "pin2"  # U2 side pinned to one iteration
    PINS = "pins"  # both sides pinned
    SERIALIZE = "serialize"  # all iterations of U1 before all of U2


@dataclass(frozen=True)
class Conflict:
    """One conflicting reference pair and the alignment bound it implies."""

    r1: RefAccess
    r2: RefAccess
    kind: ConflictKind
    bound: Optional[Affine]  # lower bound on D; None = cannot even express
    pin1: Optional[Affine] = None  # conflicting U1 iteration, when pinned
    pin2: Optional[Affine] = None  # conflicting U2 iteration, when pinned

    @property
    def is_required(self) -> bool:
        return self.r1.is_write or self.r2.is_write

    def bounded(self) -> bool:
        return self.bound is not None and self.bound.is_constant()


def _pin_in_range(
    pin: Affine, ref: RefAccess, assume: Assumptions
) -> bool:
    """False when the pinned iteration is provably outside the ref's range.

    Pins outside the active range mean the conflicting instance never
    executes — there is no conflict.  Active ranges are conservative
    (never narrower than the truth), so a provably-outside verdict is safe.
    """
    if ref.active_lo is not None and pin.compare(ref.active_lo, assume) == -1:
        return False
    if ref.active_hi is not None and pin.compare(ref.active_hi, assume) == 1:
        return False
    return True


def _pin_join(
    current: Optional[Affine], new: Affine, assume: Assumptions
) -> tuple[Optional[Affine], bool]:
    """Combine two pins on the same iteration variable.

    Returns (pin, consistent): inconsistent constant pins mean the pair can
    never conflict; unknown comparisons stay conservative (keep a pin).
    """
    if current is None:
        return new, True
    cmp = current.compare(new, assume)
    if cmp == 0:
        return current, True
    if cmp is None:
        return current, True  # conservative: assume they may coincide
    return current, False


def pair_conflict(
    r1: RefAccess, r2: RefAccess, assume: Assumptions
) -> Optional[Conflict]:
    """Analyze one reference pair; ``None`` when they can never overlap."""
    if r1.array != r2.array:
        return None
    delta: Optional[Affine] = None
    pin1: Optional[Affine] = None
    pin2: Optional[Affine] = None
    serialize = False
    for d1, d2 in zip(r1.dims, r2.dims):
        k1, k2 = d1.kind, d2.kind
        if k1 is DimKind.COMPLEX or k2 is DimKind.COMPLEX:
            serialize = True
        elif k1 is DimKind.VARIANT and k2 is DimKind.VARIANT:
            dk = d1.value - d2.value
            if delta is None:
                delta = dk
            else:
                cmp = delta.compare(dk, assume)
                if cmp == 0:
                    pass
                elif cmp is None:
                    serialize = True  # ambiguous coupling between dims
                else:
                    return None  # provably different elements always
        elif k1 is DimKind.VARIANT and k2 is DimKind.INVARIANT:
            pin1, ok = _pin_join(pin1, d2.value - d1.value, assume)
            if not ok:
                return None
        elif k1 is DimKind.INVARIANT and k2 is DimKind.VARIANT:
            pin2, ok = _pin_join(pin2, d1.value - d2.value, assume)
            if not ok:
                return None
        elif k1 is DimKind.INVARIANT and k2 is DimKind.INVARIANT:
            cmp = d1.value.compare(d2.value, assume)
            if cmp in (-1, 1):
                return None  # definitely different points
            if cmp is None:
                serialize = True
            # equal points: overlap, no coupling
        elif k1 is DimKind.VARIANT and k2 is DimKind.INNER:
            serialize = True  # one element vs a whole swept dimension
        elif k1 is DimKind.INNER and k2 is DimKind.VARIANT:
            serialize = True
        # INNER vs INNER / INNER vs INVARIANT: overlap, no coupling
    if pin1 is not None and not _pin_in_range(pin1, r1, assume):
        return None
    if pin2 is not None and not _pin_in_range(pin2, r2, assume):
        return None
    lo2 = r2.active_lo
    hi1 = r1.active_hi
    # Pins and couplings from *any* dimension confine the conflict set even
    # when another dimension serializes (a conflict needs equality on every
    # dimension), so they take priority over the serialize verdict — this
    # is what lets boundary-confined conflicts be peeled away.
    if delta is not None:
        # u2 = u1 + delta; order preserved iff u1 <= u1 + delta + D
        return Conflict(r1, r2, ConflictKind.DELTA, -delta, pin1, pin2)
    if pin1 is not None and pin2 is not None:
        return Conflict(r1, r2, ConflictKind.PINS, pin1 - pin2, pin1, pin2)
    if pin1 is not None:
        bound = None if lo2 is None else pin1 - lo2
        return Conflict(r1, r2, ConflictKind.PIN1, bound, pin1, None)
    if pin2 is not None:
        bound = None if hi1 is None else hi1 - pin2
        return Conflict(r1, r2, ConflictKind.PIN2, bound, None, pin2)
    # no coupling at all: every iteration of r1 may touch every iteration
    # of r2 (whole-dimension sweeps, scalars) — full serialization
    bound = None if (hi1 is None or lo2 is None) else hi1 - lo2
    return Conflict(r1, r2, ConflictKind.SERIALIZE, bound, None, None)


@dataclass
class AlignmentResult:
    """Outcome of the alignment computation between two fusion units."""

    fusible: bool
    alignment: int = 0
    #: conflicts whose required bound is not a bounded constant
    unbounded: tuple[Conflict, ...] = ()
    reason: str = ""


def compute_alignment(
    acc1: Sequence[RefAccess],
    acc2: Sequence[RefAccess],
    assume: Assumptions,
) -> AlignmentResult:
    """The core of ``FusibleTest``: minimal legal alignment with closest reuse.

    Required bounds come from conflicting pairs (>= 1 write); preferred
    bounds come from read-read pairs with a consistent iteration coupling.
    The result is the maximum of all bounded constants; any unbounded
    *required* conflict makes the pair infusible (callers may then attempt
    boundary splitting using the pin information).
    """
    required: dict[str, list[int]] = {}
    preferred: dict[str, list[int]] = {}
    unbounded: list[Conflict] = []
    by_array2: dict[str, list[RefAccess]] = {}
    for r2 in acc2:
        by_array2.setdefault(r2.array, []).append(r2)
    for r1 in acc1:
        for r2 in by_array2.get(r1.array, ()):
            conflict = pair_conflict(r1, r2, assume)
            if conflict is None:
                continue
            if conflict.is_required:
                if conflict.bounded():
                    required.setdefault(r1.array, []).append(
                        conflict.bound.int_value()
                    )
                else:
                    unbounded.append(conflict)
            else:
                if conflict.kind is ConflictKind.DELTA and conflict.bounded():
                    preferred.setdefault(r1.array, []).append(
                        conflict.bound.int_value()
                    )
    if unbounded:
        return AlignmentResult(
            fusible=False,
            unbounded=tuple(unbounded),
            reason=f"{len(unbounded)} conflict(s) without a bounded alignment",
        )
    # per array: dependence constraints dominate; read-read preference is
    # only consulted for arrays with no dependence at all (paper: "the
    # smallest alignment factor that satisfies data dependence and has the
    # closest reuse", then "the largest of all alignment factors").
    factors: list[int] = []
    for array in set(required) | set(preferred):
        if array in required:
            factors.append(max(required[array]))
        else:
            factors.append(max(preferred[array]))
    alignment = max(factors) if factors else 0
    return AlignmentResult(fusible=True, alignment=alignment)


def symbolic_max(
    values: Sequence[Affine], assume: Assumptions
) -> Optional[Affine]:
    """Max of affine forms under the parameter assumptions; None if unordered."""
    if not values:
        return None
    best = values[0]
    for v in values[1:]:
        cmp = best.compare(v, assume)
        if cmp is None:
            return None
        if cmp < 0:
            best = v
    return best


def symbolic_min(
    values: Sequence[Affine], assume: Assumptions
) -> Optional[Affine]:
    if not values:
        return None
    best = values[0]
    for v in values[1:]:
        cmp = best.compare(v, assume)
        if cmp is None:
            return None
        if cmp > 0:
            best = v
    return best
