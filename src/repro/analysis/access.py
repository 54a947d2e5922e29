"""Frame-relative access collection — the paper's *data footprints* (§4.1).

``collect_accesses`` walks a loop body and produces one
:class:`RefAccess` per array reference, classified relative to the frame
variable and annotated with the active range of frame values for which it
executes (narrowed through :class:`Guard` statements).  Fusion's
``FusibleTest``, statement embedding, and data regrouping all consume
this summary; dependence is tested by intersecting footprints, exactly as
the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ..lang import (
    Affine,
    AnalysisError,
    ArrayRef,
    Assign,
    CallStmt,
    Guard,
    Loop,
    ScalarRef,
    Stmt,
    array_reads,
)
from .classify import DimClass, DimKind, classify_subscript

#: Pseudo-array name prefix for scalar variables, so scalar flow
#: participates in data-sharing and dependence tests uniformly.
SCALAR_PREFIX = "$scalar:"


@dataclass(frozen=True)
class RefAccess:
    """One array reference, classified relative to a fusion frame.

    ``active_lo``/``active_hi`` bound the frame values at which the
    reference executes (loop bounds narrowed by enclosing guards); for
    references not under the frame at all (loose statements) they are the
    single point of execution or ``None`` when unconstrained.
    """

    array: str
    is_write: bool
    dims: tuple[DimClass, ...]
    active_lo: Optional[Affine]
    active_hi: Optional[Affine]
    text: str = ""

    def shifted(self, shift: Affine) -> "RefAccess":
        """Translate from a member frame into the fused frame.

        A member aligned by ``shift`` executes its iteration ``i`` at
        fused position ``f = i + shift``; a variant subscript ``i + c``
        becomes ``f + (c - shift)`` and active ranges move with it.
        """
        dims = tuple(
            DimClass.variant(d.value - shift) if d.kind is DimKind.VARIANT else d
            for d in self.dims
        )
        return replace(
            self,
            dims=dims,
            active_lo=None if self.active_lo is None else self.active_lo + shift,
            active_hi=None if self.active_hi is None else self.active_hi + shift,
        )


def _scalar_access(name: str, is_write: bool) -> RefAccess:
    return RefAccess(
        array=SCALAR_PREFIX + name,
        is_write=is_write,
        dims=(DimClass.invariant(Affine.constant(0)),),
        active_lo=None,
        active_hi=None,
        text=name,
    )


class _Collector:
    def __init__(self, frame: Optional[str], params: frozenset[str]) -> None:
        self.frame = frame
        self.params = params
        self.out: list[RefAccess] = []

    def ref(
        self,
        ref: ArrayRef,
        is_write: bool,
        inner: frozenset[str],
        lo: Optional[Affine],
        hi: Optional[Affine],
    ) -> None:
        if self.frame is None:
            # loose statement: everything is invariant or complex
            dims = []
            for sub in ref.index_affines():
                unknown = sub.variables() - self.params
                dims.append(
                    DimClass.invariant(sub) if not unknown else DimClass.complex_()
                )
            dims = tuple(dims)
        else:
            dims = tuple(
                classify_subscript(sub, self.frame, inner, self.params)
                for sub in ref.index_affines()
            )
        self.out.append(
            RefAccess(ref.array, is_write, dims, lo, hi, text=str(ref))
        )

    def stmt(
        self,
        stmt: Stmt,
        inner: frozenset[str],
        lo: Optional[Affine],
        hi: Optional[Affine],
    ) -> None:
        if isinstance(stmt, Assign):
            for r in array_reads(stmt.expr):
                self.ref(r, False, inner, lo, hi)
            for node in stmt.expr.walk():
                if isinstance(node, ScalarRef):
                    self.out.append(_scalar_access(node.name, False))
            if isinstance(stmt.target, ArrayRef):
                self.ref(stmt.target, True, inner, lo, hi)
            else:
                self.out.append(_scalar_access(stmt.target.name, True))
        elif isinstance(stmt, Loop):
            self.body(stmt.body, inner | {stmt.index}, lo, hi)
        elif isinstance(stmt, Guard):
            if (
                self.frame is not None
                and stmt.index == self.frame
                and len(stmt.intervals) == 1
            ):
                iv = stmt.intervals[0]
                self.body(stmt.body, inner, iv.lower, iv.upper)
                # the complement of an interval is not an interval; stay
                # conservative for the else branch
                if stmt.else_body:
                    self.body(stmt.else_body, inner, lo, hi)
            else:
                self.body(stmt.body, inner, lo, hi)
                self.body(stmt.else_body, inner, lo, hi)
        elif isinstance(stmt, CallStmt):
            raise AnalysisError(
                f"footprint analysis requires inlined programs (call {stmt.proc!r})"
            )
        else:
            raise AnalysisError(f"cannot analyze {type(stmt).__name__}")

    def body(
        self,
        body: Sequence[Stmt],
        inner: frozenset[str],
        lo: Optional[Affine],
        hi: Optional[Affine],
    ) -> None:
        for stmt in body:
            self.stmt(stmt, inner, lo, hi)


def collect_loop_accesses(loop: Loop, params: Sequence[str]) -> list[RefAccess]:
    """Accesses of a loop, classified relative to its own index."""
    col = _Collector(loop.index, frozenset(params))
    col.body(loop.body, frozenset(), loop.lower.affine(), loop.upper.affine())
    return col.out


def collect_stmt_accesses(stmt: Stmt, params: Sequence[str]) -> list[RefAccess]:
    """Accesses of a loose (non-loop) statement: frame-free."""
    col = _Collector(None, frozenset(params))
    col.stmt(stmt, frozenset(), None, None)
    return col.out


def arrays_of(accesses: Sequence[RefAccess]) -> frozenset[str]:
    return frozenset(a.array for a in accesses)


def shares_data(a: Sequence[RefAccess], b: Sequence[RefAccess]) -> bool:
    """True when the two access sets touch any common array (or scalar).

    This is the paper's "shares data" test in ``GreedilyFuse``: the search
    for the closest data-sharing predecessor.  Read-read sharing counts —
    it is a fusion *opportunity* — which also guarantees that statements
    skipped over by the backward search share nothing and are safe to be
    overtaken.
    """
    return bool(arrays_of(a) & arrays_of(b))
