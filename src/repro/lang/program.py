"""Program-level AST: array declarations, procedures, whole programs.

A :class:`Program` is the unit every transformation consumes and produces.
Arrays use 1-based inclusive Fortran-style indexing; extents are affine in
the symbolic parameters.  The *declared* order of subscripts carries no
layout meaning — memory placement is owned by
:class:`repro.core.regroup.layout.Layout`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Optional, Sequence

from .affine import Affine
from .errors import ValidationError
from .expr import Expr, wrap
from .stmt import Loop, Stmt, as_body, loop_nest_depth


@dataclass(frozen=True)
class SliceOrigin:
    """Provenance of a split array: which slice of which array it was.

    ``parent`` chains through repeated splits back to the original
    declaration, letting the interpreter reconstruct identical initial
    contents for split and unsplit versions of a program.
    """

    name: str  # the array that was split
    dim: int  # 0-based dimension that was eliminated
    index: int  # 1-based slice taken
    extent: int  # size of the eliminated dimension
    parent: Optional["SliceOrigin"] = None


@dataclass(frozen=True)
class ArrayDecl:
    """Declaration of a global array: name and per-dimension extents.

    ``extents[k]`` is the size of dimension ``k`` (valid subscripts are
    ``1 .. extents[k]``), affine in program parameters.  ``origin`` records
    the array this one was split from (array splitting bookkeeping).
    """

    name: str
    extents: tuple[Expr, ...]
    elem_size: int = 8  # bytes; double precision throughout, like the paper
    origin: Optional[str] = field(default=None, compare=False)
    #: provenance when this array came from array splitting — lets the
    #: interpreter give split arrays the same initial contents as the
    #: original slice, so "split output == original output" is a real
    #: bit-level check.
    origin_slice: Optional[SliceOrigin] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "extents", tuple(wrap(e) for e in self.extents))
        if not self.extents:
            raise ValidationError(f"array {self.name!r} needs at least 1 dimension")

    @property
    def ndim(self) -> int:
        return len(self.extents)

    def extent_affines(self) -> tuple[Affine, ...]:
        return tuple(e.affine() for e in self.extents)

    def shape(self, params: Mapping[str, int]) -> tuple[int, ...]:
        return tuple(int(e.evaluate(params)) for e in self.extent_affines())

    def strides(self, params: Mapping[str, int]) -> tuple[int, ...]:
        """Column-major element strides (first subscript fastest) — the
        canonical element numbering every tracer and analyzer shares."""
        strides = []
        acc = 1
        for extent in self.shape(params):
            strides.append(acc)
            acc *= extent
        return tuple(strides)

    def __str__(self) -> str:
        dims = ", ".join(str(e) for e in self.extents)
        return f"real {self.name}[{dims}]"


@dataclass(frozen=True)
class Procedure:
    """A named procedure (substrate for the paper's inlining pass).

    Formal parameters are substituted textually at inline time; there is no
    separate calling convention because the paper inlines everything before
    analysis begins.
    """

    name: str
    formals: tuple[str, ...]
    body: tuple[Stmt, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", as_body(self.body))


@dataclass(frozen=True)
class Program:
    """A whole program: parameters, array/scalar declarations, body.

    The body is a flat sequence of loops and non-loop statements — the shape
    the fusion algorithm assumes (paper Fig. 5's first assumption).
    """

    name: str
    params: tuple[str, ...]
    arrays: tuple[ArrayDecl, ...]
    body: tuple[Stmt, ...]
    scalars: tuple[str, ...] = ()
    procedures: tuple[Procedure, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", as_body(self.body))
        seen: set[str] = set()
        for a in self.arrays:
            if a.name in seen:
                raise ValidationError(f"duplicate array declaration {a.name!r}")
            seen.add(a.name)

    # -- lookup -------------------------------------------------------------

    def array(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(name)

    def array_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.arrays)

    def procedure(self, name: str) -> Procedure:
        for p in self.procedures:
            if p.name == name:
                return p
        raise KeyError(name)

    # -- rebuilding -----------------------------------------------------------

    def with_body(self, body: Sequence[Stmt]) -> "Program":
        return replace(self, body=as_body(body))

    # -- statistics (Fig. 9 substrate) ---------------------------------------

    def walk(self) -> Iterator[Stmt]:
        for s in self.body:
            yield from s.walk()

    def top_level_loops(self) -> list[Loop]:
        return [s for s in self.body if isinstance(s, Loop)]

    def all_loops(self) -> list[Loop]:
        return [s for s in self.walk() if isinstance(s, Loop)]

    def loop_nest_count(self) -> int:
        """Number of top-level loop nests."""
        return len(self.top_level_loops())

    def loop_count(self) -> int:
        """Total number of loops at all levels."""
        return len(self.all_loops())

    def nest_depth_range(self) -> tuple[int, int]:
        depths = [loop_nest_depth(nest) for nest in self.top_level_loops()]
        if not depths:
            return (0, 0)
        return (min(depths), max(depths))

    def array_count(self) -> int:
        return len(self.arrays)

    def stats(self) -> dict:
        lo, hi = self.nest_depth_range()
        return {
            "name": self.name,
            "loops": self.loop_count(),
            "loop_nests": self.loop_nest_count(),
            "nest_levels": (lo, hi),
            "arrays": self.array_count(),
        }

    def __str__(self) -> str:
        return (
            f"program {self.name}: {self.loop_count()} loops in "
            f"{self.loop_nest_count()} nests, {self.array_count()} arrays"
        )


def check_params(
    program: Program, params: Mapping[str, int], complete: bool = True
) -> dict[str, int]:
    """``program``'s parameters as bound in ``params``: each a positive
    int, and every one bound unless ``complete`` is False."""
    bound: dict[str, int] = {}
    for name in program.params:
        if name not in params:
            if complete:
                raise ValidationError(f"parameter {name!r} is unbound")
            continue
        value = int(params[name])
        if value <= 0:
            raise ValidationError(f"parameter {name!r} must be positive, got {value}")
        bound[name] = value
    return bound
