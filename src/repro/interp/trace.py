"""Memory access traces.

An :class:`AccessTrace` is the common currency between the trace
generator, the locality analyses, the reuse-driven execution study, and
the cache simulator.  It is a struct-of-arrays over numpy so multi-million
access traces stay compact and the analyses can vectorize.

Canonical element numbering
---------------------------
``elems[t]`` is the *column-major* linear index of the accessed element
within its array (first subscript fastest — Fortran order, matching the
paper).  This numbering is purely canonical: actual memory addresses are
produced later by composing the trace with a
:class:`repro.core.regroup.layout.Layout`, which is how data regrouping
changes cache behaviour without touching the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

#: accesses the measuring chain holds at once: tracers split top-level
#: nests into outer-loop spans of about this many, the harness batches
#: them to chunks of it, and the memory hierarchy simulates arrays in
#: slices of it (2**17–2**18 measured fastest; smaller chunks pay the
#: levels' state replay more often, larger ones leave the CPU caches)
CHUNK_ACCESSES = 2**18


@dataclass(frozen=True)
class RefInfo:
    """Static description of one array reference in the source."""

    ref_id: int
    stmt_id: int
    array: str
    is_write: bool
    text: str


@dataclass
class AccessTrace:
    """A sequence of memory accesses in execution order."""

    array_names: tuple[str, ...]
    array_ids: np.ndarray  # int32, index into array_names
    elems: np.ndarray  # int64, canonical column-major element index
    writes: np.ndarray  # bool
    ref_ids: np.ndarray  # int32, static reference ids
    instr_ids: Optional[np.ndarray] = None  # int64, dynamic instruction ids
    refs: tuple[RefInfo, ...] = ()
    array_sizes: tuple[int, ...] = ()  # elements per array, aligned with names

    def __len__(self) -> int:
        return len(self.elems)

    def global_keys(self) -> np.ndarray:
        """A single int64 key per access, unique per (array, element).

        Arrays are laid out back-to-back in canonical element order, so the
        key doubles as the address under the identity layout.
        """
        bases = np.zeros(len(self.array_names) + 1, dtype=np.int64)
        np.cumsum(np.asarray(self.array_sizes, dtype=np.int64), out=bases[1:])
        return bases[self.array_ids] + self.elems

    def slice(self, start: int, stop: int) -> "AccessTrace":
        return AccessTrace(
            array_names=self.array_names,
            array_ids=self.array_ids[start:stop],
            elems=self.elems[start:stop],
            writes=self.writes[start:stop],
            ref_ids=self.ref_ids[start:stop],
            instr_ids=None if self.instr_ids is None else self.instr_ids[start:stop],
            refs=self.refs,
            array_sizes=self.array_sizes,
        )

    def reordered(self, order: np.ndarray) -> "AccessTrace":
        """A new trace with accesses permuted into ``order``."""
        return AccessTrace(
            array_names=self.array_names,
            array_ids=self.array_ids[order],
            elems=self.elems[order],
            writes=self.writes[order],
            ref_ids=self.ref_ids[order],
            instr_ids=None if self.instr_ids is None else self.instr_ids[order],
            refs=self.refs,
            array_sizes=self.array_sizes,
        )

    def iter_accesses(self) -> Iterator[tuple[str, int, bool]]:
        """Slow row-wise view, for tests and tiny examples only."""
        for aid, elem, wr in zip(self.array_ids, self.elems, self.writes):
            yield self.array_names[aid], int(elem), bool(wr)


def concat_traces(traces: Sequence[AccessTrace]) -> AccessTrace:
    """Consecutive pieces of one program's trace, as one trace (the one
    piece itself when there is only one)."""
    if len(traces) == 1:
        return traces[0]
    first = traces[0]
    builder = TraceBuilder(
        first.array_names,
        first.array_sizes,
        first.refs,
        with_instr=first.instr_ids is not None,
    )
    for t in traces:
        builder.append(t.array_ids, t.elems, t.writes, t.ref_ids, t.instr_ids)
    return builder.build()


class TraceBuilder:
    """Accumulates chunks of accesses and finalizes an :class:`AccessTrace`."""

    def __init__(
        self,
        array_names: Sequence[str],
        array_sizes: Sequence[int],
        refs: Sequence[RefInfo],
        with_instr: bool = False,
    ) -> None:
        self.array_names = tuple(array_names)
        self.array_sizes = tuple(int(s) for s in array_sizes)
        self.refs = tuple(refs)
        self.with_instr = with_instr
        self._array_ids: list[np.ndarray] = []
        self._elems: list[np.ndarray] = []
        self._writes: list[np.ndarray] = []
        self._ref_ids: list[np.ndarray] = []
        self._instr_ids: list[np.ndarray] = []
        self.instr_count = 0

    def append(
        self,
        array_ids: np.ndarray,
        elems: np.ndarray,
        writes: np.ndarray,
        ref_ids: np.ndarray,
        instr_ids: Optional[np.ndarray] = None,
    ) -> None:
        self._array_ids.append(np.asarray(array_ids, dtype=np.int32))
        self._elems.append(np.asarray(elems, dtype=np.int64))
        self._writes.append(np.asarray(writes, dtype=bool))
        self._ref_ids.append(np.asarray(ref_ids, dtype=np.int32))
        if self.with_instr:
            assert instr_ids is not None
            self._instr_ids.append(np.asarray(instr_ids, dtype=np.int64))

    def build(self) -> AccessTrace:
        def cat(chunks: list[np.ndarray], dtype) -> np.ndarray:
            if not chunks:
                return np.empty(0, dtype=dtype)
            return np.concatenate(chunks)

        return AccessTrace(
            array_names=self.array_names,
            array_ids=cat(self._array_ids, np.int32),
            elems=cat(self._elems, np.int64),
            writes=cat(self._writes, bool),
            ref_ids=cat(self._ref_ids, np.int32),
            instr_ids=cat(self._instr_ids, np.int64) if self.with_instr else None,
            refs=self.refs,
            array_sizes=self.array_sizes,
        )
