"""Static coherence and false-sharing analysis (line-granularity model).

The multicore reuse model (:mod:`repro.static.multicore`) predicts
capacity behaviour; this module predicts the *coherence* component a
multi-thread run adds on top: invalidation misses, classified as

* **true sharing** — two threads touch the same element, at least one
  writing it (the value actually flows between cores); a DOALL axis
  cannot true-share within one nest (that is what the race analyzer
  proves), so true sharing is a *cross-nest* phenomenon: the producing
  nest was partitioned over a different axis than the consumer;
* **false sharing** — two threads touch *distinct* elements that live
  on the same cache line; the line ping-pongs even though no value
  flows.  The canonical cure is padding the leading dimension to a
  whole number of lines, which the R520 lint suggests.

The analyzer owns no access enumeration and no protocol automaton.  It
is a pipeline over the two shared ones: **the** multi-thread enumerator
(``repro.interp.interleave`` — the production tracer, codegen's
``NestTracer``, run chunk by chunk under the shared
schedule machinery, :mod:`repro.static.schedule`, and
merged by the round-robin drain contract), then **the** MSI automaton
(:func:`repro.memsim.coherence.simulate_msi`), then a true/false-sharing
classification of the automaton's invalidation misses by numpy
group-bys.  Its counts therefore equal the dynamic oracle's by
construction; what it adds is the classification, the witnesses and
the :data:`DEFAULT_MAX_ACCESSES` budget (DESIGN §10).

Import direction: the tracer, ``repro.interp`` and ``repro.memsim`` are
imported inside :func:`analyze_coherence`, and
``repro.interp.interleave`` imports ``repro.static`` lazily too, so
``import repro.static`` loads none of them and works before or after
``import repro.interp``.

Witnesses are concrete: thread pair, the two global element keys and
their offsets within the shared line, and the loop-variable bindings of
the two colliding iterations (recovered by a bounded
:class:`~repro.lang.Walk` of each thread's schedule chunks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

import numpy as np

from ..lang import ArrayRef, Assign, Program, Walk
from ..lang.errors import AnalysisError
from ..lang.lowering import linearize
from ..obs import metrics, span
from .parallelism import ParallelismProfile, analyze_parallelism, bind_params
from .schedule import parse_schedule, schedule_chunks

if TYPE_CHECKING:
    from ..codegen.tracer import NestTracer

#: enumeration ceiling: programs whose modeled access count exceeds this
#: raise (callers degrade gracefully — the tuner falls back to the
#: capacity-only objective)
DEFAULT_MAX_ACCESSES = 8_000_000

#: how many sharing witnesses the profile keeps
MAX_WITNESSES = 8

#: iteration budget for recovering a witness's loop-variable bindings
_WITNESS_WALK_CAP = 250_000


# -- result types -------------------------------------------------------------


@dataclass(frozen=True)
class SharingWitness:
    """One concrete cross-thread sharing event on one cache line."""

    array: str
    line: int  # global line id (global key // line_elems)
    kind: str  # "true" | "false"
    thread_a: int  # the thread that held the line first
    thread_b: int  # the thread whose access invalidated / missed
    elem_a: int  # global element key thread_a touched
    elem_b: int  # global element key thread_b touched
    offset_a: int  # element offset of elem_a within the line
    offset_b: int
    #: loop-variable bindings of the two iterations (empty when the
    #: bounded recovery walk did not reach the access)
    iter_a: tuple[tuple[str, int], ...] = ()
    iter_b: tuple[tuple[str, int], ...] = ()

    def render(self) -> str:
        def env(bindings: tuple[tuple[str, int], ...]) -> str:
            if not bindings:
                return "(?)"
            return "(" + ", ".join(f"{k}={v}" for k, v in bindings) + ")"

        what = (
            "same element"
            if self.kind == "true"
            else f"distinct elements +{self.offset_a}/+{self.offset_b}"
        )
        return (
            f"{self.kind} sharing on {self.array} line {self.line}: "
            f"t{self.thread_a} @{env(self.iter_a)} vs "
            f"t{self.thread_b} @{env(self.iter_b)} — {what}"
        )


@dataclass(frozen=True)
class ArraySharing:
    """Per-array sharing summary at line granularity."""

    array: str
    shared_lines: int  # lines touched by >= 2 threads
    true_lines: int  # shared lines with a cross-thread element write
    false_lines: int  # shared+written lines with disjoint elements
    invalidations: int
    true_invalidations: int
    false_invalidations: int


@dataclass(frozen=True)
class CoherenceProfile:
    """Predicted coherence behaviour of one multi-thread execution."""

    program_name: str
    params: tuple[tuple[str, int], ...]
    threads: int
    schedule: str
    steps: int
    line_elems: int
    line_bytes: int
    parallel_nests: tuple[int, ...]
    accesses: int
    #: per-thread compulsory line misses (first touches)
    cold: tuple[int, ...]
    #: per-thread invalidation misses
    invalidations: tuple[int, ...]
    #: writes that invalidated at least one other thread's copy
    upgrades: int
    witnesses: tuple[SharingWitness, ...]
    #: every array name, in declaration order
    names: tuple[str, ...]
    #: the sharing classification, run on the first read of
    #: :attr:`arrays` (a search reads only the invalidation counts)
    classify: Callable[[], tuple[ArraySharing, ...]] = field(
        repr=False, compare=False
    )

    @cached_property
    def arrays(self) -> tuple[ArraySharing, ...]:
        """Per-array sharing rows, for the arrays with a shared line."""
        return self.classify()

    @cached_property
    def screened_out(self) -> tuple[str, ...]:
        """Line-private arrays: none of their lines is touched by two
        threads."""
        return tuple(sorted(set(self.names) - {a.array for a in self.arrays}))

    @property
    def total_cold(self) -> int:
        return int(sum(self.cold))

    @property
    def total_invalidations(self) -> int:
        return int(sum(self.invalidations))

    @property
    def true_invalidations(self) -> int:
        return sum(a.true_invalidations for a in self.arrays)

    @property
    def false_invalidations(self) -> int:
        return sum(a.false_invalidations for a in self.arrays)

    def sharing_arrays(self) -> tuple[ArraySharing, ...]:
        return tuple(a for a in self.arrays if a.shared_lines)

    def render(self) -> str:
        size = ", ".join(f"{k}={v}" for k, v in self.params)
        lines = [
            f"coherence prediction: {self.program_name} at {size} — "
            f"{self.threads} threads, {self.schedule} schedule, "
            f"{self.line_bytes}B lines",
            f"  accesses: {self.accesses} "
            f"(cold lines: {self.total_cold}, "
            f"invalidation misses: {self.total_invalidations}, "
            f"upgrades: {self.upgrades})",
            f"  invalidations per thread: "
            f"{', '.join(str(v) for v in self.invalidations)}",
        ]
        shared = self.sharing_arrays()
        if shared:
            lines.append("  shared arrays:")
            for a in sorted(
                shared, key=lambda s: -s.invalidations
            ):
                lines.append(
                    f"    {a.array}: {a.shared_lines} shared lines "
                    f"({a.true_lines} true, {a.false_lines} false), "
                    f"{a.invalidations} invalidations "
                    f"({a.true_invalidations} true, "
                    f"{a.false_invalidations} false)"
                )
        else:
            lines.append("  no cross-thread line sharing")
        if self.screened_out:
            lines.append(
                f"  line-private arrays: {', '.join(self.screened_out)}"
            )
        for w in self.witnesses:
            lines.append(f"  witness: {w.render()}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "program": self.program_name,
            "params": dict(self.params),
            "threads": self.threads,
            "schedule": self.schedule,
            "steps": self.steps,
            "line_bytes": self.line_bytes,
            "accesses": self.accesses,
            "cold": list(self.cold),
            "invalidations": list(self.invalidations),
            "total_invalidations": self.total_invalidations,
            "true_invalidations": self.true_invalidations,
            "false_invalidations": self.false_invalidations,
            "upgrades": self.upgrades,
            "arrays": [
                {
                    "array": a.array,
                    "shared_lines": a.shared_lines,
                    "true_lines": a.true_lines,
                    "false_lines": a.false_lines,
                    "invalidations": a.invalidations,
                    "true_invalidations": a.true_invalidations,
                    "false_invalidations": a.false_invalidations,
                }
                for a in self.arrays
            ],
            "witnesses": [w.render() for w in self.witnesses],
            "screened_out": list(self.screened_out),
        }


# -- sharing classification ---------------------------------------------------


def _distinct_threads(
    labels: np.ndarray, tids: np.ndarray, threads: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(unique labels, number of distinct threads that touched each)``."""
    pairs = np.unique(labels * threads + tids)
    return np.unique(pairs // threads, return_counts=True)


def _earliest_other(
    labels: np.ndarray,
    tids: np.ndarray,
    threads: int,
    among: np.ndarray,
    at: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """For every access position in ``at``: ``(position, thread)`` of the
    earliest access among positions ``among`` that carries the same
    label but was issued by a different thread; position
    ``len(labels)`` where there is none."""
    pairs, first = np.unique(
        labels[among] * threads + tids[among], return_index=True
    )
    first = among[first]  # first position of every (label, thread) pair
    order = np.lexsort((first, pairs // threads))
    # two sentinel rows keep ``row + 1`` addressable and never match
    label = np.append(pairs[order] // threads, [-1, -1])
    thread = np.append(pairs[order] % threads, [-1, -1])
    first = np.append(first[order], [len(labels)] * 2)
    row = np.searchsorted(label[:-2], labels[at])
    row += (label[row] == labels[at]) & (thread[row] == tids[at])
    hit = label[row] == labels[at]
    return np.where(hit, first[row], len(labels)), thread[row]


def _true_sharing(
    keys: np.ndarray,
    writes: np.ndarray,
    tids: np.ndarray,
    threads: int,
    inv: np.ndarray,
) -> np.ndarray:
    """Per invalidation miss (positions ``inv``): true sharing when
    another thread wrote the very element before, false when only its
    line neighbours."""
    other_write, _ = _earliest_other(
        keys, tids, threads, np.flatnonzero(writes), inv
    )
    return other_write < inv


def _array_summaries(
    names: Sequence[str],
    bounds: np.ndarray,
    line_elems: int,
    keys: np.ndarray,
    writes: np.ndarray,
    tids: np.ndarray,
    threads: int,
    inv: np.ndarray,
    is_true: Optional[np.ndarray],
) -> tuple[ArraySharing, ...]:
    """Per-array sharing rows from the enumerated accesses (``keys``,
    ``writes``, ``tids``) and their invalidation misses (positions
    ``inv``, split by ``is_true``, computed here when ``None``).  Array
    ``k`` owns keys ``[bounds[k], bounds[k + 1])``; a line belongs to
    the array of its first element."""
    if is_true is None:
        is_true = _true_sharing(keys, writes, tids, threads, inv)
    lines = keys // line_elems
    line_ids, touching = _distinct_threads(lines, tids, threads)
    shared = line_ids[touching >= 2]
    # a shared line is truly shared when one of its elements is written
    # and touched by two threads, falsely shared when merely written
    elem_ids, touching = _distinct_threads(keys, tids, threads)
    true_elems = elem_ids[(touching >= 2) & np.isin(elem_ids, keys[writes])]
    true_line = np.isin(shared, true_elems // line_elems)
    false_line = ~true_line & np.isin(shared, lines[writes])
    # every invalidated line is shared: its victim and its writer differ
    inv_lines = keys[inv] // line_elems

    def per_array(line_ids: np.ndarray) -> np.ndarray:
        owner = np.searchsorted(bounds, line_ids * line_elems, side="right") - 1
        return np.bincount(owner, minlength=len(names))

    table = np.stack(
        [
            per_array(shared),
            per_array(shared[true_line]),
            per_array(shared[false_line]),
            per_array(inv_lines),
            per_array(inv_lines[is_true]),
            per_array(inv_lines[~is_true]),
        ],
        axis=1,
    )
    return tuple(
        ArraySharing(name, *table[k].tolist())
        for name, k in sorted((n, k) for k, n in enumerate(names))
        if table[k, 0]
    )


# -- witness recovery ---------------------------------------------------------


class _Stop(Exception):
    """Ends the witness walk: the element found, or the cap passed."""


class _FirstTouch(Walk):
    """One thread's first access to element ``elem`` of array ``array_id``
    over one step: parallel nests walked over the thread's chunks as the
    schedule first deals them, serial nests whole on thread 0 only.  At
    most :data:`_WITNESS_WALK_CAP` assignment instances are checked."""

    def __init__(self, tracer: NestTracer, array_id: int, elem: int) -> None:
        super().__init__(tracer.program, tracer.params)
        decl = self.program.arrays[array_id]
        self.array, self.strides, self.elem = decl.name, decl.strides(self.env), elem
        self.tracer, self.left = tracer, _WITNESS_WALK_CAP  # instances left

    def record(self, form):
        if isinstance(form, ArrayRef):
            return (form, *linearize(form, self.strides, self.fixed))
        return super().record(form)

    def assign(self, stmt: Assign) -> None:
        refs = (  # lazy: folded on the statement's first instance only
            r for part in (stmt.expr, stmt.target) for r in part.walk()
            if isinstance(r, ArrayRef) and r.array == self.array
        )
        self.left -= 1
        if self.left < 0 or self.elem in self.values(self.fold(stmt, refs)):
            raise _Stop

    def lookup(
        self, parallel: frozenset[int], threads: int, schedule: str, thread: int
    ) -> tuple[tuple[str, int], ...]:
        """The loop-variable bindings of the first access, outermost
        first; ``()`` when none of the instances checked touches it."""
        parallel = parallel if threads > 1 else frozenset()
        try:
            for k, stmt in enumerate(self.program.body):
                outer = self.tracer.outer_bounds(k) if k in parallel else None
                if outer is not None:
                    for lo, hi in schedule_chunks(*outer, threads, schedule)[thread]:
                        self.walk_span(stmt, lo, hi)
                elif thread == 0:
                    self.walk_stmt(stmt)
        except _Stop:
            return tuple(self.iters) if self.left >= 0 else ()
        return ()


def _witnesses(
    tracer: NestTracer,
    parallel: frozenset[int],
    threads: int,
    schedule: str,
    names: Sequence[str],
    bounds: np.ndarray,
    line_elems: int,
    keys: np.ndarray,
    writes: np.ndarray,
    tids: np.ndarray,
    inv: np.ndarray,
    is_true: np.ndarray,
) -> tuple[SharingWitness, ...]:
    """Concrete witnesses for the first :data:`MAX_WITNESSES` lines that
    take an explainable invalidation miss (positions ``inv``)."""
    lines = keys // line_elems
    # a false-sharing miss is explained by the other thread that touched
    # the line first; a true-sharing one by the lowest other writer
    touched, first_other = _earliest_other(
        lines, tids, threads, np.arange(len(lines)), inv
    )
    explainable = is_true | (touched < inv)

    def array_of(key: int) -> int:
        return int(np.searchsorted(bounds, key, side="right")) - 1

    def iteration(thread: int, key: int) -> tuple[tuple[str, int], ...]:
        k = array_of(key)
        walk = _FirstTouch(tracer, k, key - int(bounds[k]))
        return walk.lookup(parallel, threads, schedule, thread)

    _, firsts = np.unique(lines[inv[explainable]], return_index=True)
    out = []
    for j in np.flatnonzero(explainable)[np.sort(firsts)[:MAX_WITNESSES]]:
        i = inv[j]
        line, elem_b, tb = int(lines[i]), int(keys[i]), int(tids[i])
        if is_true[j]:
            wrote = (keys[:i] == elem_b) & writes[:i] & (tids[:i] != tb)
            ta, elem_a = int(tids[:i][wrote].min()), elem_b
        else:
            ta = int(first_other[j])
            held = (lines[:i] == line) & (tids[:i] == ta)
            elem_a = int(keys[:i][held][-1])
            if elem_a == elem_b:
                # that thread only held the victim's own element: name
                # the neighbouring write that invalidated the line (no
                # other thread wrote ``elem_b``, or this were true sharing)
                k = np.flatnonzero(
                    (lines[:i] == line) & writes[:i]
                    & (tids[:i] != tb) & (keys[:i] != elem_b)
                )[-1]
                ta, elem_a = int(tids[k]), int(keys[k])
        out.append(
            SharingWitness(
                array=names[array_of(elem_a)],
                line=line,
                kind="true" if is_true[j] else "false",
                thread_a=ta,
                thread_b=tb,
                elem_a=elem_a,
                elem_b=elem_b,
                offset_a=elem_a % line_elems,
                offset_b=elem_b % line_elems,
                iter_a=iteration(ta, elem_a),
                iter_b=iteration(tb, elem_b),
            )
        )
    return tuple(out)


# -- entry point --------------------------------------------------------------


def analyze_coherence(
    program: Program,
    params: Optional[Mapping[str, int]] = None,
    threads: int = 4,
    schedule: str = "static",
    steps: int = 1,
    parallelism: Optional[ParallelismProfile] = None,
    witnesses: bool = True,
) -> CoherenceProfile:
    """Predict the coherence behaviour of a ``threads``-way execution.

    The one multi-thread enumerator
    (:func:`repro.interp.interleave.interleaved_nests`, drained under the
    :data:`DEFAULT_MAX_ACCESSES` budget), then the one MSI automaton
    (:func:`repro.memsim.coherence.simulate_msi`) at L1-line granularity,
    then the true/false-sharing classification of its invalidation
    misses — with ``witnesses=False`` only once
    :attr:`CoherenceProfile.arrays` is read.
    """
    # lazy, like repro.interp's imports of repro.static: either package
    # can be imported first
    from ..codegen.tracer import NestTracer
    from ..interp.interleave import concat_columns, interleaved_nests
    from ..memsim.coherence import check_threads, simulate_msi
    from ..memsim.geometry import ELEM_BYTES, L1_LINE_BYTES

    check_threads(threads)
    parse_schedule(schedule)
    line_elems = L1_LINE_BYTES // ELEM_BYTES
    env = bind_params(program, params)
    with span(
        "coherence-analyze",
        program=program.name,
        threads=threads,
        schedule=schedule,
    ) as sp:
        if parallelism is None:
            parallelism = analyze_parallelism(program, params)
        parallel = frozenset(parallelism.parallel_nests())
        tracer = NestTracer(program, env)
        names = [a.name for a in program.arrays]
        # arrays sit back to back: array k owns [bounds[k], bounds[k+1])
        bounds = np.concatenate(([0], np.cumsum(tracer.sizes)))
        nests = []
        total = 0
        for columns in interleaved_nests(
            tracer, threads, steps, schedule, parallel, sp
        ):
            nests.append(columns)
            total += len(columns[0])
            if total > DEFAULT_MAX_ACCESSES:
                raise AnalysisError(
                    f"coherence enumeration exceeds {DEFAULT_MAX_ACCESSES} "
                    f"accesses at this size; analyze a smaller instance"
                )
        keys, writes, tids = concat_columns(nests)
        msi = simulate_msi(keys // line_elems, writes, tids, threads)
        inv = np.flatnonzero(msi.invalidation_mask)
        is_true = None
        witness_objs = ()
        if witnesses:
            is_true = _true_sharing(keys, writes, tids, threads, inv)
            witness_objs = _witnesses(
                tracer, parallel, threads, schedule, names, bounds,
                line_elems, keys, writes, tids, inv, is_true,
            )
        metrics.inc("analysis.coherence.profiles")
        return CoherenceProfile(
            program_name=program.name,
            params=tuple(sorted(env.items())),
            threads=threads,
            schedule=schedule,
            steps=steps,
            line_elems=line_elems,
            line_bytes=L1_LINE_BYTES,
            parallel_nests=tuple(sorted(parallel)),
            accesses=len(keys),
            cold=tuple(msi.cold.tolist()),
            invalidations=tuple(msi.invalidations.tolist()),
            upgrades=msi.total_upgrades,
            witnesses=witness_objs,
            names=tuple(names),
            classify=partial(
                _array_summaries, names, bounds, line_elems,
                keys, writes, tids, threads, inv, is_true,
            ),
        )
