"""Race reports and DOALL certification (the ``R5xx`` family).

The static parallelism analyzer classifies every loop axis as DOALL,
reduction, or serial; this module turns those verdicts into
diagnostics:

``R501 array-race``
    a serial axis whose witness is an array-element conflict — the
    concrete iteration pair is embedded in the message;
``R502 scalar-dependence``
    a serial axis serialized by a scalar (usually privatizable);
``R503 reduction``
    an informational marker for axes that parallelize with a privatized
    accumulator;
``R510 doall-destroyed``
    a pass comparison: a top-level nest's outermost axis was parallel
    before the pass and serial after it (the §2.3 fusion trade-off);
``R520 false-sharing``
    the static coherence analyzer predicts invalidation misses on lines
    where threads touch *distinct* elements — with a padding suggestion
    when the leading dimension is not line-aligned;
``R521 true-sharing``
    heavy cross-nest same-element exchange between threads;
``R522 schedule-sensitive``
    invalidation counts differ by a large factor across OpenMP
    schedules.

All codes flow through the shared :class:`DiagnosticBag`, so they
render, serialize, and baseline exactly like the ``V``/``L``/``S``
families.  The parallelism analyzer is imported lazily inside each
function (mirroring ``reuse_check``) to keep the verify <-> static
layering acyclic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from ..lang import Program
from .diagnostics import MAX_PER_CODE, DiagnosticBag

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from ..static.parallelism import AxisVerdict, ParallelismProfile


def _is_scalar_race(verdict: "AxisVerdict") -> bool:
    from ..static.parallelism import SCALAR_PREFIX

    w = verdict.witness
    return w is not None and w.array.startswith(SCALAR_PREFIX)


def lint_parallelism(profile: "ParallelismProfile") -> DiagnosticBag:
    """Emit the R50x family for an already-computed parallelism profile."""
    bag = DiagnosticBag()
    name = profile.program_name

    array_races = []
    scalar_races = []
    for v in profile.races:
        (scalar_races if _is_scalar_race(v) else array_races).append(v)

    def emit_races(code: str, races: list["AxisVerdict"], noun: str) -> None:
        def race(v: "AxisVerdict") -> None:
            detail = (
                v.witness.describe() if v.witness is not None else v.reason
            )
            bag.warning(
                code,
                f"axis {v.index!r} is serial ({noun}): {detail}",
                where=f"{name}: nest {v.nest} loop {'.'.join(v.path)}",
                nest=v.nest,
                axis=v.index,
                depth=v.depth,
                exact=v.exact,
            )

        bag.capped(
            code, races, race,
            f"serial axes with a {noun} ({len(races)} total)", where=name,
        )

    emit_races("R501", array_races, "array race")
    emit_races("R502", scalar_races, "scalar dependence")

    def reduction(v: "AxisVerdict") -> None:
        targets = ", ".join(v.reduction_targets) or "accumulator"
        bag.info(
            "R503",
            f"axis {v.index!r} is a reduction over {targets}; parallelize "
            "with a privatized accumulator and a combine step",
            where=f"{name}: nest {v.nest} loop {'.'.join(v.path)}",
            nest=v.nest,
            axis=v.index,
            targets=targets,
        )

    reductions = profile.by_verdict("reduction")
    bag.capped(
        "R503", reductions, reduction,
        f"reduction axes ({len(reductions)} total)", where=name,
    )
    return bag


def lint_races(
    program: Program,
    params: Optional[Mapping[str, int]] = None,
) -> DiagnosticBag:
    """Analyze ``program``'s parallelism and return its R50x diagnostics."""
    from ..static.parallelism import analyze_parallelism

    return lint_parallelism(analyze_parallelism(program, params))


def doall_preservation_check(
    before: Program,
    after: Program,
    pass_name: str = "",
    params: Optional[Mapping[str, int]] = None,
) -> DiagnosticBag:
    """Did a pass destroy a parallel (DOALL/reduction) outermost axis?

    Compares the parallelism profiles of ``before`` and ``after`` and
    emits ``R510`` when the count of top-level nests with a parallel
    outermost axis dropped — each newly-serial outermost axis in the
    transformed program is reported with its race witness.  Warnings
    only: serializing a loop is legal (fusion trades parallelism for
    reuse distance, paper §2.3), just worth surfacing.
    """
    from ..static.parallelism import analyze_parallelism

    bag = DiagnosticBag()
    p_before = analyze_parallelism(before, params)
    p_after = analyze_parallelism(after, params)
    n_before = len(p_before.parallel_nests())
    n_after = len(p_after.parallel_nests())
    if n_after >= n_before:
        return bag

    label = f"pass {pass_name!r}" if pass_name else "the pass"
    newly_serial = [
        v
        for v in p_after.verdicts
        if v.depth == 0 and v.verdict == "serial"
    ]
    for v in newly_serial[:MAX_PER_CODE]:
        detail = v.witness.describe() if v.witness is not None else v.reason
        bag.warning(
            "R510",
            f"{label} left only {n_after} of {n_before} parallel outer "
            f"axes; nest {v.nest} axis {v.index!r} is now serial: {detail}",
            where=f"{after.name}: nest {v.nest} loop {'.'.join(v.path)}",
            pass_name=pass_name,
            nest=v.nest,
            axis=v.index,
            parallel_before=n_before,
            parallel_after=n_after,
        )
    if not newly_serial:
        # parallel nests disappeared structurally (e.g. fused away)
        bag.warning(
            "R510",
            f"{label} reduced parallel top-level nests from {n_before} "
            f"to {n_after}",
            where=after.name,
            pass_name=pass_name,
            parallel_before=n_before,
            parallel_after=n_after,
        )
    return bag


# -- R52x: coherence and sharing ----------------------------------------------

#: invalidation-miss floor below which a sharing pattern is noise
R520_MIN_INVALIDATIONS = 4
R521_MIN_INVALIDATIONS = 4
#: R522 fires when schedules differ by this factor (and the worse one
#: clears the absolute floor)
R522_RATIO = 4.0
R522_MIN_INVALIDATIONS = 32

#: the alternate schedule R522 compares against — the finest static
#: chunking, which maximizes chunk-boundary sharing
R522_ALT_SCHEDULE = "static,1"


def _leading_pad(
    program: Program,
    array: str,
    line_elems: int,
    env: Mapping[str, int],
) -> str:
    """The padding suggestion for one array, or '' when already aligned."""
    for decl in program.arrays:
        if decl.name != array:
            continue
        extent = decl.shape(env)[0]
        if extent % line_elems == 0:
            return ""
        padded = -(-extent // line_elems) * line_elems
        return (
            f"pad {array}'s leading dimension from {extent} to {padded} "
            f"({line_elems} elements per line) to line-align the columns"
        )
    return ""


def lint_coherence(
    program: Program,
    params: Optional[Mapping[str, int]] = None,
    steps: int = 1,
) -> DiagnosticBag:
    """Emit the R52x sharing lints from the static coherence profile of
    :func:`~repro.static.analyze_coherence`'s default run (4 threads,
    ``static`` schedule), beside the :data:`R522_ALT_SCHEDULE` one.

    Advisory by design: programs outside the analyzer's affine subset
    (or too large to enumerate at the lint sizes) are skipped silently
    rather than failing the lint run.
    """
    from ..lang import AnalysisError
    from ..static.coherence import analyze_coherence
    from ..static.parallelism import analyze_parallelism

    bag = DiagnosticBag()
    try:
        # both schedules partition the same parallel nests
        parallelism = analyze_parallelism(program, params)
        profile = analyze_coherence(
            program, params, steps=steps, parallelism=parallelism
        )
    except AnalysisError:
        return bag
    name, threads, schedule = profile.program_name, profile.threads, profile.schedule

    by_array = {
        w.array: w for w in reversed(profile.witnesses)
    }  # first witness per array wins
    for a in profile.sharing_arrays():
        witness = by_array.get(a.array)
        if a.false_invalidations >= R520_MIN_INVALIDATIONS:
            pad = _leading_pad(
                program, a.array, profile.line_elems,
                dict(profile.params),
            )
            detail = (
                f" — e.g. {witness.render()}"
                if witness is not None and witness.kind == "false"
                else ""
            )
            fix = f"; fix: {pad}" if pad else ""
            bag.warning(
                "R520",
                f"{a.false_invalidations} predicted invalidation "
                f"misses from false sharing on {a.array!r} "
                f"({a.false_lines} lines, {threads} threads, "
                f"{schedule} schedule){detail}{fix}",
                where=f"{name}: array {a.array}",
                array=a.array,
                false_invalidations=a.false_invalidations,
                false_lines=a.false_lines,
                threads=threads,
                schedule=schedule,
            )
        if a.true_invalidations >= R521_MIN_INVALIDATIONS:
            detail = (
                f" — e.g. {witness.render()}"
                if witness is not None and witness.kind == "true"
                else ""
            )
            bag.warning(
                "R521",
                f"{a.true_invalidations} predicted invalidation misses "
                f"from true sharing on {a.array!r} ({a.true_lines} "
                f"lines, {threads} threads): threads exchange the same "
                f"elements across nests — realign the producing and "
                f"consuming partitions or fuse the nests{detail}",
                where=f"{name}: array {a.array}",
                array=a.array,
                true_invalidations=a.true_invalidations,
                true_lines=a.true_lines,
                threads=threads,
                schedule=schedule,
            )

    try:
        alt = analyze_coherence(
            program, params, threads=threads, schedule=R522_ALT_SCHEDULE,
            steps=steps, witnesses=False, parallelism=parallelism,
        )
    except AnalysisError:
        return bag
    lo, hi = sorted((profile.total_invalidations, alt.total_invalidations))
    if hi >= R522_MIN_INVALIDATIONS and hi >= R522_RATIO * max(lo, 1):
        bag.info(
            "R522",
            f"invalidation misses are schedule-sensitive: "
            f"{profile.total_invalidations} under {schedule!r} vs "
            f"{alt.total_invalidations} under "
            f"{R522_ALT_SCHEDULE!r} ({threads} threads) — choose "
            f"the schedule deliberately",
            where=name,
            schedule_a=schedule,
            invalidations_a=profile.total_invalidations,
            schedule_b=R522_ALT_SCHEDULE,
            invalidations_b=alt.total_invalidations,
            threads=threads,
        )
    return bag
