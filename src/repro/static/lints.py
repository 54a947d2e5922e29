"""Predictive locality lints (the ``S3xx`` diagnostic family).

The static profile turns into actionable advice *before* any transform
runs:

``S301 evadable-reuse``
    a reuse class whose symbolic distance grows with the input size —
    the reuses the paper's whole program is about evading (§2.1);
``S302 fusion-would-contract-distance``
    a growing cross-nest reuse between two top-level nests whose
    outermost loops have provably equal bounds — exactly the shape
    reuse-based fusion (§2.3) collapses to a loop-carried distance;
``S303 regrouping-candidate``
    a nest streaming several arrays with long-distance reuse — the
    access pattern data regrouping (§3) interleaves.

All codes flow through the shared :class:`~repro.verify.diagnostics.
DiagnosticBag`, so they render, serialize, and baseline exactly like the
``V``/``L`` families.
"""

from __future__ import annotations

from typing import Union

from ..lang import Assumptions, Program
from ..verify.diagnostics import DiagnosticBag
from .profile import StaticProfile, analyze_program


def lint_profile(profile: StaticProfile) -> DiagnosticBag:
    """Emit the S3xx family for an already-computed profile."""
    bag = DiagnosticBag()
    name = profile.model.program.name
    evadable = sorted(profile.symbolic_evadable())

    # S301: one warning per evadable class, capped, then a summary
    def s301(rid: int) -> None:
        cp = profile.classes[rid]
        comp = profile.dominant_component(cp)
        assert comp is not None
        bag.warning(
            "S301",
            f"evadable reuse: {cp.ref.text} re-touches data at a distance "
            f"that grows with the input size ({comp.distance})",
            where=f"{name}: nest {cp.ref.nest}",
            ref_id=rid,
            kind=comp.kind,
            distance=str(comp.distance),
        )

    bag.capped(
        "S301", evadable, s301,
        f"evadable reuse classes ({len(evadable)} total of {len(profile.classes)})",
        where=name,
    )

    # S302: growing cross-nest reuse between fusable nests
    seen_pairs: set[tuple[int, int, str]] = set()
    for rid in evadable:
        cp = profile.classes[rid]
        for comp in cp.components:
            if comp.kind != "cross_nest" or not comp.distance.grows():
                continue
            if comp.source is None:
                continue
            src_nest = profile.model.refs[comp.source].nest
            key = (src_nest, cp.ref.nest, cp.ref.array)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            if not _outer_bounds_equal(profile, src_nest, cp.ref.nest):
                continue
            bag.warning(
                "S302",
                f"fusing nests {src_nest} and {cp.ref.nest} would contract "
                f"the reuse of {cp.ref.array} from {comp.distance} to a "
                "loop-carried distance",
                where=f"{name}: nests {src_nest}->{cp.ref.nest}",
                array=cp.ref.array,
                src_nest=src_nest,
                dst_nest=cp.ref.nest,
            )

    # S303: nests streaming many arrays with growing-distance reuse
    for k, nest in enumerate(profile.model.nests):
        arrays = sorted({r.array for r in nest})
        if len(arrays) < 3:
            continue
        if not any(r.ref_id in evadable for r in nest):
            continue
        bag.info(
            "S303",
            f"nest {k} streams {len(arrays)} arrays "
            f"({', '.join(arrays[:6])}{'...' if len(arrays) > 6 else ''}); "
            "a regrouped layout would fetch them in one stream",
            where=f"{name}: nest {k}",
            nest=k,
            arrays=len(arrays),
        )
    return bag


def _outer_bounds_equal(profile: StaticProfile, a: int, b: int) -> bool:
    """Do two nests' outermost loops have provably equal bounds?"""
    ref_a = next(iter(profile.model.nests[a]), None)
    ref_b = next(iter(profile.model.nests[b]), None)
    if ref_a is None or ref_b is None:
        return False
    if not ref_a.scope or not ref_b.scope:
        return False
    ca, cb = ref_a.scope[0], ref_b.scope[0]
    return (
        ca.lo.compare(cb.lo, profile.assume) == 0
        and ca.hi.compare(cb.hi, profile.assume) == 0
    )


def lint_static(
    program: Program,
    steps: int = 1,
    assume: Union[int, Assumptions, None] = None,
) -> DiagnosticBag:
    """Analyze ``program`` statically and return its S3xx diagnostics."""
    return lint_profile(analyze_program(program, steps=steps, assume=assume))
