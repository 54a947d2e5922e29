"""The static reuse profile: a trace-free, size-parametric locality model.

:func:`analyze_program` builds the reference model
(:func:`~repro.static.model.build_model`), runs the attributor and wraps
the result in a :class:`StaticProfile` — a collection of per-reference
:class:`~repro.static.reuse.ClassProfile` objects whose counts and
distances are polynomials in the program parameters.  The profile then
*evaluates* at any concrete input size:

- :meth:`StaticProfile.histogram` produces a log₂-binned
  :class:`~repro.locality.histogram.ReuseHistogram` directly comparable
  to the dynamic engine's output (same binning, same cold convention);
- :meth:`StaticProfile.miss_count` predicts capacity misses for a cache
  of any size;
- :meth:`StaticProfile.class_stats` mirrors the dynamic
  :func:`~repro.locality.evadable.per_class_stats`, and
  :meth:`StaticProfile.evadable_classes` applies the *same decision
  rule* as the dynamic classifier to the predicted means — that shared
  rule is what makes exact static/dynamic agreement testable;
- :meth:`StaticProfile.symbolic_evadable` is the purely symbolic
  classification of paper §2.1: a class is evadable iff the distance of
  its dominant reuse component grows with the size parameters.

Everything here is derived without generating a trace; the only numeric
work is polynomial evaluation (``analysis.static.*`` metrics record the
analysis, never ``trace.*``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from ..lang import Assumptions, Program
from ..locality.evadable import ClassStats, classify_evadable_stats
from ..locality.histogram import ReuseHistogram
from ..obs import metrics, span
from .model import StaticModel, build_model
from .poly import Poly
from .regions import Regions
from .reuse import ClassProfile, Component, attribute_model

Params = Mapping[str, int]


def _multiplier(kind: str, steps: int) -> int:
    """How many body repetitions a component's count replays across."""
    return steps - 1 if kind == "cross_step" else steps


def clamp_distance(value: float, cap: float) -> float:
    """Clamp a reuse distance into ``[0, cap - 1]`` (``cap``: footprint)."""
    if value < 0:
        return 0.0
    if cap > 0 and value > cap - 1:
        return cap - 1
    return value


@dataclass(frozen=True)
class EvaluatedClass:
    """One reuse class evaluated at a concrete input size."""

    ref_id: int
    array: str
    text: str
    reuses: float
    cold: float
    mean_distance: float  # 0.0 when the class has no reuses
    pairs: tuple[tuple[float, float], ...]  # (count, distance)


@dataclass(frozen=True)
class StaticProfile:
    """Symbolic reuse profile of one program."""

    model: StaticModel
    steps: int
    classes: tuple[ClassProfile, ...]
    assume: Assumptions
    footprint: Poly  # distinct elements touched by the whole body

    # -- evaluation -------------------------------------------------------

    def total_accesses(self) -> Poly:
        return self.model.total_accesses() * self.steps

    def class_walk(
        self, profile: ClassProfile, params: Params
    ) -> tuple[list[tuple[Component, float, float]], float]:
        """Split one class's accesses over its reuse components.

        Returns the ``(component, count, distance)`` rows — counts
        clamped so together they never exceed the class's executions,
        distances clamped into the footprint — and the cold remainder.
        """
        env = dict(params)
        total = float(profile.ref.exec_count().evaluate(env)) * self.steps
        cap = float(self.footprint.evaluate(env))
        remaining = max(total, 0.0)
        rows: list[tuple[Component, float, float]] = []
        has_wrap = any(c.kind == "cross_step" for c in profile.components)
        for comp in profile.components:
            count = float(comp.count.evaluate(env)) * _multiplier(
                comp.kind, self.steps
            )
            count = min(max(count, 0.0), remaining)
            if count <= 0:
                continue
            dist = clamp_distance(float(comp.distance.evaluate(env)), cap)
            rows.append((comp, count, dist))
            remaining -= count
        cold = remaining if has_wrap or self.steps == 1 else min(
            remaining, float(profile.cold.evaluate(env)) * self.steps
        )
        return rows, max(cold, 0.0)

    def evaluate_class(
        self, profile: ClassProfile, params: Params
    ) -> EvaluatedClass:
        """Split one class's accesses into (count, distance) pairs."""
        rows, cold = self.class_walk(profile, params)
        pairs = [(count, dist) for _, count, dist in rows]
        reuses = sum(c for c, _ in pairs)
        mean = (
            sum(c * d for c, d in pairs) / reuses if reuses > 0 else 0.0
        )
        return EvaluatedClass(
            ref_id=profile.ref.ref_id,
            array=profile.ref.array,
            text=profile.ref.text,
            reuses=reuses,
            cold=cold,
            mean_distance=mean,
            pairs=tuple(pairs),
        )

    def evaluate(self, params: Params) -> tuple[EvaluatedClass, ...]:
        return tuple(self.evaluate_class(p, params) for p in self.classes)

    # -- dynamic-engine-compatible views ----------------------------------

    def histogram(self, params: Params) -> ReuseHistogram:
        """Predicted reuse histogram, same binning as the dynamic one."""
        classes = self.evaluate(params)
        return ReuseHistogram.from_pairs(
            [pair for ec in classes for pair in ec.pairs],
            sum(ec.cold for ec in classes),
        )

    def class_stats(self, params: Params) -> dict[int, ClassStats]:
        """Predicted per-class stats, shaped like ``per_class_stats``."""
        out: dict[int, ClassStats] = {}
        for ec in self.evaluate(params):
            if ec.reuses > 0:
                out[ec.ref_id] = ClassStats(
                    ec.ref_id, int(round(ec.reuses)), ec.mean_distance
                )
        return out

    def miss_count(self, params: Params, capacity_elems: int) -> float:
        """Predicted misses for a fully-associative LRU cache."""
        misses = 0.0
        for ec in self.evaluate(params):
            misses += ec.cold
            for count, dist in ec.pairs:
                if dist >= capacity_elems:
                    misses += count
        return misses

    def evadable_classes(self, small: Params, large: Params) -> frozenset[int]:
        """Static classification under the dynamic classifier's rule.

        Evaluates the symbolic profile at two sizes and applies exactly
        the decision of :func:`~repro.locality.evadable.classify_evadable`
        to the *predicted* means — so static and dynamic results are
        directly comparable, class by class.
        """
        report = classify_evadable_stats(
            self.class_stats(small), self.class_stats(large)
        )
        return report.evadable_classes

    # -- symbolic queries -------------------------------------------------

    def dominant_component(
        self, profile: ClassProfile
    ) -> Optional[Component]:
        """The component carrying the most accesses at large sizes."""
        probe = {p: 10**4 for p in self.model.params}
        best: Optional[Component] = None
        best_count = 0.0
        for comp in profile.components:
            c = float(comp.count.evaluate(probe)) * _multiplier(
                comp.kind, self.steps
            )
            if c > best_count:
                best, best_count = comp, c
        return best

    def symbolic_evadable(self) -> frozenset[int]:
        """Classes whose dominant reuse distance grows with the size.

        The paper's definition (§2.1), answered without choosing sizes:
        evadable iff the symbolic distance estimate of the dominant
        component is unbounded in the program parameters.
        """
        out: set[int] = set()
        for profile in self.classes:
            comp = self.dominant_component(profile)
            if comp is not None and comp.distance.grows():
                out.add(profile.ref.ref_id)
        return frozenset(out)

    # -- presentation -----------------------------------------------------

    def render(self, params: Optional[Params] = None) -> str:
        lines = [
            f"static reuse profile: {self.model.program.name} "
            f"(steps={self.steps}, refs={len(self.classes)})",
            f"  total accesses: {self.total_accesses()}",
            f"  footprint:      {self.footprint} elements",
        ]
        evadable = self.symbolic_evadable()
        for profile in self.classes:
            ref = profile.ref
            tag = " [evadable]" if ref.ref_id in evadable else ""
            lines.append(
                f"  ref {ref.ref_id:>3} {ref.text:<24} "
                f"nest {ref.nest}{tag}"
            )
            for comp in profile.components:
                src = "" if comp.source is None else f" <- ref {comp.source}"
                approx = "=" if comp.exact else "~"
                lines.append(
                    f"      {comp.kind:<10} count {approx} {comp.count}; "
                    f"distance {approx} {comp.distance}{src}"
                )
            if not profile.cold.is_zero():
                lines.append(f"      cold       count = {profile.cold}")
        if params:
            hist = self.histogram(params)
            size = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
            lines.append(hist.format_ascii(label=f"  predicted at {size}:"))
        return "\n".join(lines)

    def to_json(self, params: Optional[Params] = None) -> dict:
        out: dict = {
            "program": self.model.program.name,
            "steps": self.steps,
            "total_accesses": str(self.total_accesses()),
            "footprint": str(self.footprint),
            "classes": [
                {
                    "ref_id": p.ref.ref_id,
                    "ref": p.ref.text,
                    "nest": p.ref.nest,
                    "components": [
                        {
                            "kind": c.kind,
                            "source": c.source,
                            "count": str(c.count),
                            "distance": str(c.distance),
                            "bound": str(c.bound),
                            "exact": c.exact,
                        }
                        for c in p.components
                    ],
                    "cold": str(p.cold),
                }
                for p in self.classes
            ],
            "evadable_symbolic": sorted(self.symbolic_evadable()),
        }
        if params:
            hist = self.histogram(params)
            out["predicted"] = {
                "params": dict(params),
                "histogram": [int(c) for c in hist.counts],
                "cold": hist.cold,
            }
        return out


def analyze_program(
    program: Program,
    steps: int = 1,
    assume: Union[int, Assumptions, None] = None,
) -> StaticProfile:
    """Compute the symbolic reuse profile of ``program`` — no trace.

    The call's one :class:`~repro.static.regions.Regions` holds every
    memo of the analysis and is dropped when it returns.
    """
    assumptions = Assumptions.of(assume)
    with span(
        "static-reuse", program=program.name, steps=steps
    ) as sp:
        model = build_model(program)
        regions = Regions(assumptions)
        classes = attribute_model(model, steps, regions)
        footprint = regions.measure_sum(regions.footprint_by_array(model.refs))
        metrics.inc("analysis.static.runs")
        metrics.inc("analysis.static.refs", len(model.refs))
        metrics.inc(
            "analysis.static.components",
            sum(len(c.components) for c in classes),
        )
        sp.attrs.update(refs=len(model.refs))
        return StaticProfile(
            model=model,
            steps=steps,
            classes=classes,
            assume=assumptions,
            footprint=footprint,
        )
