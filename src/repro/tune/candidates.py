"""Legal pipeline candidates: the autotuner's search space.

A *candidate* is a :class:`~repro.core.pm.PipelineSpec` shaped like the
paper's own levels — ``inline`` first (procedure calls must be resolved
before any analysis), an optional subset of the §4.1 enabler passes, a
``simplify`` cleanup, an optional reuse-based ``fusion`` stage at a
chosen ``max_levels``, and an optional *terminal* ``regroup``.  The
shape is not arbitrary: it is exactly the family the pass metadata
permits —

* the enablers run in one canonical order (the order of
  :data:`ENABLERS`, which is §4.1's), so a subset has one spelling;
* ``regroup`` is analysis-only (``certify=False``: it plans a data
  layout without touching the program), so it is only legal as the
  final step — nothing may transform the program after the layout is
  planned;
* every other step is a certified pass, so any candidate compiles
  under full PR 2 legality verification (the hypothesis suite in
  ``tests/properties/test_tune_props.py`` pins this).

Candidates carry a stable *signature* (``inline+distribute+simplify+
fusion:2+simplify``) that doubles as their cache identity and their
row label in tuner tables; :func:`parse_signature` inverts it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from ..core.pm.passes import PASSES
from ..core.pm.pipelines import PassStep, PipelineSpec
from ..lang import TransformError

#: the §4.1 enabler passes a candidate may include between ``inline``
#: and ``simplify`` (any subset, in canonical order)
ENABLERS = ("unroll", "split_arrays", "distribute", "constprop")

#: fusion ``max_levels`` values the default grid explores; 0 = no fusion
FUSION_LEVELS = (0, 1, 2, 4, 8)


def canonical_enabler_order(names: Iterable[str]) -> tuple[str, ...]:
    """Order enabler passes as :data:`ENABLERS` lists them."""
    names = tuple(names)
    for name in names:
        if name not in ENABLERS:
            raise TransformError(
                f"unknown enabler {name!r}; candidates may use {ENABLERS}"
            )
    return tuple(sorted(names, key=ENABLERS.index))


def make_candidate(
    enablers: Sequence[str] = (),
    fusion: int = 0,
    regroup: bool = False,
) -> PipelineSpec:
    """Build one candidate spec from its three degrees of freedom."""
    if fusion < 0:
        raise TransformError(f"fusion level must be >= 0, got {fusion}")
    steps: list[PassStep] = [PassStep("inline")]
    steps += [PassStep(name) for name in canonical_enabler_order(enablers)]
    steps.append(PassStep("simplify"))
    if fusion:
        steps.append(PassStep("fusion", (("max_levels", int(fusion)),)))
        steps.append(PassStep("simplify"))
    if regroup:
        steps.append(PassStep("regroup"))
    spec = PipelineSpec("", "autotuner candidate", tuple(steps))
    signature = spec_signature(spec)
    return PipelineSpec(f"tune:{signature}", "autotuner candidate", tuple(steps))


def spec_signature(spec: PipelineSpec) -> str:
    """The stable textual identity of any pipeline's pass sequence.

    One token per step — the pass name, with non-default options folded
    in as ``name:v1`` (values in sorted-key order) — joined by ``+``.
    Works for named levels too (``fusion`` renders as
    ``inline+unroll+...+fusion:8+simplify``), which is what lets the
    tuner dedup a candidate against a paper level it reproduces.
    """
    tokens = []
    for step in spec.steps:
        if step.options:
            values = ":".join(str(v) for _, v in sorted(step.options))
            tokens.append(f"{step.name}:{values}")
        else:
            tokens.append(step.name)
    return "+".join(tokens)


def parse_signature(signature: str) -> PipelineSpec:
    """Invert :func:`spec_signature` for candidate-shaped signatures.

    Only ``fusion:K`` carries an option in the candidate family; any
    other optioned token is rejected (named levels are reconstructed
    from the pipeline registry, not from signatures).
    """
    steps: list[PassStep] = []
    for token in signature.split("+"):
        name, _, value = token.partition(":")
        if name not in PASSES:
            raise TransformError(
                f"signature {signature!r} names unknown pass {name!r}"
            )
        if value:
            if name != "fusion":
                raise TransformError(
                    f"signature {signature!r}: only fusion takes an option"
                )
            steps.append(PassStep("fusion", (("max_levels", int(value)),)))
        else:
            steps.append(PassStep(name))
    if not steps:
        raise TransformError("empty candidate signature")
    return PipelineSpec(
        f"tune:{signature}", "autotuner candidate", tuple(steps)
    ).validate()


def candidate_fields(
    spec: PipelineSpec,
) -> tuple[tuple[str, ...], int, bool]:
    """Decompose a candidate back into (enablers, fusion level, regroup).

    Raises :class:`~repro.lang.TransformError` if ``spec`` is not
    candidate-shaped.
    """
    names = [s.name for s in spec.steps]
    if not names or names[0] != "inline":
        raise TransformError(f"candidate must start with inline: {names}")
    regroup = names[-1] == "regroup"
    if regroup:
        names = names[:-1]
    fusion = 0
    for step in spec.steps:
        if step.name == "fusion":
            fusion = int(dict(step.options).get("max_levels", 8))
    core = [n for n in names[1:] if n not in ("simplify", "fusion")]
    if any(n not in ENABLERS for n in core):
        raise TransformError(f"not a candidate-shaped pipeline: {names}")
    return tuple(canonical_enabler_order(core)), fusion, regroup


def enumerate_candidates(
    enablers: Sequence[str] = ENABLERS,
    fusion_levels: Sequence[int] = FUSION_LEVELS,
    regroup: bool = True,
    max_candidates: Optional[int] = None,
) -> list[PipelineSpec]:
    """The full candidate grid: every enabler subset x fusion level
    (x regroup toggle, unless ``regroup=False``).

    The grid is ordered cheapest-first (fewer passes, lower fusion
    level), so ``max_candidates`` truncation keeps the fast region —
    and so the tuner's dedup sees the small pipelines before the
    expensive fused ones.
    """
    regroup_choices = (False, True) if regroup else (False,)
    out: list[PipelineSpec] = []
    for r in range(len(enablers) + 1):
        for combo in itertools.combinations(enablers, r):
            for level in fusion_levels:
                for rg in regroup_choices:
                    out.append(make_candidate(combo, level, rg))
                    if max_candidates is not None and len(out) >= max_candidates:
                        return out
    return out
