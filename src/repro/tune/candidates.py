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

import dataclasses
import itertools
from typing import Iterable, Optional, Sequence

from ..core.pm.pipelines import PipelineSpec, resolve_pipeline
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
    tokens = ["inline", *canonical_enabler_order(enablers), "simplify"]
    if fusion:
        tokens += [f"fusion:{int(fusion)}", "simplify"]
    if regroup:
        tokens.append("regroup")
    return parse_signature("+".join(tokens))


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
    """Invert :func:`spec_signature`: the ``+``-joined tokens read by the
    one pass-sequence grammar (:func:`~repro.core.pm.resolve_pipeline`),
    as the candidate ``tune:<signature>``.  Named levels are
    reconstructed from the pipeline table, not from signatures: their
    checkpoints are not part of one."""
    spec = resolve_pipeline(signature.split("+"))
    return dataclasses.replace(
        spec, name=f"tune:{signature}", description="autotuner candidate"
    )


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
