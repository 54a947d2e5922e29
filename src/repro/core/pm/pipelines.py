"""The optimization levels as data, and the one pass-sequence grammar.

The paper's §4.1 global strategy is a *sequence of passes*; this module
writes each optimization level down as exactly that — a
:class:`PipelineSpec` holding ordered :class:`PassStep` entries over the
pass table :data:`~repro.core.pm.passes.PASSES`.  :data:`PIPELINES` is
introspectable (``repro pipeline --list`` / ``--describe``), validates
level names strictly (bogus names like ``fusionXYZ`` raise
:class:`~repro.lang.TransformError` listing the known levels), and is the
single source of truth for :data:`OPT_LEVELS`.

Every other pass sequence — ``repro report --passes inline,simplify``,
``RunRequest(pipeline=[...])``, an autotuner candidate and its signature
— is a list of tokens, each a pass name or ``fusion:K`` (fusion at
``max_levels=K``), read by :func:`resolve_pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ...lang import TransformError
from .passes import PASSES


@dataclass(frozen=True)
class PassStep:
    """One pipeline entry: a pass of the table plus per-step options.

    ``options`` are frozen keyword arguments forwarded to the pass's
    function (and shown as span attributes, e.g. fusion's ``max_levels``);
    ``checkpoint`` records the program's structural stats under that
    stage name after the pass runs.
    """

    name: str
    options: tuple[tuple[str, object], ...] = ()
    checkpoint: Optional[str] = None

    def kwargs(self) -> dict:
        return dict(self.options)

    def describe(self) -> str:
        opts = ", ".join(f"{k}={v}" for k, v in self.options)
        text = self.name if not opts else f"{self.name}({opts})"
        if self.checkpoint:
            text += f" [checkpoint: {self.checkpoint}]"
        return text


@dataclass(frozen=True)
class PipelineSpec:
    """A named, ordered pass sequence — one optimization level as data."""

    name: str
    description: str
    steps: tuple[PassStep, ...]

    def validate(self) -> "PipelineSpec":
        for step in self.steps:
            _known(step.name)
        return self


def _known(name: str) -> str:
    if name not in PASSES:
        raise TransformError(
            f"unknown pass {name!r}; known passes: {', '.join(sorted(PASSES))}"
        )
    return name


def _parse(tokens: Sequence[str]) -> tuple[PassStep, ...]:
    """The pass-sequence grammar: each token is a pass name or ``fusion:K``."""
    steps = []
    for token in tokens:
        name, colon, level = token.partition(":")
        if not colon:
            steps.append(PassStep(_known(name)))
        elif _known(name) == "fusion" and level.isdigit():
            steps.append(PassStep("fusion", (("max_levels", int(level)),)))
        else:
            raise TransformError(
                f"bad pass token {token!r}: only fusion takes an option, "
                "as fusion:K with K >= 0"
            )
    if not steps:
        raise TransformError("a pass sequence needs at least one pass")
    return tuple(steps)


#: §4.1 preliminary transformations (shared prefix of every optimized
#: level, and :func:`~repro.core.preliminary`)
_PRELIMINARY = _parse(("inline", "unroll", "split_arrays", "distribute", "constprop"))
_PRELIMINARY += (PassStep("simplify", checkpoint="preliminary"),)
#: the regroup-only ablation skips distribution: it must regroup the
#: *original* loop structure, not a maximally scattered one
_UNDISTRIBUTED = tuple(s for s in _PRELIMINARY if s.name != "distribute")
_REGROUP = (PassStep("regroup"),)


def _fused(max_levels: int) -> tuple[PassStep, ...]:
    fusion = _parse([f"fusion:{max_levels}"])
    return fusion + (PassStep("simplify", checkpoint="fused"),)


#: named pipelines, declaration order = presentation order.  The seven
#: core levels come first (OPT_LEVELS preserves exactly that set), then
#: the compound spellings the harness has always accepted.
PIPELINES: dict[str, PipelineSpec] = {
    name: PipelineSpec(name, description, steps)
    for name, description, steps in (
        ("noopt", "inline only (the measured original)",
         _parse(("inline", "simplify"))),
        ("sgi", "SGI-like local baseline: intra-nest fusion + padding",
         _parse(("sgi",))),
        ("mckinley", "restricted fusion (identical bounds, no enablers)",
         _parse(("mckinley",))),
        ("fusion1", "preliminary passes + 1-level reuse-based fusion",
         _PRELIMINARY + _fused(1)),
        ("fusion", "preliminary passes + full multi-level fusion",
         _PRELIMINARY + _fused(8)),
        ("regroup", "data regrouping without fusion (ablation)",
         _UNDISTRIBUTED + _REGROUP),
        ("new", "the paper's strategy: fusion + regrouping",
         _PRELIMINARY + _fused(8) + _REGROUP),
        ("fusion+regroup", "compound spelling of 'new' (fusion then regrouping)",
         _PRELIMINARY + _fused(8) + _REGROUP),
        ("fusion1+regroup", "1-level fusion then regrouping",
         _PRELIMINARY + _fused(1) + _REGROUP),
    )
}

#: the seven optimization levels the harness and benchmarks use (the
#: compound spellings above are aliases, not separate levels)
OPT_LEVELS = ("noopt", "sgi", "mckinley", "fusion1", "fusion", "regroup", "new")


def resolve_pipeline(
    pipeline: Union[str, Sequence[str], PipelineSpec],
) -> PipelineSpec:
    """Resolve a level name, a pass sequence, or a spec to a pipeline.

    A sequence is read token by token (a pass name or ``fusion:K``) into
    the pipeline ``passes:<tokens>``.  Unknown level names raise
    :class:`~repro.lang.TransformError` naming the known levels — loose
    spellings like ``fusionXYZ`` that the old prefix matching silently
    accepted are rejected — and so do unknown or malformed tokens.
    """
    if isinstance(pipeline, PipelineSpec):
        return pipeline.validate()
    if isinstance(pipeline, str):
        spec = PIPELINES.get(pipeline)
        if spec is None:
            raise TransformError(
                f"unknown optimization level {pipeline!r}; known levels: "
                f"{', '.join(PIPELINES)}"
            )
        return spec
    tokens = [token for token in pipeline if token]
    steps = _parse(tokens)
    return PipelineSpec("passes:" + ",".join(tokens), "custom pass list", steps)


def spec_to_json(spec: PipelineSpec) -> dict:
    """The machine-readable pipeline-description schema.

    One shape shared by ``repro pipeline --json``, the autotuner's
    ``BENCH_tune.json`` artifact, and any external tool:
    ``{"name", "description", "steps": [{"name", "options",
    "checkpoint"?}]}`` with options as a plain object.
    """
    steps = []
    for step in spec.steps:
        entry: dict[str, object] = {"name": step.name, "options": dict(step.options)}
        if step.checkpoint:
            entry["checkpoint"] = step.checkpoint
        steps.append(entry)
    return {"name": spec.name, "description": spec.description, "steps": steps}


def registry_to_json() -> dict:
    """The full introspection payload of ``repro pipeline --json``:
    every pass (with its metadata) and every named pipeline."""
    passes = {
        name: {"description": p.description, "certify": p.certify, "strict": p.strict}
        for name, p in sorted(PASSES.items())
    }
    return {
        "passes": passes,
        "pipelines": {name: spec_to_json(s) for name, s in PIPELINES.items()},
        "opt_levels": list(OPT_LEVELS),
    }


def describe_pipeline(spec: PipelineSpec) -> str:
    """Multi-line human rendering (``repro pipeline --describe``)."""
    lines = [f"{spec.name}: {spec.description}"]
    for i, step in enumerate(spec.steps, start=1):
        lines.append(f"  {i}. {step.describe()}")
        if PASSES[step.name].description:
            lines.append(f"       {PASSES[step.name].description}")
    return "\n".join(lines)
