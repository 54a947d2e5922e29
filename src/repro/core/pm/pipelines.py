"""Declarative pipeline specs: every optimization level as data.

The paper's §4.1 global strategy is a *sequence of passes*; this module
writes each optimization level down as exactly that — a
:class:`PipelineSpec` holding ordered :class:`PassStep` entries — instead
of the historical if/else chain in ``compile_variant``.  The registry is
introspectable (``repro pipeline --list`` / ``--describe``), validates
level names strictly (bogus names like ``fusionXYZ`` raise
:class:`~repro.lang.TransformError` listing the known levels), and is the
single source of truth for :data:`OPT_LEVELS`.

Custom pipelines (``repro report --passes inline,simplify``, or
``RunRequest(pipeline=[...])``) are built with :func:`custom_pipeline`
from any registered pass names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ...lang import TransformError
from .passes import PASSES, get_pass


@dataclass(frozen=True)
class PassStep:
    """One pipeline entry: a registered pass plus per-step options.

    ``options`` are frozen keyword arguments forwarded to the pass's
    ``run`` (and shown as span attributes, e.g. fusion's ``max_levels``);
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

    def pass_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.steps)

    def validate(self) -> "PipelineSpec":
        for step in self.steps:
            get_pass(step.name)  # raises TransformError on unknown names
        return self


def _step(name: str, checkpoint: Optional[str] = None, **options) -> PassStep:
    return PassStep(name, tuple(sorted(options.items())), checkpoint)


#: §4.1 preliminary transformations (shared prefix of every optimized level)
_PRELIMINARY = (
    _step("inline"),
    _step("unroll"),
    _step("split_arrays"),
    _step("distribute"),
    _step("constprop"),
    _step("simplify", checkpoint="preliminary"),
)

#: the regroup-only ablation skips distribution: it must regroup the
#: *original* loop structure, not a maximally scattered one
_PRELIMINARY_NO_DISTRIBUTE = tuple(
    s for s in _PRELIMINARY if s.name != "distribute"
)


def preliminary_steps(distribute: bool = True) -> tuple[PassStep, ...]:
    """The shared §4.1 preliminary prefix (``repro.core.preliminary``)."""
    return _PRELIMINARY if distribute else _PRELIMINARY_NO_DISTRIBUTE


def _fused(max_levels: int) -> tuple[PassStep, ...]:
    return (
        _step("fusion", max_levels=max_levels),
        _step("simplify", checkpoint="fused"),
    )


#: named pipelines, declaration order = presentation order.  The seven
#: core levels come first (OPT_LEVELS preserves exactly that set), then
#: the compound spellings the harness has always accepted.
PIPELINES: dict[str, PipelineSpec] = {}


def _pipeline(name: str, description: str, steps: Sequence[PassStep]) -> None:
    PIPELINES[name] = PipelineSpec(name, description, tuple(steps)).validate()


_pipeline(
    "noopt",
    "inline only (the measured original)",
    (_step("inline"), _step("simplify")),
)
_pipeline(
    "sgi",
    "SGI-like local baseline: intra-nest fusion + padding",
    (_step("sgi"),),
)
_pipeline(
    "mckinley",
    "restricted fusion (identical bounds, no enablers)",
    (_step("mckinley"),),
)
_pipeline(
    "fusion1",
    "preliminary passes + 1-level reuse-based fusion",
    _PRELIMINARY + _fused(1),
)
_pipeline(
    "fusion",
    "preliminary passes + full multi-level fusion",
    _PRELIMINARY + _fused(8),
)
_pipeline(
    "regroup",
    "data regrouping without fusion (ablation)",
    _PRELIMINARY_NO_DISTRIBUTE + (_step("regroup"),),
)
_pipeline(
    "new",
    "the paper's strategy: fusion + regrouping",
    _PRELIMINARY + _fused(8) + (_step("regroup"),),
)
_pipeline(
    "fusion+regroup",
    "compound spelling of 'new' (fusion then regrouping)",
    _PRELIMINARY + _fused(8) + (_step("regroup"),),
)
_pipeline(
    "fusion1+regroup",
    "1-level fusion then regrouping",
    _PRELIMINARY + _fused(1) + (_step("regroup"),),
)

#: the seven optimization levels the harness and benchmarks use (the
#: compound spellings above are aliases, not separate levels)
OPT_LEVELS = ("noopt", "sgi", "mckinley", "fusion1", "fusion", "regroup", "new")


def known_levels() -> tuple[str, ...]:
    """Every name :func:`resolve_pipeline` accepts."""
    return tuple(PIPELINES)


def resolve_pipeline(
    pipeline: Union[str, Sequence[str], PipelineSpec],
) -> PipelineSpec:
    """Resolve a level name, pass-name list, or spec to a pipeline.

    Unknown level names raise :class:`~repro.lang.TransformError` naming
    the known levels — loose spellings like ``fusionXYZ`` that the old
    prefix matching silently accepted are rejected.
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
    return custom_pipeline(pipeline)


def custom_pipeline(
    pass_names: Sequence[str], name: Optional[str] = None
) -> PipelineSpec:
    """An ad-hoc pipeline from registered pass names (CLI ``--passes``)."""
    names = [n for n in pass_names if n]
    if not names:
        raise TransformError("custom pipeline needs at least one pass name")
    spec = PipelineSpec(
        name or "passes:" + ",".join(names),
        "custom pass list",
        tuple(_step(n) for n in names),
    )
    return spec.validate()


def spec_to_json(spec: PipelineSpec) -> dict:
    """The machine-readable pipeline-description schema.

    One shape shared by ``repro pipeline --json``, the autotuner's
    ``BENCH_tune.json`` artifact, and any external tool:
    ``{"name", "description", "steps": [{"name", "options",
    "checkpoint"?}]}`` with options as a plain object.
    :func:`spec_from_json` inverts it exactly.
    """
    steps = []
    for step in spec.steps:
        entry: dict[str, object] = {"name": step.name, "options": dict(step.options)}
        if step.checkpoint:
            entry["checkpoint"] = step.checkpoint
        steps.append(entry)
    return {"name": spec.name, "description": spec.description, "steps": steps}


def spec_from_json(payload: dict) -> PipelineSpec:
    """Rebuild a :class:`PipelineSpec` from :func:`spec_to_json` output."""
    try:
        steps = tuple(
            PassStep(
                s["name"],
                tuple(sorted(dict(s.get("options", {})).items())),
                s.get("checkpoint"),
            )
            for s in payload["steps"]
        )
        spec = PipelineSpec(
            payload["name"], payload.get("description", ""), steps
        )
    except (KeyError, TypeError) as exc:
        raise TransformError(f"malformed pipeline JSON: {exc}") from exc
    return spec.validate()


def registry_to_json() -> dict:
    """The full introspection payload of ``repro pipeline --json``:
    every registered pass (with its metadata) and every named pipeline."""
    passes = {}
    for name, p in sorted(PASSES.items()):
        passes[name] = {
            "description": p.description,
            "certify": p.certify,
            "strict": p.strict,
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
        p = PASSES[step.name]
        lines.append(f"  {i}. {step.describe()}")
        if p.description:
            lines.append(f"       {p.description}")
    return "\n".join(lines)
