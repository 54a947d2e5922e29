"""Pass-manager architecture: declarative pipelines, auto-instrumented
passes.

* :mod:`.passes` — the :class:`Pass` protocol, :class:`FunctionPass`,
  and the process-wide registry of built-in passes;
* :mod:`.pipelines` — every optimization level written down as a
  :class:`PipelineSpec` (ordered pass steps as data), plus strict level
  validation and ad-hoc ``--passes`` pipelines;
* :mod:`.manager` — the :class:`PassManager` that executes specs, owning
  obs spans, verifier certification, and :class:`CompiledVariant`
  assembly.
"""

from __future__ import annotations

from .manager import CompiledVariant, PassManager
from .passes import (
    FunctionPass,
    PASSES,
    Pass,
    PassContext,
    get_pass,
    pass_names,
    register_pass,
)
from .pipelines import (
    OPT_LEVELS,
    PIPELINES,
    PassStep,
    PipelineSpec,
    custom_pipeline,
    describe_pipeline,
    known_levels,
    registry_to_json,
    resolve_pipeline,
    spec_from_json,
    spec_to_json,
)

__all__ = [
    "CompiledVariant",
    "FunctionPass",
    "OPT_LEVELS",
    "PASSES",
    "PIPELINES",
    "Pass",
    "PassContext",
    "PassManager",
    "PassStep",
    "PipelineSpec",
    "custom_pipeline",
    "describe_pipeline",
    "get_pass",
    "known_levels",
    "pass_names",
    "register_pass",
    "registry_to_json",
    "resolve_pipeline",
    "spec_from_json",
    "spec_to_json",
]
