"""The pass layer: the paper's passes, its levels as data, and the
manager that runs them.

* :mod:`.passes` — :data:`PASSES`, the fixed table of passes (each one's
  function, description and certification mode);
* :mod:`.pipelines` — every optimization level written down as a
  :class:`PipelineSpec` (ordered pass steps as data), strict level
  validation, and the one pass-sequence grammar (``--passes``);
* :mod:`.manager` — the :class:`PassManager` that executes specs, owning
  obs spans, verifier certification, and :class:`CompiledVariant`
  assembly.
"""

from __future__ import annotations

from .manager import CompiledVariant, PassManager
from .passes import PASSES, PassContext
from .pipelines import (
    OPT_LEVELS,
    PIPELINES,
    PassStep,
    PipelineSpec,
    describe_pipeline,
    registry_to_json,
    resolve_pipeline,
    spec_to_json,
)

__all__ = [
    "CompiledVariant",
    "OPT_LEVELS",
    "PASSES",
    "PIPELINES",
    "PassContext",
    "PassManager",
    "PassStep",
    "PipelineSpec",
    "describe_pipeline",
    "registry_to_json",
    "resolve_pipeline",
    "spec_to_json",
]
