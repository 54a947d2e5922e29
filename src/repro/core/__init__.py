"""The paper's primary contribution: reuse-based loop fusion, multi-level
data regrouping, and the pipeline combining them."""

from .fusion import FusionOptions, FusionReport, fuse_program
from .pipeline import (
    OPT_LEVELS,
    CompiledVariant,
    compile_pipeline,
    compile_variant,
    preliminary,
)
from .pm import PIPELINES, PassManager, PipelineSpec, resolve_pipeline
from .regroup import (
    Layout,
    RegroupOptions,
    RegroupPlan,
    default_layout,
    padded_layout,
    regroup_plan,
)

__all__ = [
    "CompiledVariant",
    "FusionOptions",
    "FusionReport",
    "Layout",
    "OPT_LEVELS",
    "PIPELINES",
    "PassManager",
    "PipelineSpec",
    "RegroupOptions",
    "RegroupPlan",
    "compile_pipeline",
    "compile_variant",
    "resolve_pipeline",
    "default_layout",
    "fuse_program",
    "padded_layout",
    "preliminary",
    "regroup_plan",
]
