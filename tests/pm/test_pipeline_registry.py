"""The declarative pipeline registry and the pass registry."""

import pytest

from repro.core import OPT_LEVELS, compile_variant
from repro.core.pm import (
    PIPELINES,
    FunctionPass,
    PassManager,
    custom_pipeline,
    get_pass,
    known_levels,
    register_pass,
    resolve_pipeline,
)
from repro.lang import TransformError, parse, validate

SOURCE = """
program reg
param N
real A[N], B[N]
for i = 1, N { A[i] = f(B[i]) }
for i = 1, N { B[i] = g(A[i]) }
"""


def build():
    return validate(parse(SOURCE))


# -- strict level validation (the old loose matching accepted these) ----------


@pytest.mark.parametrize("bogus", ["fusionXYZ", "noopt+regroup", "fusion2", ""])
def test_bogus_level_names_rejected(bogus):
    with pytest.raises(TransformError) as exc:
        resolve_pipeline(bogus)
    assert "known levels" in str(exc.value)
    for level in OPT_LEVELS:
        assert level in str(exc.value)


def test_compile_variant_rejects_bogus_level():
    with pytest.raises(TransformError, match="fusionXYZ"):
        compile_variant(build(), "fusionXYZ")


def test_every_opt_level_is_registered():
    assert set(OPT_LEVELS) <= set(known_levels())
    for name in ("fusion+regroup", "fusion1+regroup"):
        assert name in known_levels()


def test_compound_spellings_still_compile():
    variant = compile_variant(build(), "fusion1+regroup")
    assert variant.level == "fusion1+regroup"
    assert variant.regroup is not None


# -- pipeline resolution ------------------------------------------------------


def test_resolve_accepts_spec_and_pass_lists():
    spec = resolve_pipeline("new")
    assert resolve_pipeline(spec) is spec
    custom = resolve_pipeline(["inline", "simplify"])
    assert custom.pass_names() == ("inline", "simplify")
    assert custom.name == "passes:inline,simplify"


def test_custom_pipeline_validates_pass_names():
    with pytest.raises(TransformError, match="registered passes"):
        custom_pipeline(["inline", "nonsense"])
    with pytest.raises(TransformError, match="at least one pass"):
        custom_pipeline([])


def test_custom_pipeline_compiles():
    from repro.core import compile_pipeline

    variant = compile_pipeline(build(), ["inline", "simplify"])
    assert variant.level == "passes:inline,simplify"
    assert variant.program.loop_count() == 2  # nothing fused


def test_pipeline_specs_describe_their_passes():
    spec = PIPELINES["new"]
    names = spec.pass_names()
    assert names[0] == "inline"
    assert "fusion" in names and "regroup" in names
    assert names.index("fusion") < names.index("regroup")


# -- pass registry -----------------------------------------------------------


def test_registry_rejects_duplicates():
    with pytest.raises(TransformError, match="already registered"):
        register_pass(FunctionPass("inline", lambda p, ctx: p))


def test_get_pass_error_lists_registered():
    with pytest.raises(TransformError, match="registered passes"):
        get_pass("nonsense")


def test_pipeline_run_populates_stage_checkpoints():
    variant = PassManager(build()).run(PIPELINES["fusion"])
    assert list(variant.stages) == ["input", "preliminary", "fused"]
    assert variant.level == "fusion"
