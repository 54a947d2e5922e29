"""The declarative pipeline table and the pass-sequence grammar."""

import pytest

from repro.core import OPT_LEVELS, compile_variant
from repro.core.pm import PIPELINES, PassManager, PassStep, resolve_pipeline
from repro.lang import TransformError, parse, validate

from conftest import assert_same_semantics

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
    assert set(OPT_LEVELS) <= set(PIPELINES)
    for name in ("fusion+regroup", "fusion1+regroup"):
        assert name in PIPELINES


def test_compound_spellings_still_compile():
    variant = compile_variant(build(), "fusion1+regroup")
    assert variant.level == "fusion1+regroup"
    assert variant.regroup is not None


# -- pipeline resolution ------------------------------------------------------


def test_resolve_accepts_spec_and_pass_lists():
    spec = resolve_pipeline("new")
    assert resolve_pipeline(spec) is spec
    custom = resolve_pipeline(["inline", "simplify"])
    assert [s.name for s in custom.steps] == ["inline", "simplify"]
    assert custom.name == "passes:inline,simplify"
    fused = resolve_pipeline(["inline", "fusion:2", "simplify"])
    assert fused.steps[1] == PassStep("fusion", (("max_levels", 2),))
    assert fused.name == "passes:inline,fusion:2,simplify"


def test_custom_pipeline_validates_pass_names():
    """Each token is a pass name or fusion:K; a rejection names the bad
    token (an unknown pass also lists the known ones)."""
    for tokens, bad in [
        (["inline", "nonsense"], "'nonsense'"),
        (["nonsense:2"], "'nonsense'"),
        (["inline:3"], "'inline:3'"),
        (["fusion:x"], "'fusion:x'"),
        (["fusion:-1"], "'fusion:-1'"),
        ([], "at least one pass"),
        (["", ""], "at least one pass"),
    ]:
        with pytest.raises(TransformError) as exc:
            resolve_pipeline(tokens)
        assert bad in str(exc.value), tokens
    with pytest.raises(TransformError, match="known passes: constprop, distribute"):
        resolve_pipeline(["nonsense"])


def test_custom_pipeline_compiles():
    from repro.core import compile_pipeline

    variant = compile_pipeline(build(), ["inline", "simplify"])
    assert variant.level == "passes:inline,simplify"
    assert variant.program.loop_count() == 2  # nothing fused


def test_pipeline_specs_describe_their_passes():
    spec = PIPELINES["new"]
    names = [s.name for s in spec.steps]
    assert names[0] == "inline"
    assert "fusion" in names and "regroup" in names
    assert names.index("fusion") < names.index("regroup")


def test_pipeline_run_populates_stage_checkpoints():
    variant = PassManager(build()).run(PIPELINES["fusion"])
    assert list(variant.stages) == ["input", "preliminary", "fused"]
    assert variant.level == "fusion"


# -- every pass but inline needs an inlined program ---------------------------

#: the procedure writes ``s`` the main body reads after the call
SCALAR_IN_PROC = """
program t
param N
real A[N]
scalar s
proc setit(k) { s = 2.0 }
s = 1.0
call setit(1)
for i = 1, N { A[i] = s }
"""

#: the procedure subscripts the split dimension of ``A``
SPLIT_IN_PROC = """
program t
param N
real A[N, 3]
proc setcol(k) { A[k, 2] = 1.0 }
for i = 1, N { A[i, 1] = 0.0 }
call setcol(1)
"""


@pytest.mark.parametrize(
    "source,passes",
    [(SCALAR_IN_PROC, "constprop,inline"), (SPLIT_IN_PROC, "split_arrays,inline")],
)
def test_a_pass_before_inline_is_refused(source, passes):
    program = validate(parse(source))
    first = passes.split(",")[0]
    with pytest.raises(TransformError, match=f"'{first}'.*run inline first"):
        compile_variant(program, passes.split(","))
    inlined = compile_variant(program, ["inline", first], verify=True).program
    assert_same_semantics(program, inlined)


@pytest.mark.parametrize("level", ["sgi", "mckinley"])
def test_the_baselines_inline_for_themselves(level):
    program = validate(parse(SCALAR_IN_PROC))
    assert_same_semantics(program, compile_variant(program, level).program)
