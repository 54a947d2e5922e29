"""Property-based tests for the pipeline autotuner's search space.

Every candidate the tuner can generate — any enabler subset, any fusion
level, with or without the terminal regroup — must (1) be a legal
pipeline under full ``verify-pass`` certification (all 160, through one
pass manager), and (2) produce a program the printer round-trips
exactly (sampled).  This is the legality contract that lets
``tune()`` rank candidates purely statically without ever executing an
uncertified transformation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PassManager, compile_pipeline
from repro.lang import parse, to_source, validate
from repro.programs import registry
from repro.verify import PassVerifier
from repro.tune import (
    ENABLERS,
    FUSION_LEVELS,
    enumerate_candidates,
    make_candidate,
    parse_signature,
    spec_signature,
)

#: the size candidates are certified at (dependence re-testing is at a
#: concrete size)
SMALL = {"N": 12}


def _adi():
    return validate(registry.get("adi").build())


enabler_subsets = st.lists(
    st.sampled_from(ENABLERS), unique=True, max_size=len(ENABLERS)
).map(tuple)

candidates = st.builds(
    make_candidate,
    enablers=enabler_subsets,
    fusion=st.sampled_from(FUSION_LEVELS),
    regroup=st.booleans(),
)


def test_candidate_passes_certification():
    """Every candidate of the default grid compiles under full
    verification: each pass of each chain carries a clean verdict."""
    program = _adi()
    manager = PassManager(program, verify_params=SMALL)
    verifier = PassVerifier(program, SMALL)
    grid = enumerate_candidates()
    assert len(grid) == 160
    with manager.declared(grid):
        for spec in grid:
            seen = len(verifier.history)
            variant = manager.run(spec, verify=verifier)
            assert variant.program is not None
            chain = verifier.history[seen:]
            assert [name for name, _ in chain] == [
                s.name for s in spec.steps if s.name != "regroup"
            ]
            assert not any(bag.has_errors() for _, bag in chain)


@given(candidates)
@settings(max_examples=25, deadline=None)
def test_candidate_program_printer_round_trips(spec):
    """The transformed program survives print -> parse -> print exactly."""
    program = _adi()
    variant = compile_pipeline(program, spec)
    text = to_source(variant.program)
    reparsed = validate(parse(text))
    assert to_source(reparsed) == text


@given(enabler_subsets, st.sampled_from(FUSION_LEVELS), st.booleans())
@settings(max_examples=100, deadline=None)
def test_signature_round_trips(enablers, fusion, regroup):
    """spec -> signature -> spec is the identity, and the signature spells
    the candidate's three degrees of freedom token by token."""
    spec = make_candidate(enablers=enablers, fusion=fusion, regroup=regroup)
    signature = spec_signature(spec)
    assert parse_signature(signature) == spec
    expected = ["inline", *(e for e in ENABLERS if e in enablers), "simplify"]
    if fusion:
        expected += [f"fusion:{fusion}", "simplify"]
    if regroup:
        expected.append("regroup")
    assert signature.split("+") == expected
