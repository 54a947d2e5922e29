"""The autotuner's candidate search space."""

import hashlib

import pytest

from repro.lang import TransformError
from repro.tune import (
    ENABLERS,
    FUSION_LEVELS,
    canonical_enabler_order,
    enumerate_candidates,
    make_candidate,
    parse_signature,
    spec_signature,
)


class TestCanonicalOrder:
    def test_invalidating_passes_first(self):
        order = canonical_enabler_order(("constprop", "unroll"))
        assert order == ("unroll", "constprop")  # unroll rewrites subscripts

    def test_registry_order_within_groups(self):
        order = canonical_enabler_order(("constprop", "distribute"))
        assert order == ("distribute", "constprop")
        full = canonical_enabler_order(ENABLERS[::-1])
        assert full == ENABLERS

    def test_unknown_enabler_rejected(self):
        with pytest.raises(TransformError):
            canonical_enabler_order(("bogus",))

    def test_grid_signatures_are_pinned(self):
        """Signatures are BENCH_tune.json labels and TuneCache keys: the
        enabler order, and with it every signature, must not move."""
        assert ENABLERS == ("unroll", "split_arrays", "distribute", "constprop")
        signatures = [spec_signature(s) for s in enumerate_candidates()]
        assert len(signatures) == 160
        digest = hashlib.sha256("\n".join(signatures).encode()).hexdigest()
        assert digest == (
            "69a19a44465a047b015d8bcbe5dcfd61a3b57f6c29e40ce851d1e1c86ef38131"
        )


class TestMakeCandidate:
    def test_minimal_candidate(self):
        spec = make_candidate()
        assert [s.name for s in spec.steps] == ["inline", "simplify"]

    def test_full_candidate_shape(self):
        spec = make_candidate(enablers=ENABLERS, fusion=2, regroup=True)
        names = [s.name for s in spec.steps]
        assert names[0] == "inline"
        assert names[-1] == "regroup"
        assert "fusion" in names
        fusion_step = next(s for s in spec.steps if s.name == "fusion")
        assert fusion_step.kwargs() == {"max_levels": 2}

    def test_fusion_zero_means_no_fusion(self):
        spec = make_candidate(fusion=0)
        assert "fusion" not in [s.name for s in spec.steps]

    def test_all_candidates_validate(self):
        for spec in enumerate_candidates():
            spec.validate()


class TestSignatures:
    def test_round_trip(self):
        for enablers, fusion, regroup in [
            (("unroll", "distribute"), 4, True),
            (("split_arrays",), 1, False),
        ]:
            spec = make_candidate(enablers=enablers, fusion=fusion, regroup=regroup)
            signature = spec_signature(spec)
            assert parse_signature(signature) == spec
            names = [s.name for s in spec.steps]
            assert [n for n in names if n in ENABLERS] == list(enablers)
            assert ("regroup" in names) is regroup
            assert f"fusion:{fusion}" in signature.split("+")

    def test_fusion_option_spelled_in_signature(self):
        assert "fusion:2" in spec_signature(make_candidate(fusion=2))

    def test_bad_signature_rejected(self):
        for signature, bad in [
            ("inline+bogus", "'bogus'"),
            ("inline+simplify:2", "'simplify:2'"),
            ("", "at least one pass"),
        ]:
            with pytest.raises(TransformError) as exc:
                parse_signature(signature)
            assert bad in str(exc.value), signature
        with pytest.raises(TransformError, match="'fusion:-1'"):
            make_candidate(fusion=-1)


class TestEnumeration:
    def test_grid_size(self):
        grid = enumerate_candidates(
            enablers=("unroll",), fusion_levels=(0, 1), regroup=True
        )
        # 2 subsets x 2 fusion levels x 2 regroup choices
        assert len(grid) == 8

    def test_cheapest_first(self):
        grid = enumerate_candidates()
        lengths = [len(s.steps) for s in grid]
        assert lengths[0] == min(lengths)

    def test_max_candidates_caps(self):
        grid = enumerate_candidates(max_candidates=5)
        assert len(grid) == 5

    def test_full_grid_count(self):
        grid = enumerate_candidates()
        assert len(grid) == 2 ** len(ENABLERS) * len(FUSION_LEVELS) * 2

    def test_signatures_unique(self):
        grid = enumerate_candidates()
        signatures = [spec_signature(s) for s in grid]
        assert len(set(signatures)) == len(signatures)
