"""Differential trace suite: codegen tracer vs. the interpreter oracle.

Every program x level variant of the study (42 in all) must produce a
trace **bit-for-bit identical** to ``repro.interp.tracegen`` — array
ids, element offsets, read/write flags and reference ids — at the
configuration ``measure_variant`` runs (the codegen tracer has no other).
On top of the pairwise comparison, the oracle's trace of each variant,
instruction ids included, is pinned by a committed fingerprint
(``golden_trace_fingerprints.json``), so a change to the shared lowering
that moves both tracers together still fails loudly.

Run ``python tests/codegen/test_differential_traces.py`` to regenerate
the fingerprint file after an *intentional* trace change (and say so in
the commit).

The tier-1 cases run at the small golden sizes; the ``slow`` marker
re-runs the full matrix at the fig-10 registry sizes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN_FILE = Path(__file__).parent / "golden_trace_fingerprints.json"

# the golden variant helpers live with the pipeline goldens; pytest only
# auto-inserts this file's own directory (a conftest.py here would
# shadow tests/conftest.py for sibling suites, so the path is set inline)
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "integration"))

if __name__ != "__main__":
    from golden_pipelines import (
        GOLDEN_LEVELS,
        GOLDEN_PARAMS,
        build_golden_program,
        reset_fusion_uids,
    )

    from repro.codegen import trace_fingerprint
    from repro.codegen import trace_program as codegen_trace
    from repro.core import compile_variant
    from repro.interp import trace_program as interp_trace

    CASES = [
        (name, level)
        for name in sorted(GOLDEN_PARAMS)
        for level in GOLDEN_LEVELS
    ]

STEPS = 2  # >1 so the per-step tiling (and the oracle's instruction ids) is covered


_VARIANT_CACHE: dict = {}


def _variant_program(name, level):
    # compiled once per (name, level): both the pairwise and the golden
    # test trace the same immutable program
    key = (name, level)
    if key not in _VARIANT_CACHE:
        program = build_golden_program(name)
        reset_fusion_uids()
        _VARIANT_CACHE[key] = compile_variant(program, level).program
    return _VARIANT_CACHE[key]


def assert_traces_identical(a, b, label=""):
    """Field-by-field bit equality of two AccessTrace objects."""
    assert a.array_names == b.array_names, label
    assert a.array_sizes == b.array_sizes, label
    assert len(a) == len(b), f"{label}: {len(a)} vs {len(b)} accesses"
    for field in ("array_ids", "elems", "writes", "ref_ids"):
        fa, fb = getattr(a, field), getattr(b, field)
        assert np.array_equal(fa, fb), f"{label}: {field} differs"
    ia, ib = a.instr_ids, b.instr_ids
    assert (ia is None) == (ib is None), f"{label}: instr_ids presence"
    if ia is not None:
        assert np.array_equal(ia, ib), f"{label}: instr_ids differ"


if __name__ != "__main__":

    @pytest.mark.parametrize(
        "name,level", CASES, ids=[f"{n}-{lv}" for n, lv in CASES]
    )
    def test_trace_matches_interpreter(name, level):
        program = _variant_program(name, level)
        params = GOLDEN_PARAMS[name]
        ref = interp_trace(program, params, steps=STEPS)
        out = codegen_trace(program, params, steps=STEPS)
        assert_traces_identical(ref, out, f"{name}/{level}")

    @pytest.mark.parametrize(
        "name,level", CASES, ids=[f"{n}-{lv}" for n, lv in CASES]
    )
    def test_trace_matches_golden_fingerprint(name, level):
        assert GOLDEN_FILE.exists(), (
            f"missing {GOLDEN_FILE}; regenerate with "
            "'python tests/codegen/test_differential_traces.py'"
        )
        golden = json.loads(GOLDEN_FILE.read_text())
        program = _variant_program(name, level)
        trace = interp_trace(
            program, GOLDEN_PARAMS[name], steps=STEPS, with_instr=True
        )
        key = f"{name}-{level}"
        assert key in golden, f"no golden fingerprint for {key}; regenerate"
        assert trace_fingerprint(trace) == golden[key], (
            f"{key}: trace moved; if intentional, regenerate the goldens"
        )

    def test_goldens_cover_all_variants():
        golden = json.loads(GOLDEN_FILE.read_text())
        assert sorted(golden) == sorted(f"{n}-{lv}" for n, lv in CASES)
        assert len(golden) == 42

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name,level", CASES, ids=[f"{n}-{lv}" for n, lv in CASES]
    )
    def test_trace_matches_interpreter_full_size(name, level):
        """The full matrix at the fig-10 registry sizes (tier 2)."""
        from repro.programs import registry

        try:
            entry = registry.get(name)
            params = dict(entry.default_params)
            steps = entry.steps
        except KeyError:  # fft is built, not registered
            params, steps = GOLDEN_PARAMS[name], 1
        program = _variant_program(name, level)
        ref = interp_trace(program, params, steps=steps)
        out = codegen_trace(program, params, steps=steps)
        assert_traces_identical(ref, out, f"{name}/{level} full")


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "integration"))
    from golden_pipelines import (
        GOLDEN_LEVELS,
        GOLDEN_PARAMS,
        build_golden_program,
        reset_fusion_uids,
    )

    from repro.codegen import trace_fingerprint
    from repro.core import compile_variant
    from repro.interp import trace_program as interp_trace

    golden = {}
    for name in sorted(GOLDEN_PARAMS):
        for level in GOLDEN_LEVELS:
            program = build_golden_program(name)
            reset_fusion_uids()
            variant = compile_variant(program, level)
            trace = interp_trace(
                variant.program, GOLDEN_PARAMS[name], steps=STEPS,
                with_instr=True,
            )
            golden[f"{name}-{level}"] = trace_fingerprint(trace)
            print(f"{name}-{level}: {golden[f'{name}-{level}']}")
    GOLDEN_FILE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE} ({len(golden)} fingerprints)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
