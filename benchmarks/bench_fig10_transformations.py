"""E5/E8 — Figure 10: effect of the transformations on execution time and
L1 / L2 / TLB misses, normalized to the original program.

Paper shapes this must reproduce (§4.3):

* the combined strategy (fusion + regrouping) always wins;
* fusion *alone* can lose (Swim on Origin2000 −6%, Tomcatv −1–2%,
  3-level SP 1.16× slower with 8.8× TLB misses) and regrouping recovers;
* ADI (largest input : cache ratio) gains the most — paper 2.33×;
* SP shows the four-bar story: original / 1-level fusion / 3-level
  fusion / 3-level fusion + regrouping.

Absolute counts differ (scaled simulator, see EXPERIMENTS.md); the
directions and rough factors are asserted below.
"""

import pytest

from repro.harness import (
    NORMALIZED_HEADERS,
    TIMING_HEADERS,
    RunRequest,
    default_cache_dir,
    format_table,
    normalized_rows,
    timing_rows,
)
from repro.harness import run as run_experiment

LEVELS = {
    "swim": ["noopt", "fusion", "new"],
    "tomcatv": ["noopt", "fusion", "new"],
    "adi": ["noopt", "fusion", "new"],
    "sp": ["noopt", "fusion1", "fusion", "new"],
}

PAPER_NOTES = {
    "swim": "paper: fusion ~ -10% time (Octane), grouping ~2% more",
    "tomcatv": "paper: fusion -1..2%, combined -16% time / -20% L2",
    "adi": "paper: -39% L1, -44% L2, -56% TLB, 2.33x speedup",
    "sp": "paper: 1-level -27% time; 3-level 1.16x slower w/ 8.8x TLB; +grouping 1.5x speedup",
}


def run(app):
    # parallel workers + on-disk trace cache (warm repeats replay)
    results = run_experiment(
        RunRequest(
            program=app,
            levels=LEVELS[app],
            cache=default_cache_dir(),
            jobs=None,  # one worker per CPU
        )
    ).results
    table = format_table(
        NORMALIZED_HEADERS,
        normalized_rows(results),
        title=f"Figure 10 - {app} "
        f"(machine {results[0].stats.machine}, {results[0].trace_length:,} accesses)",
    )
    timing = format_table(
        TIMING_HEADERS,
        timing_rows(results),
        title="per-stage seconds ('-' = served from cache)",
    )
    return results, table + f"\n  {PAPER_NOTES[app]}\n\n" + timing


def norm(results, level, metric="time"):
    base = next(r for r in results if r.level == "noopt")
    target = next(r for r in results if r.level == level)
    return target.stats.normalized_to(base.stats)[metric]


@pytest.mark.parametrize("app", sorted(LEVELS))
def test_fig10(app, benchmark, record_artifact):
    results, table = benchmark.pedantic(run, args=(app,), rounds=1, iterations=1)
    record_artifact(f"fig10_{app}", table)

    # shape assertions per application
    combined = norm(results, "new")
    assert combined < 1.0, f"{app}: combined strategy must beat the original"
    assert norm(results, "new", "l2") < 1.0, f"{app}: combined must cut L2 misses"
    if app == "adi":
        assert combined < 0.6, "ADI gains the most (paper 2.33x)"
    if app == "sp":
        # the TLB explosion of deep fusion without grouping, and its recovery
        fusion_tlb = norm(results, "fusion", "tlb")
        new_tlb = norm(results, "new", "tlb")
        assert fusion_tlb > 4.0, "3-level fusion alone must blow up the TLB"
        assert new_tlb < fusion_tlb / 2, "grouping must recover most of it"
        assert norm(results, "fusion") > 1.0, "3-level fusion alone slows SP"
    if app in ("swim", "tomcatv"):
        # combined at least as good as fusion alone
        assert combined <= norm(results, "fusion") * 1.02
