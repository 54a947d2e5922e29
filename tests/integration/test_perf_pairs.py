"""``tools/perf_pairs.py``'s claim verdict: the gain rule of
perf/README.md ("Comparing two sets of runs") on fixed samples; and what
it says when a run fails."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

#: the parent's runs: median 1.00, quartiles [0.9875, 1.0125]
A = [0.97, 0.98, 0.99, 1.00, 1.00, 1.00, 1.00, 1.01, 1.02, 1.03]


def test_nine_wins_and_a_gap_wider_than_the_quartiles_hold():
    b = [x - 0.10 for x in A[:9]] + [A[9] + 0.01]  # nine wins, one loss
    assert perf_pairs.claim_holds(A, b)


def test_eight_wins_do_not_hold():
    b = [x - 0.10 for x in A[:8]] + [A[8], A[9] + 0.01]  # a tie, a loss
    assert not perf_pairs.claim_holds(A, b)


def test_a_gap_inside_the_quartile_distance_does_not_hold():
    # ten wins, but the medians are 0.02 apart and the quartiles 0.025
    assert not perf_pairs.claim_holds(A, [x - 0.02 for x in A])
    assert perf_pairs.claim_holds(A, [x - 0.03 for x in A])


def test_a_slower_change_never_holds():
    assert not perf_pairs.claim_holds(A, [x + 0.10 for x in A])


@pytest.mark.parametrize(
    "stdout, stderr, shown",
    [
        ("", "Traceback (most recent call last):\nZeroDivisionError: boom\n",
         "ZeroDivisionError: boom"),
        ("== small_matrix\nnot json\n", "MemoryError\n", "MemoryError"),
        ("   checks: 2 failed of 9\n   FAILED adi trace\n{\"failed\": 2}\n", "",
         "checks: 2 failed of 9\nFAILED adi trace"),
    ],
)
def test_a_failed_run_names_its_checkout_seed_status_and_stderr(
    monkeypatch, stdout, stderr, shown
):
    def crashed(cmd, **kw):
        return subprocess.CompletedProcess(cmd, 1, stdout=stdout, stderr=stderr)

    monkeypatch.setattr(perf_pairs.subprocess, "run", crashed)
    with pytest.raises(SystemExit) as exc:
        perf_pairs.run_once("../parent", "small_matrix", 7)
    assert str(exc.value).startswith("../parent seed 7: exit status 1\n")
    assert str(exc.value).endswith(shown)
