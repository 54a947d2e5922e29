"""The measuring chain's memory does not grow with the trace.

``run()`` traces, lays out and simulates one chunk at a time, each level
carrying its LRU state across chunks, so a paper-scale run fits in a
fixed bound.  adi at N=1024 on the unscaled Octane is 58.7 M accesses
(the whole-stream chain peaked at 4.2 GB); it runs in a child process,
whose peak resident set is the measurement.  The Walk oracle streams
too: under ``+interp`` a run holds about what it holds under codegen.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: the bound, in MB; the chunked chain peaks at ≈ 80 MB on this run
BOUND_MB = 512

CHILD = textwrap.dedent(
    """
    import json, resource, sys
    from repro.harness import RunRequest, run
    from repro.memsim import octane

    n, engine = int(sys.argv[1]), sys.argv[2]
    result = run(RunRequest("adi", levels="noopt", params={"N": n},
                            machine=octane(), cache=None, engine=engine))[0]
    print(json.dumps({
        "accesses": result.stats.accesses,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    """
)


def _child(n: int, engine: str = "fast+codegen") -> dict:
    """The accesses and peak resident set of one ``run()`` of adi at
    ``N=n`` under ``engine``, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(n), engine],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.slow
def test_paper_scale_run_stays_under_the_bound():
    report = _child(1024)
    assert report["accesses"] == 58_675_200
    assert report["maxrss_mb"] <= BOUND_MB, report


@pytest.mark.slow
def test_the_walk_oracle_streams_like_codegen():
    """adi at N=400 (8.9 M accesses): the oracle held its whole trace
    before its first chunk, and peaked at 6.3x codegen's resident set."""
    codegen, oracle = _child(400), _child(400, "fast+interp")
    assert oracle["accesses"] == codegen["accesses"] == 8_942_400
    assert oracle["maxrss_mb"] <= 2 * codegen["maxrss_mb"], (oracle, codegen)
