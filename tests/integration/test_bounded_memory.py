"""The measuring chain's memory does not grow with the trace.

``run()`` traces, lays out and simulates one chunk at a time, each level
carrying its LRU state across chunks, so a paper-scale run fits in a
fixed bound.  adi at N=1024 on the unscaled Octane is 58.7 M accesses
(the whole-stream chain peaked at 4.2 GB); it runs in a child process,
whose peak resident set is the measurement.
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
    import json, resource
    from repro.harness import RunRequest, run
    from repro.memsim import octane

    result = run(RunRequest("adi", levels="noopt", params={"N": 1024},
                            machine=octane(), cache=None))[0]
    print(json.dumps({
        "accesses": result.stats.accesses,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    """
)


@pytest.mark.slow
def test_paper_scale_run_stays_under_the_bound():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["accesses"] == 58_675_200
    assert report["maxrss_mb"] <= BOUND_MB, report
