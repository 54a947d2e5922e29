"""Static-profile-driven pipeline autotuner.

``tune(TuneRequest) -> TuneResult`` is the front door, symmetric with
``repro.harness.run``: enumerate legal pipeline candidates, rank them
by statically predicted misses (no tracing), dynamically validate only
the top-k frontier, and gate the committed ``BENCH_tune.json``
artifact against regressions via :func:`check_baseline`.
"""

from .candidates import (
    ENABLERS,
    FUSION_LEVELS,
    canonical_enabler_order,
    enumerate_candidates,
    make_candidate,
    parse_signature,
    spec_signature,
)
from .tuner import (
    OBJECTIVES,
    CandidateScore,
    TuneRequest,
    TuneResult,
    check_baseline,
    evaluate_candidate,
    tune,
)

__all__ = [
    "CandidateScore",
    "ENABLERS",
    "FUSION_LEVELS",
    "OBJECTIVES",
    "TuneRequest",
    "TuneResult",
    "canonical_enabler_order",
    "check_baseline",
    "enumerate_candidates",
    "evaluate_candidate",
    "make_candidate",
    "parse_signature",
    "spec_signature",
    "tune",
]
