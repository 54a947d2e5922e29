"""Static symbolic reuse analysis — the trace-free locality engine.

Computes per-reference reuse-distance polynomials, predicted histograms
and miss counts, evadable-reuse classification, and predictive locality
lints directly from the loop IR, with no interpretation and no trace
(Razzak et al., *Static Reuse Profile Estimation for Array
Applications*; Zhu et al., *Fully Symbolic Analysis of Loop Locality*;
paper §2.1).

The reference model flattens the program's one lowering
(:func:`repro.lang.lowering.lower`), the numbering the tracers fold, so
static reference ids are trace reference ids by construction.

Layering: depends on ``lang``, ``locality`` (result types only), ``obs``
and ``verify`` (diagnostics).  Importing it loads no tracer, simulator
or compiler driver; the coherence analyzer reaches the production tracer
and the MSI automaton inside its call
(``tests/integration/test_layering.py``).
"""

from .coherence import (
    ArraySharing,
    CoherenceProfile,
    SharingWitness,
    analyze_coherence,
)
from .dependence_test import solve_sum
from .lints import lint_static
from .model import LoopCtx, StaticModel, StaticRef, build_model
from .multicore import MulticorePrediction, predict_multicore
from .parallelism import (
    AxisVerdict,
    ParallelismProfile,
    RaceWitness,
    analyze_parallelism,
)
from .poly import Poly
from .profile import EvaluatedClass, StaticProfile, analyze_program
from .regions import Hull, Regions
from .reuse import (
    ClassProfile,
    Component,
    shift_question,
    solve_shift,
)
from .schedule import (
    parse_schedule,
    preserves_affinity,
    round_robin_positions,
    schedule_assignments,
    schedule_chunks,
)

__all__ = [
    "ArraySharing",
    "AxisVerdict",
    "CoherenceProfile",
    "SharingWitness",
    "ClassProfile",
    "Component",
    "EvaluatedClass",
    "Hull",
    "LoopCtx",
    "MulticorePrediction",
    "ParallelismProfile",
    "Poly",
    "RaceWitness",
    "Regions",
    "StaticModel",
    "StaticProfile",
    "StaticRef",
    "analyze_coherence",
    "analyze_parallelism",
    "analyze_program",
    "build_model",
    "lint_static",
    "parse_schedule",
    "predict_multicore",
    "preserves_affinity",
    "round_robin_positions",
    "schedule_assignments",
    "schedule_chunks",
    "shift_question",
    "solve_shift",
]
