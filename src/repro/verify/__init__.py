"""Static legality verification and lint for the compiler.

Two complementary tools over the same diagnostic framework:

* :func:`lint_program` — symbolic IR verification of a single program
  (structure, loop-bound sanity, subscript bounds, def-use hygiene);
* :func:`verify_pass` / :class:`PassVerifier` — instance-level
  certification that a transformation preserved every flow, anti, and
  output dependence, built on :func:`snapshot_program` access snapshots.

The CLI exposes both as ``repro lint`` and ``repro verify-pass``; the
pipeline's ``verify=`` mode certifies every pass with
:func:`check_legality` and raises :class:`PassLegalityError` on the
first violation (a :class:`PassVerifier` keeps the verdicts).
"""

from .codes import (
    CodeInfo,
    all_codes,
    explain_code,
    format_code_table,
    get_code,
)
from .diagnostics import (
    Diagnostic,
    DiagnosticBag,
    PassLegalityError,
    Severity,
    VerificationError,
)
from .ir_verifier import lint_program
from .legality import PassVerifier, check_legality, verify_pass
from .races import (
    doall_preservation_check,
    lint_coherence,
    lint_parallelism,
    lint_races,
)
from .snapshot import (
    DEFAULT_VERIFY_PARAM,
    Cell,
    Snapshot,
    WriteInstance,
    format_cell,
    is_scalar_cell,
    scalar_cell,
    snapshot_program,
)

__all__ = [
    "Cell",
    "CodeInfo",
    "DEFAULT_VERIFY_PARAM",
    "Diagnostic",
    "DiagnosticBag",
    "PassLegalityError",
    "PassVerifier",
    "Severity",
    "Snapshot",
    "VerificationError",
    "WriteInstance",
    "all_codes",
    "check_legality",
    "doall_preservation_check",
    "explain_code",
    "format_cell",
    "format_code_table",
    "get_code",
    "is_scalar_cell",
    "lint_coherence",
    "lint_parallelism",
    "lint_program",
    "lint_races",
    "scalar_cell",
    "snapshot_program",
    "verify_pass",
]
