"""The end-to-end global strategy (paper §4.1) — pass-manager front end.

``compile_pipeline`` (also spelled ``compile_variant``) runs a program
through a named optimization level:

* ``noopt`` — inline only (the measured "original" program);
* ``fusion`` / ``fusion1`` — preliminary passes + reuse-based fusion at
  all levels / one level, default data layout;
* ``regroup`` — preliminary passes + data regrouping without fusion
  (ablation: "grouping may see little opportunity without fusion");
* ``new`` — the paper's full strategy: fusion then regrouping
  (also reachable as ``fusion+regroup``);
* ``sgi`` — the SGI-compiler stand-in from :mod:`repro.baselines`;
* ``mckinley`` — the restricted-fusion comparator from §5;

or through any pass sequence (``["inline", "fusion:2", "simplify"]``)
or explicit :class:`~repro.core.pm.PipelineSpec`.

Each level is a declarative spec in the :data:`~repro.core.pm.PIPELINES`
table, executed by the :class:`~repro.core.pm.PassManager` (which owns
spans and certification).  Every compile walks the pass trie of the
program it was handed (:meth:`~repro.core.pm.PassManager.of`), so a
second compile of the same :class:`~repro.lang.Program` object — another
level sharing a prefix, another size, a warm cache phase — executes only
the passes no earlier walk has; the result's ``passes_run`` /
``shared_steps`` say which it was.  Unknown level names raise
:class:`~repro.lang.TransformError` listing the known levels.

The result carries the transformed program, a layout factory (regrouping
and padding are *layouts*, so they compose with any trace), and the
transformation reports the benchmarks introspect (loop counts, array
counts — §4.4's structural numbers).
"""

from __future__ import annotations

from typing import Sequence, Union

from ..lang import Program
from ..verify import PassVerifier
from .pm.manager import CompiledVariant, PassManager
from .pm.pipelines import _PRELIMINARY, OPT_LEVELS, PipelineSpec, resolve_pipeline

__all__ = [
    "OPT_LEVELS",
    "CompiledVariant",
    "compile_pipeline",
    "compile_variant",
    "preliminary",
]


def preliminary(program: Program) -> Program:
    """§4.1 preliminary passes: inline, unroll+split, distribute, constprop."""
    spec = PipelineSpec("preliminary", "", _PRELIMINARY)
    return compile_pipeline(program, spec).program


def compile_pipeline(
    program: Program,
    pipeline: Union[str, Sequence[str], PipelineSpec],
    regroup_options=None,
    verify: Union[bool, PassVerifier] = False,
) -> CompiledVariant:
    """Compile ``program`` through ``pipeline``: a level name (strictly
    validated, ``repro pipeline --list``), a pass sequence (the CLI's
    ``--passes`` form), or an explicit :class:`~repro.core.pm.PipelineSpec`.

    ``verify=True`` runs the pass-legality checker after every pass: the
    program is snapshotted at small concrete parameters (8 for every
    parameter) and every dependence must be preserved stage to stage; a
    violation raises :class:`~repro.verify.PassLegalityError` naming the
    offending pass and dependence edge.  Passing a
    :class:`~repro.verify.PassVerifier` instead sets the verification
    size (its ``params`` / ``steps``) and lets the caller inspect its
    per-pass ``history`` afterwards (the CLI's ``verify-pass`` does).
    Verification inspects only the *program* — layouts (regrouping,
    padding) relocate data without reordering accesses, so they need no
    certification.

    The walk is over ``program``'s own trie unless an option a deposit
    or a verdict depends on is not the default — ``regroup_options``, or
    a supplied verifier's size — which gets a private manager, as every
    compile once did.
    """
    spec = resolve_pipeline(pipeline)
    verify_params, verify_steps = None, 1
    if isinstance(verify, PassVerifier):
        verify_params, verify_steps = verify.params, verify.steps
    if regroup_options is None and verify_params is None and verify_steps == 1:
        manager = PassManager.of(program)
    else:
        manager = PassManager(program, regroup_options, verify_params, verify_steps)
    return manager.run(spec, verify)


#: the name the harness, the CLI and the perf ledger compile levels by
compile_variant = compile_pipeline
