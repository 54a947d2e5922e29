"""The end-to-end global strategy (paper §4.1) — pass-manager front end.

``compile_variant`` runs a program through a named optimization level:

* ``noopt`` — inline only (the measured "original" program);
* ``fusion`` / ``fusion1`` — preliminary passes + reuse-based fusion at
  all levels / one level, default data layout;
* ``regroup`` — preliminary passes + data regrouping without fusion
  (ablation: "grouping may see little opportunity without fusion");
* ``new`` — the paper's full strategy: fusion then regrouping
  (also reachable as ``fusion+regroup``);
* ``sgi`` — the SGI-compiler stand-in from :mod:`repro.baselines`;
* ``mckinley`` — the restricted-fusion comparator from §5.

Each level is a declarative :class:`~repro.core.pm.PipelineSpec` in the
:data:`~repro.core.pm.PIPELINES` registry, executed by the
:class:`~repro.core.pm.PassManager` (which owns spans and
certification).  Every function here walks the pass trie of the program
it was handed (:meth:`~repro.core.pm.PassManager.of`), so a second
compile of the same :class:`~repro.lang.Program` object — another level
sharing a prefix, another size, a warm cache phase — executes only the
passes no earlier walk has; the result's ``passes_run`` / ``shared_steps``
say which it was.  ``compile_pipeline`` additionally
accepts a custom pass-name list or an explicit spec; unknown level names
raise :class:`~repro.lang.TransformError` listing the known levels.

The result carries the transformed program, a layout factory (regrouping
and padding are *layouts*, so they compose with any trace), and the
transformation reports the benchmarks introspect (loop counts, array
counts — §4.4's structural numbers).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

from ..lang import Program
from ..verify import PassVerifier
from .pm.manager import CompiledVariant, PassManager
from .pm.pipelines import (
    OPT_LEVELS,
    PipelineSpec,
    preliminary_steps,
    resolve_pipeline,
)

__all__ = [
    "OPT_LEVELS",
    "CompiledVariant",
    "compile_pipeline",
    "compile_variant",
    "preliminary",
]


def preliminary(
    program: Program,
    distribute: bool = True,
    verifier: Optional[PassVerifier] = None,
) -> Program:
    """§4.1 preliminary passes: inline, unroll+split, distribute, constprop.

    ``distribute=False`` skips maximal loop distribution — used by the
    regroup-only ablation, which should regroup the *original* loop
    structure rather than a scattered one.  A ``verifier`` certifies
    every pass in turn (raising :class:`~repro.verify.PassLegalityError`
    on the first broken dependence).
    """
    spec = PipelineSpec("preliminary", "", preliminary_steps(distribute))
    return compile_pipeline(program, spec, verify=verifier or False).program


def compile_pipeline(
    program: Program,
    pipeline: Union[str, Sequence[str], PipelineSpec],
    regroup_options=None,
    verify: Union[bool, PassVerifier] = False,
    verify_params: Optional[Mapping[str, int]] = None,
) -> CompiledVariant:
    """Compile ``program`` through ``pipeline``.

    ``pipeline`` may be a registered level name (strictly validated), an
    explicit :class:`~repro.core.pm.PipelineSpec`, or a sequence of
    registered pass names (the CLI's ``--passes`` form).

    The walk is over ``program``'s own trie unless an option a deposit
    or a verdict depends on is not the default — ``regroup_options``, or
    a verification size (``verify_params``, or those of a supplied
    verifier) — which gets a private manager, as every compile once did.
    """
    spec = resolve_pipeline(pipeline)
    verify_steps = 1
    if isinstance(verify, PassVerifier):
        verify_params, verify_steps = verify.params, verify.steps
    if regroup_options is None and verify_params is None and verify_steps == 1:
        manager = PassManager.of(program)
    else:
        manager = PassManager(program, regroup_options, verify_params, verify_steps)
    return manager.run(spec, verify)


def compile_variant(
    program: Program,
    level: str,
    regroup_options=None,
    verify: Union[bool, PassVerifier] = False,
    verify_params: Optional[Mapping[str, int]] = None,
) -> CompiledVariant:
    """Compile ``program`` at optimization level ``level``.

    Backward-compatible front over :func:`compile_pipeline`.  ``level``
    must name a registered pipeline (``repro pipeline --list``); loose
    spellings the old prefix matching accepted (``fusionXYZ``) raise
    :class:`~repro.lang.TransformError`.

    ``verify=True`` runs the pass-legality checker after every pass: the
    program is snapshotted at small concrete parameters
    (``verify_params``, default 8 for every parameter) and every
    dependence must be preserved stage to stage; a violation raises
    :class:`~repro.verify.PassLegalityError` naming the offending pass
    and dependence edge.  Passing a :class:`~repro.verify.PassVerifier`
    instance instead lets the caller inspect its per-pass ``history``
    afterwards (the CLI's ``verify-pass`` does).  Verification inspects
    only the *program* — layouts (regrouping, padding) relocate data
    without reordering accesses, so they need no certification.
    """
    return compile_pipeline(
        program,
        level,
        regroup_options=regroup_options,
        verify=verify,
        verify_params=verify_params,
    )
