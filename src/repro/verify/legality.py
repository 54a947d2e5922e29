"""Pass-legality certification from access snapshots.

``check_legality(before, after)`` compares two :class:`Snapshot` objects
and certifies that the transformation between them preserved the
program's dependence structure.  The certificate is instance-level: for
every memory cell, both programs must perform the *same chain of writes*
(same count, same constant-folded value signatures in the same order),
and every write instance must observe the *same producing write epoch*
for each cell it reads.

Why this implies dependence preservation:

* equal read epochs ⇒ every read-after-write (flow) edge reaches the
  same producer — a statement hoisted above its producer would observe
  an earlier epoch;
* equal write chains per cell ⇒ write-after-write (output) edges keep
  their order — swapped writes show up as swapped signatures;
* the two together ⇒ write-after-read (anti) edges hold: a write moved
  ahead of a read it used to follow bumps the epoch that read observes.

Violations become structured diagnostics that name the offending
dependence edge — kind (flow/output), the array element, and the source
and sink statement instances with their iteration vectors.

Two strictness modes:

* ``strict=True`` (default) — full certification, for passes that only
  restructure control flow and substitute indices (inlining, unrolling,
  peeling, distribution, fusion, alignment, embedding, array splitting).
* ``strict=False`` — for passes that legitimately rewrite arithmetic
  (``simplify_program``, ``propagate_scalar_constants``): scalar cells
  are exempt and value signatures are not compared, but array write
  chains must keep their length and their array-read epochs.

:class:`PassVerifier` packages the snapshot-diff-raise cycle for the
pipeline's opt-in ``verify=True`` mode.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..lang import Program
from .diagnostics import DiagnosticBag, PassLegalityError
from .snapshot import (
    Snapshot,
    WriteInstance,
    format_cell,
    is_scalar_cell,
    snapshot_program,
)

#: cap per-category diagnostics so a badly broken pass reports the
#: pattern, not a million instances of it
MAX_DIAGS_PER_CODE = 5

#: passes whose whole point is rewriting arithmetic; their legality is
#: checked in relaxed mode (array dataflow only)
RELAXED_PASSES = frozenset({"constprop", "propagate_scalar_constants", "simplify",
                            "simplify_program"})


def _sig_str(sig: object) -> str:
    if isinstance(sig, tuple):
        if sig[0] == "c":
            return str(sig[1])
        if sig[0] == "r":
            return f"read({format_cell(sig[1])}#{sig[2]})"
        if sig[0] == "b":
            return f"({_sig_str(sig[2])} {sig[1]} {_sig_str(sig[3])})"
        if sig[0] == "u":
            return f"(-{_sig_str(sig[1])})"
        if sig[0] == "f":
            return f"{sig[1]}({', '.join(_sig_str(a) for a in sig[2:])})"
    return str(sig)


class _Budget:
    """Per-code diagnostic budget with an overflow note."""

    def __init__(self, bag: DiagnosticBag) -> None:
        self.bag = bag
        self.counts: dict[str, int] = {}

    def error(self, code: str, message: str, **kw: object) -> None:
        n = self.counts.get(code, 0)
        self.counts[code] = n + 1
        if n < MAX_DIAGS_PER_CODE:
            self.bag.error(code, message, **kw)
        elif n == MAX_DIAGS_PER_CODE:
            self.bag.info(
                "L000", f"further {code} diagnostics suppressed "
                f"(first {MAX_DIAGS_PER_CODE} shown)"
            )


def _array_reads(inst: WriteInstance) -> tuple:
    return tuple((c, e) for c, e in inst.reads if not is_scalar_cell(c))


def _check_chain(
    cell,
    bchain: list[WriteInstance],
    achain: list[WriteInstance],
    pass_name: str,
    strict: bool,
    out: _Budget,
    source_of,
) -> None:
    where = format_cell(cell)
    if len(bchain) != len(achain):
        out.error(
            "L103",
            f"cell {where} written {len(bchain)} time(s) before the pass "
            f"but {len(achain)} after — write instances were "
            + ("lost" if len(achain) < len(bchain) else "duplicated"),
            where=where,
            stmt=(achain or bchain)[-1].stmt,
            **{"pass": pass_name},
        )
        return
    for epoch, (b, a) in enumerate(zip(bchain, achain)):
        # read epochs first: a mismatch here IS a broken dependence edge,
        # and should be reported as such (not as a value difference, even
        # though the epoch is also embedded in the value signature)
        breads = b.reads if strict else _array_reads(b)
        areads = a.reads if strict else _array_reads(a)
        if breads != areads:
            bmap = dict(breads)
            for rcell, repoch in areads:
                want = bmap.get(rcell)
                if want is None or want == repoch:
                    continue
                relt = format_cell(rcell)
                out.error(
                    "L101",
                    f"flow dependence on {relt} violated: {a.location()!r} "
                    f"must observe write #{want} of {relt} but now observes "
                    f"#{repoch} "
                    + (
                        "(it reads the value too early — the producing "
                        "write has not happened yet)"
                        if repoch < want
                        else "(an intervening write clobbered the value — "
                        "an anti dependence was reversed)"
                    ),
                    where=relt,
                    stmt=a.stmt,
                    kind="flow",
                    element=relt,
                    source=(
                        "initial value" if want < 0 else source_of(rcell, want)
                    ),
                    sink=a.location(),
                    observed=f"write #{repoch}",
                    expected=f"write #{want}",
                    **{"pass": pass_name},
                )
                return
            if strict:
                out.error(
                    "L106",
                    f"write #{epoch} to {where} reads a different set of "
                    "cells than before the pass",
                    where=where,
                    stmt=a.stmt,
                    before=", ".join(
                        f"{format_cell(c)}#{e}" for c, e in breads
                    ),
                    after=", ".join(
                        f"{format_cell(c)}#{e}" for c, e in areads
                    ),
                    **{"pass": pass_name},
                )
                return
        if strict and b.sig != a.sig:
            # same multiset of signatures but a different order at this
            # epoch means the writes were reordered: an output dependence
            # on this cell was reversed.
            bsigs = sorted(_sig_str(w.sig) for w in bchain)
            asigs = sorted(_sig_str(w.sig) for w in achain)
            if bsigs == asigs:
                out.error(
                    "L105",
                    f"output dependence on {where} violated: write #{epoch} "
                    f"was {b.location()!r} but is now {a.location()!r} "
                    "(writes to this cell were reordered)",
                    where=where,
                    stmt=a.stmt,
                    kind="output",
                    element=where,
                    source=b.location(),
                    sink=a.location(),
                    **{"pass": pass_name},
                )
            else:
                out.error(
                    "L104",
                    f"write #{epoch} to {where} computes a different value: "
                    f"{_sig_str(b.sig)} before vs {_sig_str(a.sig)} after",
                    where=where,
                    stmt=a.stmt,
                    source=b.location(),
                    sink=a.location(),
                    **{"pass": pass_name},
                )
            return


def check_legality(
    before: Snapshot,
    after: Snapshot,
    pass_name: str = "transform",
    strict: Optional[bool] = True,
) -> DiagnosticBag:
    """Certify that ``after`` preserves ``before``'s dependence structure.

    Returns the diagnostics (empty bag = certified legal).  Never raises;
    use :meth:`DiagnosticBag.raise_if_errors` or :class:`PassVerifier`
    when violations should be fatal.  ``strict=None`` decides by pass
    name: passes in :data:`RELAXED_PASSES` get the relaxed check,
    everything else the full one.
    """
    if strict is None:
        strict = pass_name not in RELAXED_PASSES
    bag = DiagnosticBag()
    out = _Budget(bag)
    if before.params != after.params:
        bag.error(
            "L100",
            f"snapshots taken at different parameters: {before.params} "
            f"vs {after.params}",
            **{"pass": pass_name},
        )
        return bag

    def skip(cell) -> bool:
        return not strict and is_scalar_cell(cell)

    bcells = {c for c in before.cells() if not skip(c)}
    acells = {c for c in after.cells() if not skip(c)}
    for cell in sorted(bcells - acells):
        out.error(
            "L102",
            f"cell {format_cell(cell)} is written before the pass but "
            "never after (writes were lost)",
            where=format_cell(cell),
            stmt=before.writes[cell][-1].stmt,
            **{"pass": pass_name},
        )
    for cell in sorted(acells - bcells):
        out.error(
            "L102",
            f"cell {format_cell(cell)} is written after the pass but "
            "never before (writes appeared out of nowhere)",
            where=format_cell(cell),
            stmt=after.writes[cell][-1].stmt,
            **{"pass": pass_name},
        )

    def source_of(cell, epoch):
        chain = before.writes.get(cell)
        if chain and 0 <= epoch < len(chain):
            return chain[epoch].location()
        return f"write #{epoch}"

    for cell in sorted(bcells & acells):
        _check_chain(
            cell,
            before.writes[cell],
            after.writes[cell],
            pass_name,
            strict,
            out,
            source_of,
        )
    return bag


def verify_pass(
    before: Program,
    after: Program,
    pass_name: str = "transform",
    params: Optional[Mapping[str, int]] = None,
    strict: Optional[bool] = None,
    steps: int = 1,
) -> DiagnosticBag:
    """Snapshot both programs and certify the transformation between them
    (``strict`` defaults by pass name, see :func:`check_legality`)."""
    b = snapshot_program(before, params, steps)
    a = snapshot_program(after, params, steps)
    return check_legality(b, a, pass_name=pass_name, strict=strict)


class PassVerifier:
    """Stateful checker for a pipeline: snapshot once, verify each stage.

    Usage::

        verifier = PassVerifier(program, params={"N": 8})
        ...
        p = some_pass(p)
        verifier.check("some_pass", p)   # raises PassLegalityError on a
                                         # violation, then re-baselines

    Each successful check makes the new program the baseline, so a
    pipeline of n passes costs n+1 snapshots and failures blame the
    exact pass that broke the program.
    """

    def __init__(
        self,
        program: Program,
        params: Optional[Mapping[str, int]] = None,
        steps: int = 1,
    ) -> None:
        self.params = params
        self.steps = steps
        self.baseline = self.snapshot(program)
        self.history: list[tuple[str, DiagnosticBag]] = []

    def snapshot(self, program: Program) -> Snapshot:
        """``program``'s write chains at this verifier's parameters."""
        return snapshot_program(program, self.params, self.steps)

    def record(self, pass_name: str, bag: DiagnosticBag) -> DiagnosticBag:
        """Log one verdict in ``history``; raise if it has errors (the
        pass manager replays the verdicts of shared prefixes through here)."""
        self.history.append((pass_name, bag))
        if bag.has_errors():
            raise PassLegalityError.from_bag(f"pass {pass_name!r}", bag)
        return bag

    def check(
        self,
        pass_name: str,
        program: Program,
        strict: Optional[bool] = None,
    ) -> DiagnosticBag:
        """Certify ``program`` against the current baseline; re-baseline.

        Raises :class:`PassLegalityError` when the pass broke a
        dependence; the exception's ``bag`` carries the diagnostics.
        """
        snap = self.snapshot(program)
        bag = self.record(
            pass_name,
            check_legality(self.baseline, snap, pass_name=pass_name, strict=strict),
        )
        self.baseline = snap
        return bag
