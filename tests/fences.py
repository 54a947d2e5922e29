"""The fence table: every golden view of a compiled variant, in one place.

A *variant* is one study program compiled at one optimization level:
the output of fusion (§2.3) and regrouping (§3) that every measurement
reads.  The programs are the five registry applications and fft at
the two sizes the fences pin, ``fft16`` and ``fft64`` (fft bakes its
size in).  A *fence kind* is one view of a variant pinned bit for bit:
its pipeline text, its oracle trace, its static reuse profile, its
parallelism profile, its multicore prediction, its coherence profile or
its dependence snapshot, each with the digest rule in :data:`KINDS`.

``fences.json`` maps ``"<program>/<level>"`` to kind to value; a size,
schedule or thread count is a sub-key where a kind needs one.  The
pipeline kind stays text, one ``integration/golden/pipelines/*.txt``
file per variant, so its diffs read.  Each (program, level) compiles
once per process (:func:`compiled`); a golden test computes its value
with :func:`value` and looks it up with :func:`expected`.

``PYTHONPATH=src python tests/fences.py --rewrite [--kind K]`` rewrites
the rows and prints a variant x kind table of what moved; ``--check``
prints the same table without writing and exits 1 if anything moved.
Rewrite only for an intended change, and explain every moved cell in
the commit.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.core import OPT_LEVELS, compile_variant
from repro.core.fusion import greedy
from repro.interp import trace_program as interp_trace
from repro.lang import to_source, validate
from repro.programs import build_fft, registry
from repro.static import (
    analyze_coherence,
    analyze_parallelism,
    analyze_program,
    predict_multicore,
)
from repro.verify import snapshot_program

FILE = Path(__file__).with_name("fences.json")
PIPELINE_DIR = Path(__file__).parent / "integration" / "golden" / "pipelines"

LEVELS = OPT_LEVELS

#: the programs whose fft is the §2.2 size, and those whose fft is the
#: registry's default (``registry.FFT_DEFAULT_PARAMS``)
AT_FFT16 = ("adi", "fft16", "sp", "sweep3d", "swim", "tomcatv")
AT_FFT64 = ("adi", "fft64", "sp", "sweep3d", "swim", "tomcatv")

#: small concrete sizes the pipeline and trace kinds bind
GOLDEN_PARAMS = {
    "adi": {"N": 11},
    "fft16": {},
    "sp": {"N": 9},
    "sweep3d": {"N": 8},
    "swim": {"N": 11},
    "tomcatv": {"N": 11},
}

#: time steps of the trace kind: >1, so the per-step replay and the
#: oracle's instruction ids are covered
TRACE_STEPS = 2

#: the parallelism kind's sizes: tier-1's (sp's N=7 leaves nest 39's
#: ``for k = 7, N - 1`` empty), then a fig-10-scale one; fft16 binds none
PARALLELISM_SIZES = {
    "adi": (8, 64), "sp": (7, 12), "sweep3d": (6, 12), "swim": (8, 64), "tomcatv": (8, 64),
}

THREADS = (2, 4)
SCHEDULES = ("static", "static,2", "guided", "dynamic")


FIG10 = {name: registry.get(name).default_params["N"] for name in registry.names()}

#: (program, level) -> the sizes its multicore prediction is pinned at:
#: tier-1's, then the fig-10 size
MULTICORE_SIZES = {
    **{(name, level): (16, FIG10[name])
       for name in ("adi", "swim", "tomcatv", "sweep3d")
       for level in ("noopt", "new")},
    ("sp", "noopt"): (8, FIG10["sp"]),
    ("sp", "regroup"): (8, FIG10["sp"]),
    ("sp", "fusion"): (8,),
    ("sp", "new"): (8,),
}

#: the coherence kind's sizes (fft64 binds none) and its
#: ``"<schedule>-<threads>"`` cases
COHERENCE_PARAMS = {
    "adi": {"N": 16},
    "fft64": {},
    "sp": {"N": 10},
    "sweep3d": {"N": 10},
    "swim": {"N": 16},
    "tomcatv": {"N": 16},
}
COHERENCE_CASES = ("dynamic-4", "guided-4", "static,2-4", "static-2", "static-4")


def name(program: str) -> str:
    """The program's name in test ids: ``fft16`` and ``fft64`` are ``fft``."""
    return "fft" if program.startswith("fft") else program


def at(sub: Optional[str]) -> dict:
    """The parameters a size sub-key ``"N=<n>"`` binds (None: none)."""
    return {"N": int(sub[2:])} if sub else {}


@functools.cache
def source(program: str):
    """The validated program, built once per process: its levels share
    one pass trie."""
    if program.startswith("fft"):
        return validate(build_fft(int(program[3:])))
    return validate(registry.get(program).build())


@functools.cache
def compiled(program: str, level: str):
    """The variant, compiled once per process.  The ``fusedN`` label
    counter is reset first, so labels are a function of the (program,
    level) pair alone."""
    greedy._Item._uid = 0
    return compile_variant(source(program), level)


def steps(program: str) -> int:
    """The registry step count (fft takes one)."""
    return 1 if program.startswith("fft") else registry.get(program).steps


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(payload) -> str:
    """The sha256 of ``payload`` as sorted-key JSON."""
    return sha(json.dumps(payload, sort_keys=True))


# -- the digest rules ----------------------------------------------------------


def variant_fingerprint(variant, params) -> str:
    """Everything a level produces, as one deterministic text: the
    transformed program, the layout placements at ``params``, the fusion
    report, the regrouping plan and the stage checkpoints."""
    lines = [f"level: {variant.level}"]
    lines.append(f"stages: {', '.join(variant.stages)}")
    if variant.fusion_report is not None:
        lines.append("fusion report:")
        lines.append("  " + variant.fusion_report.summary().replace("\n", "\n  "))
    if variant.regroup is not None:
        lines.append("regroup plan:")
        lines.append("  " + variant.regroup.describe().replace("\n", "\n  "))
    layout = variant.layout(params)
    lines.append(f"layout at {dict(sorted(params.items()))}:")
    for array, placement in sorted(layout.placements.items()):
        lines.append(
            f"  {array}: offset {placement.offset}, "
            f"strides {tuple(placement.strides)}"
        )
    lines.append("program:")
    lines.append(to_source(variant.program).rstrip("\n"))
    return "\n".join(lines) + "\n"


def trace_fingerprint(trace) -> str:
    """A stable hash of an :class:`~repro.interp.trace.AccessTrace`, over
    every array that defines trace equality (sha256 prefix, the scheme
    of :func:`repro.harness.cache.layout_fingerprint`)."""
    h = hashlib.sha256()
    h.update(repr(trace.array_names).encode())
    h.update(repr(trace.array_sizes).encode())
    h.update(repr([(r.ref_id, r.stmt_id, r.array, r.is_write, r.text) for r in trace.refs]).encode())
    for arr in (trace.array_ids, trace.elems, trace.ref_ids):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    h.update(np.packbits(np.asarray(trace.writes, dtype=bool)).tobytes())
    if trace.instr_ids is not None:
        h.update(np.ascontiguousarray(trace.instr_ids, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def _pipeline(program, level, sub):
    return variant_fingerprint(compiled(program, level), GOLDEN_PARAMS[program])


def _trace(program, level, sub):
    trace = interp_trace(
        compiled(program, level).program, GOLDEN_PARAMS[program],
        steps=TRACE_STEPS, with_instr=True,
    )
    return trace_fingerprint(trace)


def _reuse(program, level, sub):
    profile = analyze_program(compiled(program, level).program, steps=steps(program))
    return digest(profile.to_json())


def _parallelism(program, level, sub):
    return digest(analyze_parallelism(compiled(program, level).program, at(sub)).as_dict())


def _multicore(program, level, sub):
    """``"T=<threads> <schedule>"`` -> the digest of the ``float.hex``
    spelling of that prediction's private and shared ``(count,
    distance)`` pairs and cold counts; the profiles are analyzed once."""
    variant, params = compiled(program, level).program, at(sub)
    profile = analyze_program(variant, steps=steps(program))
    parallelism = analyze_parallelism(variant, params)
    out = {}
    for threads in THREADS:
        for schedule in SCHEDULES:
            pred = predict_multicore(profile, parallelism, params, threads, schedule)
            values = [
                [[c.hex(), d.hex()] for c, d in pred.private_pairs],
                [[c.hex(), d.hex()] for c, d in pred.shared_pairs],
                pred.private_cold.hex(),
                pred.shared_cold.hex(),
            ]
            out[f"T={threads} {schedule}"] = sha(json.dumps(values))
    return out


def coherence_profile(program: str, case: str = "static-4"):
    """The ``noopt`` variant's coherence profile at its
    :data:`COHERENCE_PARAMS` under ``"<schedule>-<threads>"``."""
    schedule, threads = case.rsplit("-", 1)
    return analyze_coherence(
        compiled(program, "noopt").program, COHERENCE_PARAMS[program] or None,
        threads=int(threads), schedule=schedule, steps=steps(program),
    )


def _coherence(program, level, sub):
    return coherence_profile(program, sub).as_dict()


def _sig(sig: object) -> object:
    """A snapshot signature as JSON: every number as ``str(Fraction)``."""
    if isinstance(sig, tuple):
        if sig[0] == "r":  # ("r", cell, epoch)
            return sig
        return [_sig(part) for part in sig]
    if isinstance(sig, (str, int)):
        return str(sig)
    return str(Fraction(sig))


def _snapshot(program, level, sub):
    """The canonical write chains at the default verify size: per cell its
    write instances' rendered statement, iteration vector, value
    signature and ``(cell, epoch)`` reads."""
    snap = snapshot_program(compiled(program, level).program)
    texts: dict[int, str] = {}  # each assignment rendered once

    def instance(w):
        text = texts.get(id(w.assign))
        if text is None:
            text = texts[id(w.assign)] = w.stmt
        return [text, w.iters, _sig(w.sig), w.reads]

    chains = [
        [cell, [instance(w) for w in chain]]
        for cell, chain in sorted(snap.writes.items())
    ]
    return sha(json.dumps(chains, separators=(",", ":")))


# -- the kind table ------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """One golden view: the rule ``(program, level, sub) -> value`` and
    the (program, level) rows it pins, each with its sub-keys (None: the
    row holds one value)."""

    rule: Callable
    rows: dict


def _subs(sizes) -> tuple:
    """Size sub-keys ``"N=<n>"``; one value where there are no sizes."""
    return tuple(f"N={n}" for n in sizes) or (None,)


def _rows(programs, subs=lambda program: (None,)) -> dict:
    return {(program, level): subs(program) for program in programs for level in LEVELS}


KINDS = {
    "pipeline": Kind(_pipeline, _rows(AT_FFT16)),
    "trace": Kind(_trace, _rows(AT_FFT16)),
    "reuse": Kind(_reuse, _rows(AT_FFT64)),
    "parallelism": Kind(_parallelism, _rows(
        AT_FFT16, lambda program: _subs(PARALLELISM_SIZES.get(program, ())),
    )),
    "multicore": Kind(_multicore, {row: _subs(n) for row, n in MULTICORE_SIZES.items()}),
    "coherence": Kind(_coherence, {(program, "noopt"): COHERENCE_CASES for program in AT_FFT64}),
    "snapshot": Kind(_snapshot, _rows(AT_FFT64)),
}


def value(kind: str, program: str, level: str, sub: Optional[str] = None):
    """The value of one cell, computed now."""
    return KINDS[kind].rule(program, level, sub)


def pipeline_path(program: str, level: str) -> Path:
    return PIPELINE_DIR / f"{name(program)}-{level}.txt"


def stored() -> dict:
    """Every committed row of ``fences.json``."""
    return json.loads(FILE.read_text()) if FILE.exists() else {}


_stored = functools.cache(stored)


def expected(kind: str, program: str, level: str, sub: Optional[str] = None):
    """The committed value of one cell."""
    if kind == "pipeline":
        return pipeline_path(program, level).read_text()
    cell = _stored()[f"{program}/{level}"][kind]
    return cell if sub is None else cell[sub]


# -- the rewriter --------------------------------------------------------------


def computed(kind: str) -> dict:
    """Row -> the kind's value (a dict of sub-keys where it has them),
    every row computed now."""
    spec, out = KINDS[kind], {}
    for (program, level), subs in spec.rows.items():
        out[f"{program}/{level}"] = (
            spec.rule(program, level, None) if subs == (None,)
            else {sub: spec.rule(program, level, sub) for sub in subs}
        )
    return out


def committed(kind: str) -> dict:
    """Row -> the kind's committed value; a pipeline file no row names is
    keyed by its file name."""
    if kind == "pipeline":
        rows = {pipeline_path(*row).name: "/".join(row) for row in KINDS[kind].rows}
        return {rows.get(p.name, p.name): p.read_text() for p in PIPELINE_DIR.glob("*.txt")}
    return {row: cells[kind] for row, cells in stored().items() if kind in cells}


def moved(old: dict, new: dict) -> dict:
    """Row -> what moved: ``new``, ``gone``, the moved sub-keys joined
    by ``;``, or ``moved`` where the whole row did."""
    out = {}
    for row in sorted(old.keys() | new.keys()):
        a, b = old.get(row), new.get(row)
        if row not in old:
            out[row] = "new"
        elif row not in new:
            out[row] = "gone"
        elif a != b:
            subs = isinstance(a, dict) and isinstance(b, dict) and sorted(
                k for k in a.keys() | b.keys() if a.get(k) != b.get(k)
            )
            out[row] = ";".join(subs) if subs and len(subs) < len(a) else "moved"
    return out


def table(changes: dict) -> str:
    """The variant x kind table of ``{kind: {row: what}}``: a line per
    moved row, ``.`` where that kind did not move."""
    kinds = list(changes)
    rows = sorted({row for cells in changes.values() for row in cells})
    lines = [["variant", *kinds]] + [
        [row, *(changes[kind].get(row, ".") for kind in kinds)] for row in rows
    ]
    widths = [max(len(line[i]) for line in lines) for i in range(len(lines[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in lines
    )


def rewrite(kind: str, new: dict) -> None:
    if kind == "pipeline":
        rows = {"/".join(row): pipeline_path(*row) for row in KINDS[kind].rows}
        for path in PIPELINE_DIR.glob("*.txt"):
            if path not in rows.values():
                path.unlink()
        for row, text in new.items():
            rows[row].write_text(text)
        return
    data = stored()
    for cells in data.values():
        cells.pop(kind, None)
    for row, cell in new.items():
        data.setdefault(row, {})[kind] = cell
    data = {row: cells for row, cells in data.items() if cells}
    FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="print what moved without writing; exit 1 if anything did")
    mode.add_argument("--rewrite", action="store_true",
                      help="rewrite the rows and print what moved")
    parser.add_argument("--kind", action="append", choices=sorted(KINDS),
                        help="only this kind (repeatable; default: every kind)")
    args = parser.parse_args(argv)
    changes = {}
    for kind in args.kind or list(KINDS):
        new = computed(kind)
        changes[kind] = moved(committed(kind), new)
        if args.rewrite:
            rewrite(kind, new)
    print(table(changes))
    count = sum(map(len, changes.values()))
    print(f"{count} moved rows ({', '.join(changes)})")
    return 1 if args.check and count else 0


if __name__ == "__main__":
    raise SystemExit(main())
