"""Registry of the paper's benchmark programs.

Every entry knows how to build its program, which input sizes the paper
used, which (scaled) sizes the harness defaults to, and the structural
facts Fig. 9 reports — so the application-table benchmark can print
paper-vs-ours side by side.

:func:`resolve_target` is the one place a *target* — what ``run()``,
``tune()``, pool workers and every CLI subcommand are pointed at —
becomes a program with its size, step count and machine defaults.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from ..lang import Program, ReproError, validate
from . import adi, fft, sp, sweep3d, swim, tomcatv


@dataclass(frozen=True)
class MachineSpec:
    """Per-application scaled hierarchy (rationale in EXPERIMENTS.md)."""

    base: str = "origin2000"
    l1_bytes: int = 8 * 1024
    l2_bytes: int = 128 * 1024
    tlb_entries: int = 16
    page_bytes: int = 4 * 1024


@dataclass(frozen=True)
class BenchmarkProgram:
    name: str
    build: Callable[[], Program]
    paper_facts: Mapping[str, object]
    default_params: Mapping[str, int]
    paper_params: Optional[Mapping[str, int]]
    small_params: Mapping[str, int]
    large_params: Mapping[str, int]
    steps: int = 1
    #: scaled machine used by default (base = what the paper measured on)
    machine_spec: MachineSpec = MachineSpec()

    @property
    def machine(self) -> str:
        return self.machine_spec.base


def _entry(name, module, spec: MachineSpec = MachineSpec()) -> BenchmarkProgram:
    return BenchmarkProgram(
        name=name,
        build=module.build,
        paper_facts=module.PAPER_FACTS,
        default_params=getattr(module, "DEFAULT_PARAMS", {}),
        paper_params=getattr(module, "PAPER_PARAMS", None),
        small_params=getattr(module, "SMALL_PARAMS", {}),
        large_params=getattr(module, "LARGE_PARAMS", {}),
        steps=getattr(module, "DEFAULT_STEPS", 1),
        machine_spec=spec,
    )


#: the four applications of Fig. 9 / Fig. 10, with per-application scaled
#: hierarchies.  L2 keeps the paper's data:L2 ratio at the default input
#: size; L1 keeps rows-per-L1; the TLB keeps reach:data while holding
#: enough entries that stream-count effects (not pathology) dominate.
APPLICATIONS: dict[str, BenchmarkProgram] = {
    "swim": _entry(
        "swim",
        swim,
        MachineSpec(base="octane", l1_bytes=8 * 1024, l2_bytes=48 * 1024,
                    tlb_entries=16, page_bytes=4 * 1024),
    ),
    "tomcatv": _entry(
        "tomcatv",
        tomcatv,
        MachineSpec(l1_bytes=8 * 1024, l2_bytes=144 * 1024,
                    tlb_entries=16, page_bytes=4 * 1024),
    ),
    "adi": _entry(
        "adi",
        adi,
        MachineSpec(l1_bytes=8 * 1024, l2_bytes=24 * 1024,
                    tlb_entries=16, page_bytes=4 * 1024),
    ),
    "sp": _entry(
        "sp",
        sp,
        MachineSpec(l1_bytes=8 * 1024, l2_bytes=24 * 1024,
                    tlb_entries=16, page_bytes=2 * 1024),
    ),
}

#: the §2.2 study set (reuse-driven execution)
STUDY_PROGRAMS: dict[str, BenchmarkProgram] = {
    "adi": APPLICATIONS["adi"],
    "sp": APPLICATIONS["sp"],
    "sweep3d": _entry("sweep3d", sweep3d),
}


def get(name: str) -> BenchmarkProgram:
    if name in APPLICATIONS:
        return APPLICATIONS[name]
    if name in STUDY_PROGRAMS:
        return STUDY_PROGRAMS[name]
    raise KeyError(f"unknown benchmark program {name!r}")


def build_fft(n: int = fft.DEFAULT_N) -> Program:
    return fft.build(n)


#: the size ``"fft"`` resolves at when none is given (the tuner's quick
#: default; the §2.2 study size is ``fft.DEFAULT_N``)
FFT_DEFAULT_PARAMS: Mapping[str, int] = {"n": 64}


def names() -> list[str]:
    """Every registry name (applications plus the §2.2 study set)."""
    return sorted(set(APPLICATIONS) | set(STUDY_PROGRAMS))


def is_bundled(name: str) -> bool:
    """Does ``name`` resolve without reading a file?"""
    return name == "fft" or name in names()


@functools.cache
def _bundled(name: str, n: Optional[int] = None) -> Program:
    """The validated program of a registry name, or ``"fft"`` at ``n``.

    Built once per process: a :class:`Program` is frozen, so every
    ``run()`` / ``tune()`` on the name shares one parse and one validation.
    """
    return validate(build_fft(n) if name == "fft" else get(name).build())


@dataclass(frozen=True)
class Target:
    """A resolved target: the program plus every default it implies."""

    #: row label: the registry name, ``fft<n>``, or the program's own name
    name: str
    program: Program
    #: the size binding (fft's carries its build-only ``n``); None only
    #: for a bare Program resolved without sizes
    params: Optional[dict]
    steps: int
    machine_spec: MachineSpec


def resolve_target(
    target: Union[str, Program],
    params: Optional[Mapping[str, int]] = None,
    steps: Optional[int] = None,
    name: Optional[str] = None,
    missing: Optional[str] = None,
) -> Target:
    """Resolve a registry name, ``"fft"``, or a :class:`Program`.

    Registry names fill ``params``/``steps``/machine from their entry;
    ``"fft"`` is built at ``params["n"]``; a Program carries no defaults
    (steps 1, the default scaled machine) and, when ``missing`` is
    given, must come with ``params`` — ``missing`` is the error message.
    """
    if isinstance(target, Program):
        if params is None and missing is not None:
            raise ReproError(missing)
        return Target(
            name or target.name,
            target,
            None if params is None else dict(params),
            1 if steps is None else steps,
            MachineSpec(),
        )
    if target == "fft":
        params = dict(FFT_DEFAULT_PARAMS if params is None else params)
        n = int(params.get("n", FFT_DEFAULT_PARAMS["n"]))
        return Target(
            name or f"fft{n}",
            _bundled("fft", n),
            params,
            1 if steps is None else steps,
            MachineSpec(),
        )
    entry = get(target)
    return Target(
        name or target,
        _bundled(target),
        dict(entry.default_params if params is None else params),
        entry.steps if steps is None else steps,
        entry.machine_spec,
    )
