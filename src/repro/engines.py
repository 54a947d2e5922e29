"""One engine-selection path for the harness and the CLI.

Historically the *simulation* engine (``fast``/``reference``) was
resolved in three places — ``measure_variant``, the memsim dispatchers,
and the CLI's ``--engine`` flag.  The codegen backend adds a second,
orthogonal axis: which *tracer* generates the address stream
(``codegen``/``interp``).  This module owns the whole grammar so every
entry point resolves specs identically, and
:meth:`EngineSelection.nest_tracer` is the one place the resolved
tracer is picked:

``"fast"`` / ``"reference"``
    pick the simulation engine, keep the default tracer;
``"codegen"`` / ``"interp"``
    pick the tracer, keep the default simulation engine;
``"fast+interp"``, ``"codegen+reference"``, ...
    pick both, in either order, joined by ``+``.

A spec that leaves an axis out gets ``fast`` / ``codegen``; no
environment variable changes that.  The oracles (``reference``,
``interp``) are reached by naming them in ``engine=`` / ``--engine``.
The tracer default is ``codegen``: the differential suite under
``tests/codegen/`` pins its traces bit-for-bit to the interpreter's and
both tracers reject the same inputs (they share one lowering), so the
fast path is safe to prefer.  Cached *results* are keyed by the
simulation engine only — tracer choice never changes the bytes of a
trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .memsim import ENGINES as SIM_ENGINES
from .memsim import default_engine as default_sim_engine

TRACE_ENGINES = ("codegen", "interp")


def default_trace_engine() -> str:
    """The tracer used when a spec names none."""
    return "codegen"


@dataclass(frozen=True)
class EngineSelection:
    """A fully resolved (simulation engine, tracer) pair."""

    sim: str
    tracer: str

    def spec(self) -> str:
        return f"{self.sim}+{self.tracer}"

    def nest_tracer(self, program, params):
        """The selected tracer's ``NestTracer``, whose segments the
        measuring chain streams (:func:`repro.harness.variant_chunks`).

        Both tracers produce bit-for-bit identical segments (the contract
        the differential suite under ``tests/codegen/`` enforces), so the
        choice is observable only through spans and ``codegen.*``
        metrics.
        """
        if self.tracer == "codegen":
            from .codegen.tracer import NestTracer
        else:
            from .interp.tracegen import NestTracer
        return NestTracer(program, params)


def resolve_engines(
    spec: Union[None, str, EngineSelection] = None,
) -> EngineSelection:
    """Resolve an engine spec to a concrete :class:`EngineSelection`.

    Accepts None (all defaults), an already-resolved selection, or a
    spec string per the module grammar.  Raises ValueError on unknown
    tokens or a doubly-assigned axis.
    """
    if isinstance(spec, EngineSelection):
        return spec
    sim: Optional[str] = None
    tracer: Optional[str] = None
    if spec:
        for token in spec.split("+"):
            token = token.strip()
            if token in SIM_ENGINES:
                if sim is not None:
                    raise ValueError(f"simulation engine given twice in {spec!r}")
                sim = token
            elif token in TRACE_ENGINES:
                if tracer is not None:
                    raise ValueError(f"tracer given twice in {spec!r}")
                tracer = token
            else:
                raise ValueError(
                    f"unknown engine {token!r}; expected a simulation engine "
                    f"{SIM_ENGINES} and/or a tracer {TRACE_ENGINES}"
                )
    return EngineSelection(
        sim=sim or default_sim_engine(),
        tracer=tracer or default_trace_engine(),
    )


def engine_spec(text: str) -> str:
    """argparse ``type=`` hook: validate a spec, return it unchanged."""
    resolve_engines(text)
    return text
