"""One engine-selection path for the harness and the CLI.

Historically the *simulation* engine (``fast``/``reference``) was
resolved in three places — ``measure_variant``, the memsim dispatchers,
and the CLI's ``--engine`` flag.  A second, orthogonal axis picks what
generates the address stream: the codegen tracer or the Walk oracle
(``codegen``/``interp``).  This module owns the whole grammar so every
entry point resolves specs identically, and
:meth:`EngineSelection.address_segments` is the one place the resolved
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
``tests/codegen/`` pins its traces bit-for-bit to the oracle's, and both
reject the same inputs (they read one fold of one lowering).  Cached
*results* are keyed by the simulation engine only — tracer choice never
changes the bytes of a trace.
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

    def address_segments(self, program, params, layout, name: str):
        """The selected tracer's trace of one time step as byte addresses
        under ``layout``, in segments, which the measuring chain streams
        and repeats (:class:`repro.harness.TimeSteps`): codegen's
        :meth:`~repro.codegen.tracer.NestTracer.address_segments`, or
        the oracle's trace laid out a chunk at a time.

        Both tracers produce bit-for-bit identical addresses (the
        contract the differential suite under ``tests/codegen/``
        enforces), so the choice is observable only through spans and
        ``codegen.*`` metrics.
        """
        if self.tracer == "codegen":
            from .codegen.tracer import NestTracer

            return NestTracer(program, params).address_segments(layout, name)
        return _oracle_segments(program, params, layout, name)


def _oracle_segments(program, params, layout, name: str):
    """The Walk oracle's trace of one step laid out, in chunks.  Each
    top-level loop is walked one outer iteration at a time
    (``Walk.walk_span``) and the accesses walked are laid out whenever
    :data:`~repro.stream.CHUNK_ACCESSES` of them have gathered, so a
    chunk plus one outer iteration is all that is held."""
    from . import stream
    from .interp.trace import TraceWalk
    from .lang import Loop

    chunk = stream.CHUNK_ACCESSES
    walk = TraceWalk(program, params)
    width = {node.stmt_id: len(node.refs) for node in walk.folding.assigns.values()}

    def laid_out():
        trace = walk.trace(1, False)
        del walk.stmts[:], walk.indices[:]
        whole = stream.AddressStream.from_trace(trace, layout, name, "interp")
        return (whole.slice(at, at + chunk) for at in range(0, len(whole), chunk))

    size = seen = 0  # accesses gathered; instances they are counted for
    for stmt in walk.program.body:
        if not isinstance(stmt, Loop):
            walk.walk_stmt(stmt)  # counted with the next outer iteration
            continue
        lo, hi = walk.values(walk.fold(stmt, (stmt.lower, stmt.upper)))
        for i in range(lo, hi + 1):
            walk.walk_span(stmt, i, i)
            size += sum(map(width.__getitem__, walk.stmts[seen:]))
            seen = len(walk.stmts)
            if size >= chunk:
                yield from laid_out()
                size = seen = 0
    yield from laid_out()


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
