"""The single registry of diagnostic codes.

Every stable diagnostic id — ``V`` (IR lint), ``L`` (pass legality),
``S`` (static reuse analysis) — is declared here
once, with its family, default severity, and documentation.  The CLI's
``lint`` help table and ``lint --explain CODE`` render from this
registry; nothing else in the repo hand-lists codes.

Emitting sites stay free to construct diagnostics directly (the bag does
not require registration), but ``tests/verify/test_codes_explain.py::
test_every_code_used_in_the_source_is_registered`` asserts that every
code used anywhere in ``repro`` is registered here, so the table cannot
silently rot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import Severity


@dataclass(frozen=True)
class CodeInfo:
    """One registered diagnostic code."""

    code: str
    severity: Severity
    summary: str  # one line, shown in tables
    doc: str  # full explanation, shown by ``lint --explain``

    @property
    def family(self) -> str:
        return self.code[0]


#: family letter -> what the family covers
FAMILIES: dict[str, str] = {
    "V": "IR verification (structure, ranges, def-use)",
    "L": "pass legality (dependences)",
    "S": "static reuse analysis (predictive locality lints)",
    "R": "parallelism analysis (races, DOALL certification)",
}

REGISTRY: dict[str, CodeInfo] = {}


def _register(
    code: str, severity: Severity, summary: str, doc: str
) -> None:
    assert code not in REGISTRY, f"duplicate diagnostic code {code}"
    REGISTRY[code] = CodeInfo(code, severity, summary, doc.strip())


def get_code(code: str) -> CodeInfo:
    """Look up a code; raises KeyError with the known codes listed."""
    try:
        return REGISTRY[code.upper()]
    except KeyError:
        raise KeyError(
            f"unknown diagnostic code {code!r}; known codes: "
            f"{', '.join(sorted(REGISTRY))}"
        ) from None


def all_codes() -> tuple[CodeInfo, ...]:
    return tuple(REGISTRY[c] for c in sorted(REGISTRY))


def format_code_table() -> str:
    """The one table of every code, grouped by two-character prefix.

    Prefix groups (``S3xx`` vs ``S5xx``) separate sub-families that a
    flat family listing used to run together.
    """
    by_prefix: dict[str, list[CodeInfo]] = {}
    for info in all_codes():
        by_prefix.setdefault(info.code[:2], []).append(info)
    lines: list[str] = []
    last_family = ""
    for fam in sorted(FAMILIES):
        for prefix in sorted(p for p in by_prefix if p[0] == fam):
            if fam != last_family:
                lines.append(f"{fam}xxx — {FAMILIES[fam]}:")
                last_family = fam
            lines.append(f"  {prefix}xx:")
            for info in by_prefix[prefix]:
                lines.append(
                    f"    {info.code}  [{info.severity}] {info.summary}"
                )
    return "\n".join(lines)


def explain_code(code: str) -> str:
    info = get_code(code)
    return (
        f"{info.code} [{info.severity}] — {info.summary}\n"
        f"family: {FAMILIES[info.family]}\n\n{info.doc}"
    )


# -- V: IR verification -------------------------------------------------------

_register(
    "V001", Severity.ERROR,
    "structural validation failure",
    """The program violates a structural invariant of the lang IR
(undeclared array or scalar, wrong subscript arity, non-affine loop
bound, duplicate declaration).  Raised by the validators in
repro.lang.validate and re-reported through the lint bag so every
finding shares one rendering.""",
)
_register(
    "V101", Severity.ERROR,
    "subscript can underflow its 1-based extent",
    """Interval analysis over the enclosing loop bounds proves the
subscript reaches a value below 1 (Fortran-style arrays are 1-based).
An always-underflowing subscript and a sometimes-underflowing one emit
the same code with different wording.""",
)
_register(
    "V102", Severity.ERROR,
    "subscript can overflow its declared extent",
    """Interval analysis proves the subscript exceeds the declared
extent along that dimension — under the published parameter assumptions
(params >= 8 unless a program declares tighter minimums).""",
)
_register(
    "V103", Severity.WARNING,
    "loop bound has fractional coefficients",
    """A loop bound's affine form has non-integral coefficients, so trip
counts may be non-integral; at a binding where the bound is not an
integer, the interpreter, the snapshot and both tracers refuse to run.
It is usually a symptom of a mis-derived bound.""",
)
_register(
    "V104", Severity.WARNING,
    "loop provably never executes",
    """The upper bound is provably below the lower bound under the
parameter assumptions.  Dead loops are legal but usually indicate a
transform dropped a guard or mangled a bound.""",
)
_register(
    "V105", Severity.WARNING,
    "guard interval is empty",
    """A guard's [lower:upper] membership interval is provably empty, so
the guarded body is unreachable.""",
)
_register(
    "V106", Severity.WARNING,
    "guard interval outside the index's range",
    """A guard interval lies entirely outside the guarded index's loop
range; the guard can never admit an iteration.""",
)
_register(
    "V201", Severity.WARNING,
    "scalar read but never assigned",
    """The scalar only ever reads its initial zero — either dead code or
a missing initialization.""",
)
_register(
    "V202", Severity.WARNING,
    "scalar assigned but never read",
    """Dead scalar: scalars are not program outputs, so a write-only
scalar computes nothing observable.""",
)
_register(
    "V203", Severity.WARNING,
    "array declared but never referenced",
    """The array occupies a declaration (and a layout slot) but no
statement touches it.""",
)
_register(
    "V204", Severity.INFO,
    "array is read-only",
    """Every access to the array is a read: the program only observes
its initial values.  Expected for coefficient arrays, suspicious for
work arrays.""",
)
_register(
    "V205", Severity.INFO,
    "reads disjoint from every written region",
    """Region analysis proves the read regions of the array never
intersect its written regions — the reads observe initial values even
though the array *is* written elsewhere.""",
)
_register(
    "V301", Severity.INFO,
    "procedures analyzed at inlined call sites only",
    """The program still contains procedure declarations; the region
and def-use layers analyze the inlined body, so pre-inline programs get
shallower coverage.""",
)

# -- L: pass legality ---------------------------------------------------------

_register(
    "L000", Severity.INFO,
    "further diagnostics of a code suppressed",
    """The legality checker caps per-code output (MAX_PER_CODE);
this marker records that more findings of the preceding code exist.""",
)
_register(
    "L100", Severity.ERROR,
    "snapshots taken at different parameters",
    """A before/after legality comparison was attempted across different
input parameters; the dependence structures are not comparable.""",
)
_register(
    "L101", Severity.ERROR,
    "flow dependence violated",
    """A read observes a different write instance than before the pass
(true dependence reordered): the transformed program consumes a stale
or future value.""",
)
_register(
    "L102", Severity.ERROR,
    "write set changed",
    """A cell is written before the pass but never after (lost writes),
or after but never before (writes out of nowhere).""",
)
_register(
    "L103", Severity.ERROR,
    "write multiplicity changed",
    """A cell's write chain has a different length after the pass —
write instances were lost or duplicated.""",
)
_register(
    "L104", Severity.ERROR,
    "write computes a different value signature",
    """Strict certification: a write's operand signature differs across
the pass.  Relaxed passes (constant propagation, simplification) are
exempt because they legitimately rewrite arithmetic.""",
)
_register(
    "L105", Severity.ERROR,
    "output dependence violated",
    """Two writes to the same cell were reordered; the cell's final
value may differ.""",
)
_register(
    "L106", Severity.ERROR,
    "anti dependence violated",
    """A write reads a different set of cells than before the pass —
its operands were overwritten too early.""",
)

# -- S: static reuse analysis -------------------------------------------------

_register(
    "S301", Severity.WARNING,
    "evadable reuse (distance grows with input size)",
    """The static analyzer proves the reuse class re-touches its data at
a symbolic distance that grows with the program parameters (paper
§2.1).  Such reuses miss in any fixed-size cache once the input is
large enough — they are what fusion and regrouping exist to evade.""",
)
_register(
    "S302", Severity.WARNING,
    "fusion would contract a growing reuse distance",
    """A growing cross-nest reuse connects two top-level nests whose
outermost loops have provably equal bounds — the exact shape
reuse-based fusion (§2.3) collapses into a loop-carried reuse with
bounded distance.""",
)
_register(
    "S303", Severity.INFO,
    "regrouping candidate",
    """A nest streams several arrays and carries long-distance reuse;
data regrouping (§3) would interleave the arrays so one memory stream
fetches them together.""",
)
_register(
    "S501", Severity.WARNING,
    "trace imported without geometry metadata",
    """An external address stream was imported without line-size or
element-size metadata (``repro trace import`` on a bare CSV address
list).  The simulator falls back to the shared machine geometry
(:mod:`repro.memsim.geometry`), which is correct for traces produced by
this repo but arbitrary for a foreign tracer — miss counts and the
bytes-moved report are only as meaningful as that assumption.  Export
with ``repro trace export`` (or add the ``# repro-address-stream``
metadata comment) to silence it.""",
)

# -- R: parallelism analysis --------------------------------------------------

_register(
    "R501", Severity.WARNING,
    "loop axis carries a data race (serial)",
    """The dependence-based parallelism analyzer proves two distinct
iterations of this loop axis touch the same array element with at least
one write, so the axis cannot run as a parallel (DOALL) loop.

The diagnostic carries a concrete witness pair in the format

    axis=a vs axis=b: <kind> on ARR[elem e] — ref_a @(env_a) / ref_b @(env_b)

where ``kind`` is write/write, write/read, or read/write, ``e`` is the
linearized column-major element both references touch, and the two
``env`` bindings give every loop variable of the colliding iteration
pair (equal on loops enclosing the axis, different on the axis itself).
Every witness is checked against the real loop bounds and guards around
both references, so it names two iterations that run.""",
)
_register(
    "R502", Severity.WARNING,
    "scalar dependence serializes a loop axis",
    """A scalar is written in one iteration of the axis and read (or
rewritten) in another, serializing the axis.  Unlike an array race this
is usually *privatizable*: if each iteration writes the scalar before
reading it, giving every thread its own copy restores a DOALL axis.
The witness-pair format matches R501 with the scalar shown in place of
an array element.""",
)
_register(
    "R503", Severity.INFO,
    "loop axis is a reduction",
    """Every cross-iteration conflict on this axis comes from
accumulation statements (``A[s] = A[s] op e`` or ``s = s op e`` with
``op`` associative), so the axis parallelizes with a privatized
accumulator and a combine step — reported as informational, not as a
race.""",
)
_register(
    "R520", Severity.WARNING,
    "false-sharing hotspot (distinct elements, same cache line)",
    """The static coherence analyzer predicts threads will invalidate
each other on cache lines where they touch *distinct* elements — no
value flows between them, the line just happens to hold both threads'
data.  Classic causes: a leading dimension that is not a whole number
of cache lines (so one thread's column tail and the next thread's
column head share a line), or chunked schedules slicing a contiguous
axis mid-line.

The diagnostic carries a concrete witness (thread pair, the two global
element keys with their offsets inside the shared line, and the
loop-variable bindings of the colliding iterations) plus, when the
array's leading extent is not line-aligned, the padding fix: growing
the leading dimension to the next multiple of the line size re-aligns
every column to a line boundary and removes the overlap.""",
)
_register(
    "R521", Severity.WARNING,
    "heavy true sharing across parallel nests",
    """Threads exchange the *same elements* (one writes, another reads
or rewrites) often enough that invalidation misses are a significant
miss source.  Within one DOALL nest this cannot happen — the race
analyzer proved iterations disjoint — so true sharing is a cross-nest
phenomenon: the producing nest partitioned its data over the threads
differently than the consuming nest (different parallel axis, shifted
subscripts, or a serial producer on thread 0).  Padding does not help;
re-aligning the partitions (same axis, same schedule) or fusing the
nests does.""",
)
_register(
    "R522", Severity.INFO,
    "sharing is schedule-sensitive",
    """Predicted invalidation misses differ by a large factor across
OpenMP schedules for the same program — typically block 'static' keeps
threads line-disjoint while 'static,1' (or 'guided') slices the axis
into chunks smaller than the data a line holds.  Reported so the
schedule choice is made deliberately; the message carries the per-
schedule invalidation counts.""",
)
_register(
    "R510", Severity.WARNING,
    "pass destroyed a parallel (DOALL) outer axis",
    """Comparing parallelism profiles before and after a pass shows a
top-level nest whose outermost axis was DOALL (or a reduction) before
the pass but is serial after it — typically loop fusion merging an
independent nest with one that carries a dependence (paper §2.3 trades
exactly this: fusion contracts reuse distance but may serialize the
fused loop).  Legal, but the lost parallelism is reported with the race
witness of the destroying dependence.""",
)
