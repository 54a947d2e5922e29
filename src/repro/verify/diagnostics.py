"""Structured diagnostics for the lint / pass-legality framework.

Every check in :mod:`repro.verify` reports problems as
:class:`Diagnostic` records collected in a :class:`DiagnosticBag`.  A
diagnostic pairs a stable machine-readable ``code`` with a location, the
offending statement's source text, and free-form ``details`` — for
dependence violations the details name the violated edge (kind, array
element, source and sink statement instances).  Every code (the ``V``,
``L``, and ``S`` families) is documented exactly once, in
:mod:`repro.verify.codes`; the CLI's help table and ``lint --explain``
render from that registry.

Bags render both human-readable text and JSON, so the CLI's ``--json``
mode and the raising :func:`DiagnosticBag.raise_if_errors` share one
representation.  The exception type reuses the language's
:class:`~repro.lang.errors.ValidationError` family via
:class:`VerificationError`, as the repo-wide convention is that every
error derives from ``ReproError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from ..lang import ValidationError, ValidationIssue
from ..obs import metrics

#: per-code cap on individual diagnostics before one summary line
MAX_PER_CODE = 5

T = TypeVar("T")


class Severity(Enum):
    """How bad a finding is.

    ``ERROR`` findings make verification fail; ``WARNING`` findings are
    suspicious but legal (lint exits non-zero for them only under
    ``--strict``); ``INFO`` findings are observations (e.g. an array that
    only ever reads its initial values).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the IR verifier or the pass-legality checker."""

    code: str  # stable machine id, e.g. "V001", "L101"
    severity: Severity
    message: str
    where: str = ""  # path-like location ("body[2]/for i")
    stmt: str = ""  # source text of the offending statement
    #: structured payload; for legality violations this names the
    #: dependence edge: kind, array, element, source, sink, pass
    details: Mapping[str, object] = field(default_factory=dict)

    def render(self) -> str:
        out = f"{self.severity}[{self.code}]"
        if self.where:
            out += f" {self.where}"
        out += f": {self.message}"
        if self.stmt:
            out += f"\n    in: {self.stmt}"
        for key, value in self.details.items():
            out += f"\n    {key}: {value}"
        return out

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "where": self.where,
            "stmt": self.stmt,
            "details": {k: str(v) for k, v in self.details.items()},
        }


class DiagnosticBag:
    """An ordered collection of diagnostics with rendering helpers."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self.diagnostics: list[Diagnostic] = list(diagnostics)

    # -- collection ---------------------------------------------------------

    def add(
        self,
        code: str,
        severity: Severity,
        message: str,
        where: str = "",
        stmt: str = "",
        **details: object,
    ) -> Diagnostic:
        diag = Diagnostic(code, severity, message, where, stmt, dict(details))
        self.diagnostics.append(diag)
        metrics.inc(f"verify.diagnostics.{severity}")
        return diag

    def error(self, code: str, message: str, **kw: object) -> Diagnostic:
        return self.add(code, Severity.ERROR, message, **kw)

    def warning(self, code: str, message: str, **kw: object) -> Diagnostic:
        return self.add(code, Severity.WARNING, message, **kw)

    def info(self, code: str, message: str, **kw: object) -> Diagnostic:
        return self.add(code, Severity.INFO, message, **kw)

    def capped(
        self,
        code: str,
        items: Sequence[T],
        emit: Callable[[T], object],
        more: str,
        where: str,
    ) -> None:
        """``emit`` the first :data:`MAX_PER_CODE` of ``items``, then one
        INFO line ``"<n> more <more>"`` under ``code`` for the rest."""
        for item in items[:MAX_PER_CODE]:
            emit(item)
        if len(items) > MAX_PER_CODE:
            self.info(code, f"{len(items) - MAX_PER_CODE} more {more}", where=where)

    def extend(self, other: "DiagnosticBag") -> None:
        self.diagnostics.extend(other.diagnostics)

    def add_issue(self, issue: ValidationIssue, code: str = "V001") -> Diagnostic:
        """Wrap a structural :class:`ValidationIssue` as an error."""
        diag = Diagnostic(code, Severity.ERROR, issue.message, where=issue.where)
        self.diagnostics.append(diag)
        metrics.inc(f"verify.diagnostics.{Severity.ERROR}")
        return diag

    # -- queries ------------------------------------------------------------

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    def has_errors(self) -> bool:
        return bool(self.errors)

    def counts(self) -> dict[str, int]:
        out = {"error": 0, "warning": 0, "info": 0}
        for d in self.diagnostics:
            out[str(d.severity)] += 1
        return out

    # -- rendering ----------------------------------------------------------

    def render(self, min_severity: Severity = Severity.INFO) -> str:
        rank = {Severity.ERROR: 2, Severity.WARNING: 1, Severity.INFO: 0}
        keep = [d for d in self.diagnostics if rank[d.severity] >= rank[min_severity]]
        if not keep:
            return "clean: no findings"
        lines = [d.render() for d in keep]
        counts = self.counts()
        lines.append(
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info"
        )
        return "\n".join(lines)

    def to_json(self, **extra: object) -> str:
        payload: dict[str, object] = {
            "counts": self.counts(),
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }
        payload.update(extra)
        return json.dumps(payload, indent=2, sort_keys=True)

    def raise_if_errors(self, context: str = "verification") -> None:
        if self.has_errors():
            raise VerificationError.from_bag(context, self)


class VerificationError(ValidationError):
    """Raised when verification finds errors; carries the full bag."""

    def __init__(self, message: str, bag: Optional[DiagnosticBag] = None) -> None:
        self.bag = bag or DiagnosticBag()
        issues = tuple(
            ValidationIssue(d.where or d.code, d.message) for d in self.bag.errors
        )
        super().__init__(message, issues)

    @classmethod
    def from_bag(cls, context: str, bag: DiagnosticBag) -> "VerificationError":
        errors = bag.errors
        lines = [f"{context}: {len(errors)} error(s)"]
        lines.extend(d.render() for d in errors)
        return cls("\n".join(lines), bag)


class PassLegalityError(VerificationError):
    """A transformation pass broke a dependence (or lost/duplicated work)."""
