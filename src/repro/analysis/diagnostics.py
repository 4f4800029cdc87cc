"""Structured diagnostics for compile-time analysis.

A :class:`Diagnostic` is one finding: severity, a stable code (``ANA101``
style, see the table in README.md), a human message and an optional
:class:`SourceSpan` locating it in the query text.  A
:class:`DiagnosticReport` collects the findings of one analysis run and
renders them with the same caret lines the parser uses for syntax
errors, so every compile-time message points at its source the same way.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from ..errors import caret_snippet, source_position

#: Severities, in increasing order of badness.  ``INFO`` diagnostics are
#: facts the planner can exploit (e.g. subclass pruning), ``WARNING``
#: means the query will run but may surprise, ``ERROR`` blocks planning.
INFO, WARNING, ERROR = "info", "warning", "error"

_SEVERITY_RANK = {INFO: 0, WARNING: 1, ERROR: 2}


class SourceSpan:
    """A half-open [start, end) character range in the query text."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: Optional[int] = None) -> None:
        self.start = start
        self.end = end if end is not None else start + 1

    def __len__(self) -> int:
        return max(1, self.end - self.start)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SourceSpan)
            and other.start == self.start
            and other.end == self.end
        )

    def __repr__(self) -> str:
        return "SourceSpan(%d, %d)" % (self.start, self.end)


class Diagnostic:
    """One analysis finding."""

    __slots__ = ("severity", "code", "message", "span")

    def __init__(
        self,
        severity: str,
        code: str,
        message: str,
        span: Optional[SourceSpan] = None,
    ) -> None:
        if severity not in _SEVERITY_RANK:
            raise ValueError("unknown severity %r" % (severity,))
        self.severity = severity
        self.code = code
        self.message = message
        self.span = span

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
        }
        if self.span is not None:
            out["span"] = [self.span.start, self.span.end]
        return out

    def render(self, source: Optional[str] = None) -> str:
        head = "%s %s: %s" % (self.severity, self.code, self.message)
        if source is None or self.span is None:
            return head
        line, column = source_position(source, self.span.start)
        return "%s (line %d, column %d)\n%s" % (
            head,
            line,
            column,
            caret_snippet(source, self.span.start, len(self.span)),
        )

    def __repr__(self) -> str:
        return "<Diagnostic %s %s %r>" % (self.severity, self.code, self.message)


class DiagnosticReport:
    """All findings of one semantic-analysis run.

    Truthy when the query passed (no errors); iterable over diagnostics
    in source order.  ``pruned_classes`` carries the class-hierarchy
    pruning facts the analyzer inferred (subclasses for which the
    predicate is statically unsatisfiable) for the planner.
    """

    def __init__(self, source: Optional[str] = None) -> None:
        self.source = source
        self.diagnostics: List[Diagnostic] = []
        #: Classes in the query scope whose instances can never satisfy
        #: the predicate (e.g. an attribute redefined to an incompatible
        #: domain in a subclass).  The planner drops them from the scan.
        self.pruned_classes: List[str] = []

    # -- collection ------------------------------------------------------

    def add(
        self,
        severity: str,
        code: str,
        message: str,
        span: Optional[SourceSpan] = None,
    ) -> Diagnostic:
        diag = Diagnostic(severity, code, message, span)
        self.diagnostics.append(diag)
        return diag

    def error(self, code: str, message: str, span: Optional[SourceSpan] = None) -> Diagnostic:
        return self.add(ERROR, code, message, span)

    def warning(self, code: str, message: str, span: Optional[SourceSpan] = None) -> Diagnostic:
        return self.add(WARNING, code, message, span)

    def info(self, code: str, message: str, span: Optional[SourceSpan] = None) -> Diagnostic:
        return self.add(INFO, code, message, span)

    def prune(self, class_name: str, reason: str, span: Optional[SourceSpan] = None) -> None:
        if class_name not in self.pruned_classes:
            self.pruned_classes.append(class_name)
        self.info("ANA501", "class %s pruned from scope: %s" % (class_name, reason), span)

    # -- reading ---------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def __bool__(self) -> bool:
        return self.ok

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "pruned_classes": list(self.pruned_classes),
        }

    def render(self) -> str:
        if not self.diagnostics:
            return "ok (no diagnostics)"
        return "\n".join(d.render(self.source) for d in self.diagnostics)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "<DiagnosticReport %d diagnostics, %d errors>" % (
            len(self.diagnostics),
            len(self.errors),
        )
