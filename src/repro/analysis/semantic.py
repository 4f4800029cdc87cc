"""OQL semantic analysis: type-checking queries against the schema.

The compile-time pass Kim's Section 2.2 calls for: before the optimizer
may pick access paths, a query must be validated against the aggregation
hierarchy (every attribute path must resolve, set-valued steps and
``ONLY`` scope understood) and the generalization hierarchy (methods
resolved under late binding as the union over subclass overrides,
literals checked against attribute domains).  Findings are emitted as
structured :class:`~repro.analysis.diagnostics.Diagnostic` records —
severity, stable code, message, source span — rather than bare
exceptions, and the analyzer additionally infers *class-hierarchy
pruning facts*: subclasses whose instances can never satisfy the
predicate (an attribute redefined to an incompatible domain), which the
planner uses to shrink the evaluation scope.

Diagnostic codes
----------------

========  ==========================================================
ANA001    unknown target class
ANA101    unknown attribute in a path
ANA102    navigation into a primitive domain
ANA201    comparison literal incompatible with the attribute domain
ANA202    CONTAINS on a single-valued path
ANA203    ordered comparison on an unordered domain
ANA204    LIKE on a non-string domain or with a non-string pattern
ANA205    reference-valued path compared with a literal (always false)
ANA301    method selector not understood by any class in scope
ANA302    method called with an arity no override accepts
ANA303    method understood by only part of the hierarchy scope
ANA304    unknown ADT operation
ANA401    aggregate applied to an incompatible domain
ANA402    ORDER BY / GROUP BY over a set-valued (fan-out) path
ANA501    class pruned from scope (info: planner fact, not a fault)
========  ==========================================================
"""

from __future__ import annotations

import difflib
import inspect
from typing import List, Optional, Sequence, Tuple

from ..core.primitives import ANY_CLASS, ROOT_CLASS, is_primitive_class
from ..core.schema import Schema
from ..query.ast import (
    AdtPredicate,
    Aggregate,
    And,
    Comparison,
    Expr,
    MethodCall,
    Not,
    Or,
    Path,
    Query,
    conjuncts,
)
from .diagnostics import DiagnosticReport, SourceSpan
from .resolve import PathResolution, resolve_path

#: Domains whose values admit <, <=, >, >= (plus Any/Object, where the
#: comparison is resolved dynamically).
_ORDERED_DOMAINS = ("Integer", "Float", "String", "Bytes")

#: Domains sum()/avg() can fold.
_NUMERIC_DOMAINS = ("Integer", "Float")


def _literal_kind(value: object) -> str:
    """The primitive domain a parsed OQL literal belongs to."""
    if value is None:
        return "Null"
    if isinstance(value, bool):
        return "Boolean"
    if isinstance(value, int):
        return "Integer"
    if isinstance(value, float):
        return "Float"
    if isinstance(value, str):
        return "String"
    if isinstance(value, bytes):
        return "Bytes"
    if isinstance(value, (list, tuple)):
        return "List"
    return "Unknown"


def _primitive_compatible(domain: str, kind: str) -> bool:
    """Can a literal of primitive class ``kind`` match values of ``domain``?"""
    if kind in ("Null", "Unknown", "List"):
        return True
    if domain == kind:
        return True
    # Numeric widening, both directions: an Integer attribute can hold a
    # value equal to a float literal (7500.0) and vice versa.
    return {domain, kind} <= {"Integer", "Float"}


class _MethodResolution:
    """Union-of-overrides view of a selector over a class scope."""

    __slots__ = ("selector", "defined_on", "missing_on", "arity_ok")

    def __init__(self, selector: str) -> None:
        self.selector = selector
        self.defined_on: List[str] = []
        self.missing_on: List[str] = []
        self.arity_ok: Optional[bool] = None


class SemanticAnalyzer:
    """Type-checks parsed queries against a live schema.

    Parameters
    ----------
    schema:
        The schema to resolve against; the analyzer holds a reference,
        so a single analyzer stays correct across schema evolution.
    adt_registry:
        Optional :class:`~repro.adt.registry.AdtRegistry`; when given,
        ADT predicate names are checked for existence.
    """

    def __init__(self, schema: Schema, adt_registry=None) -> None:
        self.schema = schema
        self.adt_registry = adt_registry

    # -- entry point -----------------------------------------------------

    def check(self, query: Query, source: Optional[str] = None) -> DiagnosticReport:
        """Analyze one parsed query; never raises, never executes."""
        report = DiagnosticReport(source)
        target = query.target_class
        if not self.schema.has_class(target):
            known = [c.name for c in self.schema.classes()]
            hint = difflib.get_close_matches(target, known, n=1, cutoff=0.6)
            report.error(
                "ANA001",
                "class %r is not defined%s"
                % (target, " (did you mean %r?)" % hint[0] if hint else ""),
                getattr(query, "span", None),
            )
            return report
        scope = (
            self.schema.hierarchy_of(target) if query.hierarchy else [target]
        )

        if query.where is not None:
            self._check_expr(report, query, scope, query.where)
            self._infer_pruning(report, query, scope)
        for path in query.projections or []:
            self._resolve(report, target, path)
        for aggregate in query.aggregates or []:
            self._check_aggregate(report, target, aggregate)
        if query.group_by is not None:
            res = self._resolve(report, target, query.group_by)
            if res is not None and res.ok and res.multi:
                report.warning(
                    "ANA402",
                    "GROUP BY %s groups by the first value of a set-valued path"
                    % query.group_by.dotted(),
                    self._span(query.group_by),
                )
        if query.order_by is not None:
            res = self._resolve(report, target, query.order_by)
            if res is not None and res.ok and res.multi:
                report.warning(
                    "ANA402",
                    "ORDER BY %s orders by the first value of a set-valued path"
                    % query.order_by.dotted(),
                    self._span(query.order_by),
                )
        return report

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _span(node) -> Optional[SourceSpan]:
        return getattr(node, "span", None)

    def _resolve(
        self, report: DiagnosticReport, root: str, path: Path
    ) -> Optional[PathResolution]:
        """Resolve a path, reporting ANA101/ANA102 on failure."""
        resolution = resolve_path(self.schema, root, path.steps)
        if resolution.ok:
            return resolution
        span = self._span(path)
        if resolution.suggestion is not None:
            report.error(
                "ANA101",
                "%s (did you mean %r?)" % (resolution.failure, resolution.suggestion),
                span,
            )
        elif "no attribute" in (resolution.failure or ""):
            report.error("ANA101", resolution.failure, span)
        else:
            report.error("ANA102", resolution.failure or "unresolvable path", span)
        return None

    # -- expression walk -------------------------------------------------

    def _check_expr(
        self, report: DiagnosticReport, query: Query, scope: Sequence[str], expr: Expr
    ) -> None:
        if isinstance(expr, (And, Or)):
            for operand in expr.operands:
                self._check_expr(report, query, scope, operand)
        elif isinstance(expr, Not):
            self._check_expr(report, query, scope, expr.operand)
        elif isinstance(expr, Comparison):
            self._check_comparison(report, query.target_class, expr)
        elif isinstance(expr, MethodCall):
            self._check_method_call(report, query, scope, expr)
        elif isinstance(expr, AdtPredicate):
            self._check_adt_predicate(report, query.target_class, expr)

    def _check_comparison(
        self, report: DiagnosticReport, target: str, comparison: Comparison
    ) -> None:
        resolution = self._resolve(report, target, comparison.path)
        if resolution is None or resolution.domain is None:
            return
        domain = resolution.domain
        if domain == ANY_CLASS:
            return  # dynamic dispatch; nothing checkable statically
        span = self._span(comparison) or self._span(comparison.path)
        op = comparison.op
        value = comparison.const.value

        if op == "contains" and not resolution.multi:
            report.warning(
                "ANA202",
                "CONTAINS on single-valued path %s behaves like = "
                "(no set to search)" % comparison.path.dotted(),
                span,
            )

        if op in ("<", "<=", ">", ">="):
            if domain == "Boolean" or (
                not is_primitive_class(domain)
                and domain != ROOT_CLASS
                and not self.schema.is_value_domain(domain)
            ):
                report.error(
                    "ANA203",
                    "ordered comparison %s on %s-valued path %s"
                    % (op, domain, comparison.path.dotted()),
                    span,
                )
                return

        if op == "like":
            if not isinstance(value, str):
                report.error(
                    "ANA204",
                    "LIKE pattern must be a string, got %s"
                    % _literal_kind(value),
                    span,
                )
                return
            if is_primitive_class(domain) and domain != "String":
                report.error(
                    "ANA204",
                    "LIKE on %s-valued path %s (only String values match)"
                    % (domain, comparison.path.dotted()),
                    span,
                )
            return

        literals: Tuple[object, ...]
        if op == "in" and isinstance(value, (list, tuple)):
            literals = tuple(value)
        else:
            literals = (value,)
        for literal in literals:
            self._check_literal_against_domain(
                report, comparison, domain, literal, span
            )

    def _check_literal_against_domain(
        self, report, comparison, domain, literal, span
    ) -> None:
        kind = _literal_kind(literal)
        if kind == "Null":
            return  # null probes test for absence; every domain admits it
        if domain == ROOT_CLASS or self.schema.is_value_domain(domain):
            return  # Object / ADT domains accept any encoded value
        if is_primitive_class(domain):
            if not _primitive_compatible(domain, kind):
                report.error(
                    "ANA201",
                    "comparison %s %s %r: %s literal cannot match %s attribute"
                    % (comparison.path.dotted(), comparison.op, literal, kind, domain),
                    span,
                )
            return
        # Reference-valued domain compared against a parsed literal: OQL
        # literals are never object identifiers, so this is always false.
        report.warning(
            "ANA205",
            "path %s holds %s references; comparison with literal %r "
            "is always false" % (comparison.path.dotted(), domain, literal),
            span,
        )

    # -- methods (late binding over the scope) ---------------------------

    def _check_method_call(
        self, report: DiagnosticReport, query: Query, scope: Sequence[str], call: MethodCall
    ) -> None:
        receiver_classes: List[str]
        if call.path is None:
            receiver_classes = list(scope)
        else:
            resolution = self._resolve(report, query.target_class, call.path)
            if resolution is None or resolution.domain is None:
                return
            domain = resolution.domain
            if domain == ANY_CLASS:
                return
            if is_primitive_class(domain):
                report.error(
                    "ANA102",
                    "method %s() sent to primitive %s value %s"
                    % (call.selector, domain, call.path.dotted()),
                    self._span(call),
                )
                return
            receiver_classes = self.schema.hierarchy_of(domain)

        span = self._span(call)
        res = self._resolve_method(receiver_classes, call.selector)
        res.arity_ok = self.check_arity(receiver_classes, call.selector, len(call.args))
        if not res.defined_on:
            all_selectors = sorted(
                {sel for cls in receiver_classes for sel in self.schema.methods(cls)}
            )
            hint = difflib.get_close_matches(call.selector, all_selectors, n=1, cutoff=0.6)
            report.error(
                "ANA301",
                "no class in scope (%s) understands message %r%s"
                % (
                    ", ".join(receiver_classes[:4])
                    + (", ..." if len(receiver_classes) > 4 else ""),
                    call.selector,
                    " (did you mean %r?)" % hint[0] if hint else "",
                ),
                span,
            )
            return
        if res.missing_on:
            report.warning(
                "ANA303",
                "message %r is understood by %s but not by %s; objects of "
                "the latter will fail at run time"
                % (
                    call.selector,
                    ", ".join(res.defined_on[:4]),
                    ", ".join(res.missing_on[:4]),
                ),
                span,
            )
        if res.arity_ok is False:
            report.error(
                "ANA302",
                "no override of %r accepts %d argument%s"
                % (call.selector, len(call.args), "" if len(call.args) == 1 else "s"),
                span,
            )

    def _resolve_method(
        self, receiver_classes: Sequence[str], selector: str
    ) -> _MethodResolution:
        res = _MethodResolution(selector)
        for cls in receiver_classes:
            if selector in self.schema.methods(cls):
                res.defined_on.append(cls)
            else:
                res.missing_on.append(cls)
        return res

    def check_arity(
        self, receiver_classes: Sequence[str], selector: str, n_args: int
    ) -> Optional[bool]:
        """Does *any* override of ``selector`` accept ``n_args``?

        Late binding means the call site is legal if the union of return
        types over subclass overrides contains a signature that fits.
        Returns None when no override's signature is introspectable.
        """
        any_known = False
        for cls in receiver_classes:
            meth = self.schema.methods(cls).get(selector)
            if meth is None:
                continue
            fits = _signature_accepts(meth.fn, n_args)
            if fits is None:
                continue
            any_known = True
            if fits:
                return True
        return False if any_known else None

    # -- ADT predicates --------------------------------------------------

    def _check_adt_predicate(
        self, report: DiagnosticReport, target: str, predicate: AdtPredicate
    ) -> None:
        self._resolve(report, target, predicate.path)
        if self.adt_registry is not None and not self.adt_registry.has_operation(
            predicate.name
        ):
            report.error(
                "ANA304",
                "unknown ADT operation %r" % (predicate.name,),
                self._span(predicate),
            )

    # -- aggregates ------------------------------------------------------

    def _check_aggregate(
        self, report: DiagnosticReport, target: str, aggregate: Aggregate
    ) -> None:
        if aggregate.path is None:
            return  # count(*) applies to anything
        resolution = self._resolve(report, target, aggregate.path)
        if resolution is None or resolution.domain is None:
            return
        domain = resolution.domain
        if domain in (ANY_CLASS, ROOT_CLASS) or self.schema.is_value_domain(domain):
            return
        span = self._span(aggregate) or self._span(aggregate.path)
        if aggregate.fn in ("sum", "avg") and domain not in _NUMERIC_DOMAINS:
            report.error(
                "ANA401",
                "%s(%s) needs a numeric path; %s is %s"
                % (aggregate.fn.upper(), aggregate.path.dotted(),
                   aggregate.path.dotted(), domain),
                span,
            )
        elif aggregate.fn in ("min", "max") and (
            domain not in _ORDERED_DOMAINS
        ):
            report.error(
                "ANA401",
                "%s(%s) needs an ordered domain; %s is %s"
                % (aggregate.fn.upper(), aggregate.path.dotted(),
                   aggregate.path.dotted(), domain),
                span,
            )

    # -- class-hierarchy pruning facts -----------------------------------

    def _infer_pruning(
        self, report: DiagnosticReport, query: Query, scope: Sequence[str]
    ) -> None:
        """Drop subclasses for which a top-level conjunct cannot hold.

        Sound because a conjunct unsatisfiable for a class makes the
        whole WHERE unsatisfiable for that class's instances.  The
        classic case is an attribute *redefined* to an incompatible
        domain in a subclass (core concept 5 allows shadowing).
        """
        if len(scope) <= 1:
            return
        for predicate in conjuncts(query.where):
            if not isinstance(predicate, Comparison):
                continue
            base = resolve_path(self.schema, query.target_class, predicate.path.steps)
            if not base.ok or base.domain is None:
                continue
            for cls in scope:
                if cls == query.target_class or cls in report.pruned_classes:
                    continue
                res = resolve_path(self.schema, cls, predicate.path.steps)
                if not res.ok or res.domain is None or res.domain == base.domain:
                    continue
                if self._unsatisfiable(res.domain, predicate):
                    report.prune(
                        cls,
                        "attribute path %s is %s-valued here; predicate %r "
                        "cannot hold" % (predicate.path.dotted(), res.domain, predicate),
                        self._span(predicate),
                    )

    def _unsatisfiable(self, domain: str, comparison: Comparison) -> bool:
        """Can no value of ``domain`` satisfy the comparison?"""
        if domain in (ANY_CLASS, ROOT_CLASS) or self.schema.is_value_domain(domain):
            return False
        value = comparison.const.value
        op = comparison.op
        if op in ("<", "<=", ">", ">="):
            if domain == "Boolean" or not is_primitive_class(domain):
                return True
            kind = _literal_kind(value)
            if kind in ("Null", "Unknown"):
                return False
            # Ordered comparison across incomparable primitive domains
            # (e.g. a String-redefined attribute against an Integer
            # literal) evaluates to false for every value.
            return not _primitive_compatible(domain, kind)
        if op == "like":
            return is_primitive_class(domain) and domain != "String"
        literals = value if op == "in" and isinstance(value, (list, tuple)) else [value]
        kinds = [_literal_kind(v) for v in literals]
        if any(k == "Null" for k in kinds):
            return False
        if is_primitive_class(domain):
            return not any(_primitive_compatible(domain, k) for k in kinds)
        # Reference domain vs. literals: never equal (see ANA205), but a
        # != probe is then always true, so only prune the positive forms.
        return op in ("=", "in", "contains")


def _signature_accepts(fn, n_args: int) -> Optional[bool]:
    """Whether ``fn(receiver, *args)`` accepts ``n_args`` extra positionals.

    Returns None when the signature cannot be introspected (C builtins,
    odd callables) — the analyzer then stays silent rather than guessing.
    """
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    positional = 0
    required = 0
    has_var = False
    params = list(signature.parameters.values())[1:]  # drop the receiver
    for param in params:
        if param.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            positional += 1
            if param.default is inspect.Parameter.empty:
                required += 1
        elif param.kind == inspect.Parameter.VAR_POSITIONAL:
            has_var = True
    if n_args < required:
        return False
    if n_args > positional and not has_var:
        return False
    return True
