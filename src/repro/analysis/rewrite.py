"""WHERE-clause normalization and abstract interpretation.

This pass runs between the semantic gate and the planner.  It rewrites
the predicate into one canonical form — constant folding, NOT-pushdown,
conjunctive normal form, commutative operands in a deterministic order —
then interprets the top-level conjuncts over the abstract value domains
of :mod:`repro.analysis.domains` to:

* **prove contradictions**: a WHERE clause no object can satisfy gets a
  ``REW001`` diagnostic and the planner short-circuits it to an empty
  scan that touches no storage and opens no snapshot;
* **eliminate tautological conjuncts** (``REW002``): a conjunct implied
  by another on the same path (``x > 5`` next to ``x > 10``) is dropped
  from the predicate, and a CNF clause containing ``X OR NOT X`` is
  removed entirely;
* **derive sargable bounds** (``REW003``): two-sided ranges accumulated
  across conjuncts (``x > 5 AND x <= 9``) are handed to the planner's
  index selection as :class:`AnalysisFacts`, enabling a single two-sided
  index range probe where per-conjunct matching only sees one side.

Every rewrite is *sound* under the engine's existential path semantics:
transformations that assume a path yields exactly one value (``NOT``
pushed into ``=``/``!=``, interval contradictions) are applied only when
the path is a single non-set-valued step in every class of the query
scope; witness-based rules (conjunct implication, De Morgan) hold for
any fan-out.  The canonical form is also what the plan cache fingerprint
hashes, so structurally equal queries share one cache entry.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.primitives import ANY_CLASS
from ..query.ast import (
    AdtPredicate,
    And,
    Comparison,
    Const,
    Expr,
    Not,
    Or,
    Query,
    conjuncts,
    structural_key,
)
from .diagnostics import Diagnostic, INFO
from .domains import PathConstraints, comparison_implies
from .resolve import resolve_path

#: Distributing OR over AND is bounded: past this many CNF clauses the
#: expression is left in its (already normalized) non-CNF shape.
_MAX_CNF_CLAUSES = 24


class AnalysisFacts:
    """What abstract interpretation proved about one query's predicate.

    ``ranges`` maps a path's step tuple to the two-sided bound
    ``(low, low_inclusive, high, high_inclusive)`` every matching object
    must satisfy — valid for index probing because the path yields at
    most one value per object in every class of the query scope.
    """

    __slots__ = ("contradiction", "reason", "ranges")

    def __init__(self) -> None:
        self.contradiction = False
        self.reason: Optional[str] = None
        self.ranges: Dict[Tuple[str, ...], Tuple[Any, bool, Any, bool]] = {}

    def __repr__(self) -> str:
        if self.contradiction:
            return "<AnalysisFacts contradiction: %s>" % (self.reason,)
        return "<AnalysisFacts ranges=%r>" % (self.ranges,)


class RewriteResult:
    """Outcome of one rewrite run: the normalized query plus evidence."""

    __slots__ = ("query", "rules", "diagnostics", "facts", "fingerprint", "changed")

    def __init__(
        self,
        query: Query,
        rules: List[Tuple[str, str]],
        diagnostics: List[Diagnostic],
        facts: AnalysisFacts,
        fingerprint: str,
        changed: bool,
    ) -> None:
        self.query = query
        #: ``(rule-name, detail)`` pairs in application order — rendered
        #: by EXPLAIN's ``-- rewrite --`` section.
        self.rules = rules
        self.diagnostics = diagnostics
        self.facts = facts
        self.fingerprint = fingerprint
        self.changed = changed

    def __repr__(self) -> str:
        return "<RewriteResult %s %d rule(s)%s>" % (
            self.fingerprint,
            len(self.rules),
            " CONTRADICTION" if self.facts.contradiction else "",
        )


def query_fingerprint(query: Query) -> str:
    """Hash of the normalized query's structure (plan-cache key part)."""
    parts = [
        "target=%s" % query.target_class,
        "hier=%d" % int(query.hierarchy),
        "where=%s" % structural_key(query.where),
        "proj=%s"
        % (
            ",".join(".".join(p.steps) for p in query.projections)
            if query.projections
            else "-"
        ),
        "order=%s" % (".".join(query.order_by.steps) if query.order_by else "-"),
        "desc=%d" % int(query.descending),
        "limit=%r" % (query.limit,),
        "agg=%s"
        % (
            ",".join(
                "%s(%s)" % (a.fn, ".".join(a.path.steps) if a.path else "*")
                for a in query.aggregates
            )
            if query.aggregates
            else "-"
        ),
        "group=%s" % (".".join(query.group_by.steps) if query.group_by else "-"),
    ]
    return hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()[:16]


def rewrite_query(
    schema: Any, query: Query, exclude_classes: Sequence[str] = ()
) -> RewriteResult:
    """Normalize and abstractly interpret one parsed, semantically-valid query."""
    rules: List[Tuple[str, str]] = []
    diags: List[Diagnostic] = []
    facts = AnalysisFacts()
    scope = _scope_of(schema, query, exclude_classes)

    where = query.where
    if where is not None:
        where = _fold(where, rules)
        flip_ok = _flip_ok_paths(schema, scope, where)
        if where is not None:
            where = _push_not(where, flip_ok, rules)
            where = _fold(where, None)
        if where is not None:
            where = _to_cnf(where, rules)
            where = _drop_tautologies(where, flip_ok, rules, diags)
        if where is not None:
            where = _canonicalize(where, rules)
        if where is not None:
            where = _analyze_conjuncts(
                schema, query, scope, where, rules, diags, facts
            )
    changed = structural_key(where) != structural_key(query.where)
    normalized = _clone(query, where) if changed else query
    return RewriteResult(
        normalized, rules, diags, facts, query_fingerprint(normalized), changed
    )


# -- normalization -----------------------------------------------------------


def _note(rules: Optional[List[Tuple[str, str]]], rule: str, detail: str) -> None:
    if rules is not None:
        rules.append((rule, detail))


def _fold(expr: Expr, rules: Optional[List[Tuple[str, str]]]) -> Expr:
    """Constant folding: flatten/dedupe AND-OR nests, normalize IN lists,
    collapse double negation.  Bottom-up and idempotent."""
    if isinstance(expr, Not):
        inner = _fold(expr.operand, rules)
        if isinstance(inner, Not):
            _note(rules, "const-fold", "double negation removed: %r" % (expr,))
            return inner.operand
        return expr if inner is expr.operand else Not(inner)
    if isinstance(expr, (And, Or)):
        kind = type(expr)
        flat: List[Expr] = []
        flattened = False
        for operand in expr.operands:
            folded = _fold(operand, rules)
            if isinstance(folded, kind):
                flat.extend(folded.operands)
                flattened = True
            else:
                flat.append(folded)
        seen: Set[str] = set()
        out: List[Expr] = []
        for operand in flat:
            key = structural_key(operand)
            if key in seen:
                _note(rules, "const-fold", "duplicate operand removed: %s" % key)
                continue
            seen.add(key)
            out.append(operand)
        if flattened:
            _note(rules, "const-fold", "nested %s flattened" % kind.__name__.upper())
        if len(out) == 1:
            return out[0]
        if not flattened and len(out) == len(expr.operands) and all(
            a is b for a, b in zip(out, expr.operands)
        ):
            return expr
        return kind(out)
    if isinstance(expr, Comparison) and expr.op == "in":
        values = list(expr.const.value)
        seen_tokens: Set[str] = set()
        unique: List[Any] = []
        for value in values:
            token = "%s:%r" % (type(value).__name__, value)
            if token in seen_tokens:
                continue
            seen_tokens.add(token)
            unique.append(value)
        unique.sort(key=lambda v: "%s:%r" % (type(v).__name__, v))
        if len(unique) == 1:
            _note(rules, "const-fold", "single-element IN folded to = on %s"
                  % expr.path.dotted())
            folded_cmp = Comparison("=", expr.path, Const(unique[0]))
            folded_cmp.span = expr.span
            return folded_cmp
        if unique != values:
            _note(rules, "const-fold", "IN list deduplicated/ordered on %s"
                  % expr.path.dotted())
            folded_cmp = Comparison("in", expr.path, Const(unique))
            folded_cmp.span = expr.span
            return folded_cmp
    return expr


def _flip_ok_paths(schema: Any, scope: Sequence[str], where: Expr) -> Set[Tuple[str, ...]]:
    """Paths for which ``NOT (p = c)`` ⇔ ``p != c`` is a sound rewrite.

    The equivalence needs the path to yield *exactly one* value per
    object: a single-step path on an attribute declared non-set-valued
    (and non-``Any``) in every class of the scope — such a path always
    yields one value, possibly None, and ``!=`` is the literal negation
    of ``=`` per value.
    """
    paths: Set[Tuple[str, ...]] = set()

    def visit(node: Expr) -> None:
        if isinstance(node, Comparison):
            paths.add(node.path.steps)
        for child in node.children():
            visit(child)

    visit(where)
    ok: Set[Tuple[str, ...]] = set()
    for steps in paths:
        if len(steps) != 1:
            continue
        sound = True
        for cls in scope:
            attr = schema.attribute_map(cls).get(steps[0])
            if attr is None or attr.multi or attr.domain == ANY_CLASS:
                sound = False
                break
        if sound:
            ok.add(steps)
    return ok


def _push_not(
    expr: Expr,
    flip_ok: Set[Tuple[str, ...]],
    rules: Optional[List[Tuple[str, str]]],
) -> Expr:
    """Negation-normal form: De Morgan over AND/OR (always sound), with
    ``NOT`` absorbed into ``=``/``!=`` leaves on exactly-one-valued paths.
    Ordered operators are never flipped (``NOT (x < 5)`` is not
    ``x >= 5`` when x is null)."""
    if isinstance(expr, Not):
        inner = expr.operand
        if isinstance(inner, Not):
            return _push_not(inner.operand, flip_ok, rules)
        if isinstance(inner, (And, Or)):
            kind = Or if isinstance(inner, And) else And
            _note(rules, "not-pushdown", "De Morgan over %s"
                  % type(inner).__name__.upper())
            return kind([_push_not(Not(o), flip_ok, rules) for o in inner.operands])
        if (
            isinstance(inner, Comparison)
            and inner.op in ("=", "!=")
            and inner.path.steps in flip_ok
        ):
            flipped = Comparison(
                "!=" if inner.op == "=" else "=", inner.path, inner.const
            )
            flipped.span = inner.span
            _note(rules, "not-pushdown", "NOT absorbed: %r -> %r" % (expr, flipped))
            return flipped
        pushed = _push_not(inner, flip_ok, rules)
        return expr if pushed is inner else Not(pushed)
    if isinstance(expr, (And, Or)):
        kind = type(expr)
        operands = [_push_not(o, flip_ok, rules) for o in expr.operands]
        if all(a is b for a, b in zip(operands, expr.operands)):
            return expr
        return kind(operands)
    return expr


def _to_cnf(expr: Expr, rules: Optional[List[Tuple[str, str]]]) -> Expr:
    """Conjunctive normal form with a clause-count bound.

    Works on clause sets (clause = list of OR-ed literals); gives up and
    returns the input untouched when distribution would exceed
    ``_MAX_CNF_CLAUSES``.
    """
    before = structural_key(expr)
    clause_sets = _clauses(expr)
    if clause_sets is None:
        return expr
    rebuilt = _from_clauses(clause_sets)
    if rebuilt is None:
        return expr
    if structural_key(rebuilt) != before:
        _note(rules, "cnf", "OR distributed over AND (%d clause(s))"
              % len(clause_sets))
    return rebuilt


def _clauses(expr: Expr) -> Optional[List[List[Expr]]]:
    if isinstance(expr, And):
        out: List[List[Expr]] = []
        for operand in expr.operands:
            sub = _clauses(operand)
            if sub is None:
                return None
            out.extend(sub)
        return out
    if isinstance(expr, Or):
        acc: List[List[Expr]] = [[]]
        for operand in expr.operands:
            sub = _clauses(operand)
            if sub is None or len(acc) * len(sub) > _MAX_CNF_CLAUSES:
                return None
            acc = [left + right for left in acc for right in sub]
        return acc
    return [[expr]]


def _from_clauses(clause_sets: List[List[Expr]]) -> Optional[Expr]:
    clauses: List[Expr] = []
    seen: Set[str] = set()
    for literals in clause_sets:
        unique: List[Expr] = []
        lit_seen: Set[str] = set()
        for literal in literals:
            key = structural_key(literal)
            if key in lit_seen:
                continue
            lit_seen.add(key)
            unique.append(literal)
        clause = unique[0] if len(unique) == 1 else Or(unique)
        key = structural_key(clause)
        if key in seen:
            continue
        seen.add(key)
        clauses.append(clause)
    if not clauses:
        return None
    if len(clauses) == 1:
        return clauses[0]
    return And(clauses)


def _complementary_eq(clause: Or, flip_ok: Set[Tuple[str, ...]]) -> bool:
    """``p = c OR p != c`` on an exactly-one-valued path is always true.

    (On a fan-out path it is not: an object with zero terminal values
    fails both disjuncts.)
    """
    eqs = {
        structural_key(Comparison("=", o.path, o.const))
        for o in clause.operands
        if isinstance(o, Comparison) and o.op == "!=" and o.path.steps in flip_ok
    }
    return any(
        isinstance(o, Comparison) and o.op == "=" and structural_key(o) in eqs
        for o in clause.operands
    )


def _drop_tautologies(
    expr: Expr,
    flip_ok: Set[Tuple[str, ...]],
    rules: Optional[List[Tuple[str, str]]],
    diags: List[Diagnostic],
) -> Optional[Expr]:
    """Remove top-level CNF clauses of the shape ``X OR NOT X``.

    Sound for any deterministic predicate X: per object, X either holds
    (left disjunct) or does not (right disjunct).  Also catches the
    post-NOT-pushdown spelling ``p = c OR p != c`` on exactly-one-valued
    paths.  Returns None when the whole predicate reduces to TRUE.
    """
    kept: List[Expr] = []
    for clause in conjuncts(expr):
        if isinstance(clause, Or):
            keys = {structural_key(o) for o in clause.operands}
            tautology = any(
                isinstance(o, Not) and structural_key(o.operand) in keys
                for o in clause.operands
            ) or _complementary_eq(clause, flip_ok)
            if tautology:
                _note(rules, "tautology", "always-true clause removed: %r" % (clause,))
                diags.append(
                    Diagnostic(
                        INFO,
                        "REW002",
                        "tautological clause %r eliminated" % (clause,),
                        _span_of(clause),
                    )
                )
                continue
        kept.append(clause)
    if not kept:
        return None
    if len(kept) == 1:
        return kept[0]
    if len(kept) == len(conjuncts(expr)):
        return expr
    return And(kept)


def _sort_rank(expr: Expr) -> int:
    if isinstance(expr, Comparison):
        return 0
    if isinstance(expr, AdtPredicate):
        return 1
    if isinstance(expr, Not):
        return 2
    if isinstance(expr, (And, Or)):
        return 3
    return 4  # MethodCall and anything else opaque: evaluate last


def _sort_cost(expr: Expr) -> int:
    if isinstance(expr, Comparison):
        return len(expr.path.steps)
    if isinstance(expr, Not):
        return _sort_cost(expr.operand)
    return 0


def _sort_key(expr: Expr) -> Tuple[int, int, str]:
    return (_sort_rank(expr), _sort_cost(expr), structural_key(expr))


def _canonicalize(expr: Expr, rules: Optional[List[Tuple[str, str]]]) -> Expr:
    """Deterministic operand order for commutative connectives.

    Cheap predicates first (comparisons by path length — a one-step
    comparison never dereferences, a method call always sends), then a
    stable structural tiebreak; so the canonical form is also the
    cheapest short-circuit order.
    """
    changed = [False]

    def rec(node: Expr) -> Expr:
        if isinstance(node, (And, Or)):
            kind = type(node)
            operands = [rec(o) for o in node.operands]
            ordered = sorted(operands, key=_sort_key)
            if [structural_key(o) for o in ordered] != [
                structural_key(o) for o in node.operands
            ]:
                changed[0] = True
                return kind(ordered)
            if all(a is b for a, b in zip(operands, node.operands)):
                return node
            return kind(operands)
        if isinstance(node, Not):
            inner = rec(node.operand)
            return node if inner is node.operand else Not(inner)
        return node

    out = rec(expr)
    if changed[0]:
        _note(rules, "canonical-order", "commutative operands reordered")
    return out


# -- abstract interpretation --------------------------------------------------


def _scope_of(schema: Any, query: Query, exclude_classes: Sequence[str]) -> List[str]:
    scope = [query.target_class]
    if query.hierarchy and schema.has_class(query.target_class):
        scope.extend(schema.subclasses(query.target_class))
    excluded = set(exclude_classes) - {query.target_class}
    return [cls for cls in scope if cls not in excluded]


def _span_of(expr: Optional[Expr]):
    if expr is None:
        return None
    span = getattr(expr, "span", None)
    if span is not None:
        return span
    for child in expr.children():
        span = _span_of(child)
        if span is not None:
            return span
    return None


def _universal_false(conjunct: Expr) -> Optional[str]:
    """A conjunct false for *every* object regardless of class or fan-out."""
    if not isinstance(conjunct, Comparison):
        return None
    value = conjunct.const.value
    if conjunct.op == "in" and isinstance(value, (list, tuple)) and not value:
        return "IN over an empty list matches nothing"
    if conjunct.op in ("<", "<=", ">", ">=") and value is None:
        return "ordered comparison against null matches nothing"
    if conjunct.op == "like" and not isinstance(value, str):
        return "LIKE requires a string pattern"
    return None


def _analyze_conjuncts(
    schema: Any,
    query: Query,
    scope: List[str],
    where: Expr,
    rules: List[Tuple[str, str]],
    diags: List[Diagnostic],
    facts: AnalysisFacts,
) -> Optional[Expr]:
    conjs = conjuncts(where)
    keys = [structural_key(c) for c in conjs]
    keyset = set(keys)

    # Structural contradiction: A AND NOT A (any deterministic A).
    contradiction: Optional[str] = None
    for conjunct in conjs:
        if isinstance(conjunct, Not) and structural_key(conjunct.operand) in keyset:
            contradiction = "conjunct %r contradicts its own negation" % (
                conjunct.operand,
            )
            break

    # Universally-false conjuncts (class- and fan-out-independent).
    if contradiction is None:
        for conjunct in conjs:
            reason = _universal_false(conjunct)
            if reason is not None:
                contradiction = "%r: %s" % (conjunct, reason)
                break

    # Per-class interval/type analysis over at-most-one-valued paths.
    sarg_ok: Dict[Tuple[str, ...], bool] = {}
    target_constraints: Dict[Tuple[str, ...], PathConstraints] = {}
    if contradiction is None and scope:
        empty_reasons: List[str] = []
        all_empty = True
        for cls in scope:
            constraints: Dict[Tuple[str, ...], PathConstraints] = {}
            for conjunct in conjs:
                if not isinstance(conjunct, Comparison):
                    continue
                steps = conjunct.path.steps
                res = resolve_path(schema, cls, steps)
                usable = (
                    res.ok
                    and len(res.attrs) == len(steps)
                    and not res.multi
                    and res.domain != ANY_CLASS
                )
                sarg_ok[steps] = sarg_ok.get(steps, True) and usable
                if not usable:
                    continue
                constraints.setdefault(steps, PathConstraints(res.domain)).add(
                    conjunct.op, conjunct.const.value
                )
            if cls == query.target_class:
                target_constraints = constraints
            reason = None
            for steps, pc in constraints.items():
                verdict = pc.contradiction()
                if verdict is not None:
                    reason = "%s.%s: %s" % (cls, ".".join(steps), verdict)
                    break
            if reason is None:
                all_empty = False
            elif len(empty_reasons) < 3:
                empty_reasons.append(reason)
        if all_empty and empty_reasons:
            contradiction = "; ".join(empty_reasons)

    if contradiction is not None:
        facts.contradiction = True
        facts.reason = contradiction
        rules.append(("contradiction", contradiction))
        diags.append(
            Diagnostic(
                INFO,
                "REW001",
                "WHERE clause is provably unsatisfiable (%s); "
                "query short-circuits to an empty scan" % contradiction,
                _span_of(where),
            )
        )
        return where

    # Sargable two-sided ranges for the planner's index selection.
    for steps, pc in target_constraints.items():
        if not sarg_ok.get(steps, False):
            continue
        bounds = pc.sargable()
        if bounds is None:
            continue
        facts.ranges[steps] = bounds
        low, low_inc, high, high_inc = bounds
        detail = "%s %s %r .. %s %r" % (
            ".".join(steps),
            ">=" if low_inc else ">",
            low,
            "<=" if high_inc else "<",
            high,
        )
        rules.append(("sargable-range", detail))
        diags.append(
            Diagnostic(
                INFO,
                "REW003",
                "conjuncts narrow %s to the sargable range %s"
                % (".".join(steps), detail),
                _span_of(where),
            )
        )

    # Implied-conjunct elimination (witness-sound for any fan-out).
    dropped: Set[int] = set()
    for i, candidate in enumerate(conjs):
        if not isinstance(candidate, Comparison):
            continue
        for j, other in enumerate(conjs):
            if i == j or j in dropped or not isinstance(other, Comparison):
                continue
            if other.path.steps != candidate.path.steps:
                continue
            if comparison_implies(
                other.op, other.const.value, candidate.op, candidate.const.value
            ):
                mutual = comparison_implies(
                    candidate.op, candidate.const.value, other.op, other.const.value
                )
                if mutual and i < j:
                    continue  # equivalent conjuncts: keep the first
                dropped.add(i)
                detail = "dropped %r: implied by %r" % (candidate, other)
                rules.append(("implied-conjunct", detail))
                diags.append(
                    Diagnostic(
                        INFO,
                        "REW002",
                        "tautological conjunct %r eliminated (implied by %r)"
                        % (candidate, other),
                        _span_of(candidate),
                    )
                )
                break
    if dropped:
        kept = [c for idx, c in enumerate(conjs) if idx not in dropped]
        if not kept:
            return None
        if len(kept) == 1:
            return kept[0]
        return And(kept)
    return where


def _clone(query: Query, where: Optional[Expr]) -> Query:
    clone = Query(
        query.target_class,
        variable=query.variable,
        where=where,
        hierarchy=query.hierarchy,
        projections=query.projections,
        order_by=query.order_by,
        descending=query.descending,
        limit=query.limit,
        aggregates=query.aggregates,
        group_by=query.group_by,
    )
    clone.span = query.span
    return clone
