"""Object algebra.

Section 5.3 notes the core query model needs a formal basis and that its
lower bound is nested-relational expressive power.  This module gives the
executor (and users who want to compose queries programmatically) a small
algebra over *extents* — ordered lists of object states — with the usual
operators lifted to the object setting: selection over path predicates,
projection along paths, set operations by object identity, and unnest.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..errors import QueryError
from ..index.btree import normalize_key
from .ast import (
    AdtPredicate,
    And,
    Comparison,
    Expr,
    MethodCall,
    Not,
    Or,
)
from .compiler import PathReader, compile_first, compile_path, compile_projection, first_of_one
from .paths import Deref, compare, evaluate_path

#: Sends a message to an object and returns the result (late binding);
#: wired to ``Database.send`` by the executor.
Sender = Callable[[OID, str], Any]

#: ``normalize_key``'s rank of the value types ORDER BY and GROUP BY
#: keys rank inline (``bool`` is not one: it ranks apart from numbers;
#: nor is a NaN float, which ranks after them).
_RANKS = {int: 2, float: 2, str: 4}
#: Values that are their own GROUP BY key unchecked: never NaN.
_OWN_KEYS = frozenset((int, str))


def evaluate_predicate(
    expr: Expr,
    state: ObjectState,
    deref: Deref,
    send: Optional[Callable[..., Any]] = None,
    adt_eval: Optional[Callable[[AdtPredicate, ObjectState], bool]] = None,
) -> bool:
    """Evaluate a boolean expression against one object.

    Path comparisons use existential semantics over fan-out values.
    Method predicates need ``send``; ADT predicates need ``adt_eval`` —
    both raise if required but not provided.  This is the reference
    interpreter: the query pipeline runs the same semantics compiled
    (:func:`~repro.query.compiler.compile_filter`, whose every leaf it
    does not inline calls the same :func:`~repro.query.paths.compare`).
    """
    if isinstance(expr, Comparison):
        values = evaluate_path(state, expr.path.steps, deref)
        return any(compare(expr.op, value, expr.const.value) for value in values)
    if isinstance(expr, And):
        return all(
            evaluate_predicate(op, state, deref, send, adt_eval) for op in expr.operands
        )
    if isinstance(expr, Or):
        return any(
            evaluate_predicate(op, state, deref, send, adt_eval) for op in expr.operands
        )
    if isinstance(expr, Not):
        return not evaluate_predicate(expr.operand, state, deref, send, adt_eval)
    if isinstance(expr, MethodCall):
        if send is None:
            raise ValueError("method predicates require a message sender")
        receivers: List[OID]
        if expr.path is None:
            receivers = [state.oid]
        else:
            receivers = [
                value
                for value in evaluate_path(state, expr.path.steps, deref)
                if isinstance(value, OID)
            ]
        for receiver in receivers:
            result = send(receiver, expr.selector, *expr.args)
            if compare(expr.op, result, expr.const.value):
                return True
        return False
    if isinstance(expr, AdtPredicate):
        if adt_eval is None:
            raise ValueError("ADT predicates require an ADT evaluator")
        return adt_eval(expr, state)
    raise ValueError("unknown expression node %r" % (expr,))


def select(
    extent: Iterable[ObjectState],
    predicate: Expr,
    deref: Deref,
    send: Optional[Callable[..., Any]] = None,
    adt_eval: Optional[Callable[[AdtPredicate, ObjectState], bool]] = None,
) -> Iterator[ObjectState]:
    """sigma: keep the objects satisfying the predicate."""
    for state in extent:
        if evaluate_predicate(predicate, state, deref, send, adt_eval):
            yield state


def project(
    extent: Iterable[ObjectState],
    paths: Sequence[Sequence[str]],
    deref: Deref,
) -> Iterator[Dict[str, Any]]:
    """pi: rows of {dotted path -> value(s)}.

    A path with a single terminal value is unwrapped; fan-out keeps the
    list.  Missing/broken paths yield None.
    """
    return map(compile_projection(paths, partial(compile_path, deref=deref)), extent)


def union(left: Iterable[ObjectState], right: Iterable[ObjectState]) -> List[ObjectState]:
    """Set union by object identity, order-stable (left first)."""
    seen: Dict[OID, ObjectState] = {}
    for state in list(left) + list(right):
        if state.oid not in seen:
            seen[state.oid] = state
    return list(seen.values())


def intersect(left: Iterable[ObjectState], right: Iterable[ObjectState]) -> List[ObjectState]:
    right_oids = {state.oid for state in right}
    out, seen = [], set()
    for state in left:
        if state.oid in right_oids and state.oid not in seen:
            seen.add(state.oid)
            out.append(state)
    return out


def difference(left: Iterable[ObjectState], right: Iterable[ObjectState]) -> List[ObjectState]:
    right_oids = {state.oid for state in right}
    out, seen = [], set()
    for state in left:
        if state.oid not in right_oids and state.oid not in seen:
            seen.add(state.oid)
            out.append(state)
    return out


def unnest(
    extent: Iterable[ObjectState],
    attribute: str,
    deref: Deref,
) -> Iterator[ObjectState]:
    """mu: flatten a reference attribute into the referenced objects."""
    seen = set()
    for state in extent:
        value = state.values.get(attribute)
        elements = value if isinstance(value, list) else [value]
        for element in elements:
            if isinstance(element, OID) and element not in seen:
                referenced = deref(element)
                if referenced is not None:
                    seen.add(element)
                    yield referenced


def order_key(
    steps: Sequence[str], path: PathReader, descending: bool = False, states: bool = True
) -> Callable[[Any], Tuple]:
    """The ORDER BY key of a row: its path's first terminal value, ranked,
    in one flat tuple.

    ``path`` is the kernel's compiled path.  A value keys as ``(0, rank,
    value)``, :func:`~repro.index.btree.normalize_key`'s pair (so every
    NaN is its one NaN object, and all NaNs tie); a missing value keys as
    ``(1, 0, False)`` — ``(-1, 0, False)`` in descending order — so it
    comes after every value in either direction.  An object state
    (``states``) appends its OID value, so ties break on OID and results
    are deterministic; a row dict has none, and the stable :func:`rank`
    keeps its ties in scan order.  Over object states a one-step path
    reads its attribute inline, and an ``int`` / ``float`` / ``str``
    value other than NaN is ranked there too.
    """
    last = -1 if descending else 1

    def ranked(value: Any, *oid: int) -> Tuple:
        if value is None:
            return (last, 0, False, *oid)
        rank, value = normalize_key(value)
        return (0, rank, value, *oid)

    if states and len(steps) == 1:
        attr, rank_of = steps[0], _RANKS.get

        def key_of_one(state: ObjectState) -> Tuple:
            value = state.values.get(attr)
            rank = rank_of(type(value))
            if rank is not None and value == value:
                return (0, rank, value, state.oid.value)
            return ranked(first_of_one(value), state.oid.value)

        return key_of_one

    def key(row: Any) -> Tuple:
        values = path(row)
        value = values[0] if values else None
        return ranked(value, row.oid.value) if states else ranked(value)

    return key


def rank(
    rows: List[Any],
    key: Callable[[Any], Tuple],
    descending: bool,
    limit: Optional[int] = None,
) -> List[Any]:
    """ORDER BY: the first ``limit`` rows (every row without one) by an
    :func:`order_key` ``key`` made for this direction, via a bounded heap.

    O(n log k) time and O(k) extra ordering state; ``heapq.nsmallest`` /
    ``nlargest`` return exactly ``sorted(...)[:k]``, stably, so a full
    sort is ``limit = len(rows)``.  Rows with no value come last: object
    states by descending OID in descending order (the order a reversed
    full sort leaves them in), row dicts in scan order.  The whole input
    is still consumed — real early termination needs an ordered access
    path underneath a LIMIT instead.
    """
    top = heapq.nlargest if descending else heapq.nsmallest
    return top(len(rows) if limit is None else limit, rows, key=key)


def order_by(
    extent: Iterable[ObjectState],
    steps: Sequence[str],
    deref: Deref,
    descending: bool = False,
) -> List[ObjectState]:
    """Order an extent by the first terminal value of a path.

    Objects with no value sort last (regardless of direction) and ties
    break on OID so results are deterministic.
    """
    key = order_key(steps, compile_path(steps, deref), descending)
    return rank(list(extent), key, descending)


def compile_aggregate(
    query, deref: Deref
) -> Callable[[Iterable[ObjectState]], List[Dict[str, Any]]]:
    """Compile a query's GROUP BY key and aggregate paths into a fold:
    extent -> per-group summary rows (COUNT/SUM/AVG/MIN/MAX).

    Rows group by the ORDER BY key's ranked value (``normalize_key`` of
    the first terminal value), so ``1`` and ``1.0`` share a group — ``1
    = 1.0`` holds — while ``True`` and ``1`` do not.  A group shows the
    value its first member read.  Groups order by key with the None
    group last; a query without GROUP BY folds everything into one row.
    """
    folds = [
        (
            aggregate.label(),
            aggregate.fn,
            None if aggregate.path is None else compile_path(aggregate.path.steps, deref),
        )
        for aggregate in query.aggregates or []
    ]
    if query.group_by is None:

        def fold_all(extent: Iterable[ObjectState]) -> List[Dict[str, Any]]:
            members = [state for state in extent]
            return [{label: _fold(label, fn, path, members) for label, fn, path in folds}]

        return fold_all
    steps = query.group_by.steps
    group_label = query.group_by.dotted()
    first = compile_first(steps, deref)
    attr = steps[0] if len(steps) == 1 else None

    def fold(extent: Iterable[ObjectState]) -> List[Dict[str, Any]]:
        groups: Dict[Any, List[ObjectState]] = {}
        for state in extent:
            key = state.values.get(attr) if attr is not None else first(state)
            if type(key) not in _OWN_KEYS:
                # A one-step list's first item may be an int, float or str.
                key = _group_key(first_of_one(key) if attr is not None else key)
            members = groups.get(key)
            if members is None:
                groups[key] = [state]
            else:
                members.append(state)
        rows: List[Dict[str, Any]] = []
        for key in sorted(groups, key=_group_order):
            members = groups[key]
            row: Dict[str, Any] = {group_label: first(members[0])}
            for label, fn, path in folds:
                row[label] = _fold(label, fn, path, members)
            rows.append(row)
        return rows

    return fold


def _group_key(value: Any) -> Any:
    """A first terminal value's group key.  An int, float or str value
    other than NaN is its own key: no two of them are equal unless their
    ranked keys are, and none equals a ranked (tuple) key.  Any other
    value — NaN too, which equals nothing — is keyed by its ranked key."""
    return value if type(value) in _RANKS and value == value else normalize_key(value)


def _group_order(key: Any) -> Tuple:
    """Groups by ranked key, the None group (rank 0) last."""
    if type(key) is not tuple:
        key = (_RANKS[type(key)], key)
    return (key[0] == 0, key)


def _fold(label: str, fn: str, path, members: List[ObjectState]) -> Any:
    if path is None:  # count(*)
        return len(members)
    values = [value for state in members for value in path(state) if value is not None]
    if fn == "count":
        return len(values)
    if not values:
        return None
    try:
        if fn == "sum":
            return sum(values)
        if fn == "avg":
            return sum(values) / len(values)
        if fn == "min":
            return min(values)
        return max(values)
    except TypeError:
        raise _unfoldable(label, fn, values) from None


def _unfoldable(label: str, fn: str, values: List[Any]) -> QueryError:
    """The error for values ``fn`` cannot fold: it names the first two
    types that meet, in the order the fold met them, or the first
    value's type alone when a sum cannot start from it."""
    adds = fn in ("sum", "avg")
    so_far = values[0]
    if adds:
        try:
            0 + so_far
        except TypeError:
            return QueryError(
                "%s: values of type %s cannot be summed" % (label, type(so_far).__name__)
            )
    for value in values[1:]:
        try:
            if adds:
                so_far = so_far + value
            elif (value < so_far) if fn == "min" else (value > so_far):
                so_far = value
        except TypeError:
            break
    return QueryError(
        "%s: values of type %s and %s %s"
        % (
            label,
            type(so_far).__name__,
            type(value).__name__,
            "cannot be added" if adds else "have no common order",
        )
    )
