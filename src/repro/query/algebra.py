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
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from ..core.obj import ObjectState, copy_value
from ..core.oid import OID
from .ast import (
    AdtPredicate,
    And,
    Comparison,
    Expr,
    MethodCall,
    Not,
    Or,
)
from .paths import Deref, compare, evaluate_path

#: Sends a message to an object and returns the result (late binding);
#: wired to ``Database.send`` by the executor.
Sender = Callable[[OID, str], Any]


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
    both raise if required but not provided.
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
    for state in extent:
        yield project_row(state, paths, deref)


def project_row(
    state: ObjectState,
    paths: Sequence[Sequence[str]],
    deref: Deref,
) -> Dict[str, Any]:
    """One projected row — the per-object kernel behind :func:`project`."""
    row: Dict[str, Any] = {}
    for steps in paths:
        # Fresh lists only: a terminal list value belongs to a shared,
        # read-only stored state (DESIGN "Decoded-state memo").
        values = [
            copy_value(value) if isinstance(value, list) else value
            for value in evaluate_path(state, steps, deref)
        ]
        key = ".".join(steps)
        if not values:
            row[key] = None
        elif len(values) == 1:
            row[key] = values[0]
        else:
            row[key] = values
    return row


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
    from ..index.btree import normalize_key

    def sort_key(state: ObjectState):
        values = evaluate_path(state, steps, deref)
        if not values or values[0] is None:
            return (1, (0, False), state.oid.value)
        return (0, normalize_key(values[0]), state.oid.value)

    ordered = sorted(extent, key=sort_key, reverse=descending)
    if descending:
        # Keep missing values last even in descending order.
        present = [s for s in ordered if sort_key(s)[0] == 0]
        missing = [s for s in ordered if sort_key(s)[0] == 1]
        return present + missing
    return ordered


def top_k(
    extent: Iterable[ObjectState],
    steps: Optional[Sequence[str]],
    deref: Deref,
    descending: bool,
    k: int,
) -> List[ObjectState]:
    """The first ``k`` rows of :func:`order_by`, via bounded heaps.

    O(n log k) time and O(k) extra ordering state instead of a full
    sort; returns exactly ``order_by(extent, ...)[:k]`` (and, for
    ``steps`` None, exactly the default OID order's first ``k``).  The
    whole input is still consumed — real early termination needs an
    ordered access path underneath a LIMIT instead.
    """
    if k <= 0:
        return []
    if steps is None:
        return heapq.nsmallest(k, extent, key=lambda s: s.oid.value)

    from ..index.btree import normalize_key

    def sort_key(state: ObjectState):
        values = evaluate_path(state, steps, deref)
        if not values or values[0] is None:
            return (1, (0, False), state.oid.value)
        return (0, normalize_key(values[0]), state.oid.value)

    if not descending:
        return heapq.nsmallest(k, extent, key=sort_key)
    # Descending keeps missing-value rows last (by descending OID, the
    # order a reversed full sort leaves them in).
    present: List[Any] = []
    missing: List[ObjectState] = []
    for state in extent:
        values = evaluate_path(state, steps, deref)
        if not values or values[0] is None:
            missing.append(state)
        else:
            present.append((normalize_key(values[0]), state.oid.value, state))
    top = [
        entry[2]
        for entry in heapq.nlargest(k, present, key=lambda e: (e[0], e[1]))
    ]
    if len(top) < k:
        top.extend(
            heapq.nlargest(k - len(top), missing, key=lambda s: s.oid.value)
        )
    return top


def aggregate_rows(
    query,
    extent: Iterable[ObjectState],
    deref: Deref,
) -> List[Dict[str, Any]]:
    """Fold an extent into per-group summary rows (COUNT/SUM/AVG/MIN/MAX).

    Groups order by key with the None group last; a query without GROUP
    BY folds everything into one row.
    """
    groups: Dict[Any, List[ObjectState]] = {}
    if query.group_by is None:
        groups[None] = [state for state in extent]
    else:
        for state in extent:
            values = evaluate_path(state, query.group_by.steps, deref)
            key = values[0] if values else None
            groups.setdefault(key, []).append(state)

    from ..index.btree import normalize_key

    rows: List[Dict[str, Any]] = []
    for key in sorted(
        groups, key=lambda k: (k is None, normalize_key(k) if k is not None else 0)
    ):
        members = groups[key]
        row: Dict[str, Any] = {}
        if query.group_by is not None:
            row[query.group_by.dotted()] = key
        for aggregate in query.aggregates or []:
            row[aggregate.label()] = _fold(aggregate, members, deref)
        rows.append(row)
    return rows


def _fold(aggregate, members: List[ObjectState], deref: Deref) -> Any:
    if aggregate.path is None:  # count(*)
        return len(members)
    values = []
    for state in members:
        terminal = evaluate_path(state, aggregate.path.steps, deref)
        values.extend(v for v in terminal if v is not None)
    if aggregate.fn == "count":
        return len(values)
    if not values:
        return None
    if aggregate.fn == "sum":
        return sum(values)
    if aggregate.fn == "avg":
        return sum(values) / len(values)
    if aggregate.fn == "min":
        return min(values)
    return max(values)
