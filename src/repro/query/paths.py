"""Path evaluation along the aggregation hierarchy.

Evaluating ``v.manufacturer.location`` on a vehicle requires fetching the
referenced company — this module is where queries "join" through object
references.  Set-valued steps fan out; path predicates use existential
semantics (the predicate holds if *any* terminal value satisfies it),
the standard reading for OODB path queries.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from ..core.obj import ObjectState
from ..core.oid import OID
from ..core.schema import Schema
from ..errors import QueryError

Deref = Callable[[OID], Optional[ObjectState]]


def evaluate_path(
    state: ObjectState,
    steps: Sequence[str],
    deref: Deref,
) -> List[Any]:
    """All terminal values of a path from one object.

    Broken chains (None or dangling intermediate references) contribute
    nothing.  Terminal OID values are returned as OIDs (so reference
    equality predicates work).
    """
    frontier: List[ObjectState] = [state]
    values: List[Any] = []
    for step_no, attr_name in enumerate(steps):
        is_last = step_no == len(steps) - 1
        next_frontier: List[ObjectState] = []
        for obj in frontier:
            value = obj.values.get(attr_name)
            elements = value if isinstance(value, list) else [value]
            for element in elements:
                if is_last:
                    values.append(element)
                    continue
                if not isinstance(element, OID):
                    continue
                referenced = deref(element)
                if referenced is not None:
                    next_frontier.append(referenced)
        frontier = next_frontier
        if is_last:
            break
    return values


def validate_path(schema: Schema, target_class: str, steps: Sequence[str]) -> str:
    """Semantic check of a path against the schema.

    Returns the domain class of the terminal attribute.  Delegates to the
    shared resolver in :mod:`repro.analysis.resolve` (the same walk the
    semantic analyzer uses), raising :class:`~repro.errors.QueryError`
    where the analyzer would emit a diagnostic.
    """
    # Local import: repro.analysis.semantic imports repro.query.ast, so a
    # module-level import here would tie the two packages into a knot.
    from ..analysis.resolve import resolve_path

    resolution = resolve_path(schema, target_class, steps)
    if not resolution.ok:
        raise QueryError("path %r: %s" % (".".join(steps), resolution.failure))
    assert resolution.domain is not None
    return resolution.domain


def compare(op: str, candidate: Any, literal: Any) -> bool:
    """Apply one comparison operator to a terminal value and a literal."""
    if op == "=":
        return _eq(candidate, literal)
    if op == "!=":
        return not _eq(candidate, literal)
    if op == "like":
        return _like(candidate, literal)
    if op == "in":
        return any(_eq(candidate, item) for item in literal)
    if op == "contains":
        # contains compares a set-valued terminal against a member literal;
        # by the time we're called fan-out already happened, so it is =.
        return _eq(candidate, literal)
    if candidate is None or literal is None:
        return False
    try:
        if op == "<":
            return candidate < literal
        if op == "<=":
            return candidate <= literal
        if op == ">":
            return candidate > literal
        if op == ">=":
            return candidate >= literal
    except TypeError:
        return False
    raise QueryError("unknown comparison operator %r" % (op,))


def _eq(candidate: Any, literal: Any) -> bool:
    if isinstance(candidate, OID) or isinstance(literal, OID):
        return isinstance(candidate, OID) and isinstance(literal, OID) and candidate == literal
    if isinstance(candidate, bool) != isinstance(literal, bool):
        return False
    return candidate == literal


def _like(candidate: Any, pattern: Any) -> bool:
    """SQL LIKE with ``%`` (any run) and ``_`` (any one character)."""
    if not isinstance(candidate, str) or not isinstance(pattern, str):
        return False
    import fnmatch

    return fnmatch.fnmatchcase(candidate, _like_translate(pattern))


def _like_translate(pattern: str) -> str:
    """A LIKE pattern as an ``fnmatch`` pattern (``*``/``?`` literal)."""
    return (
        pattern.replace("\\", "\\\\")
        .replace("*", "[*]")
        .replace("?", "[?]")
        .replace("%", "*")
        .replace("_", "?")
    )
