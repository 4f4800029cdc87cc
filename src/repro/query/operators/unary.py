"""Unary operators: filter, deref, sort, aggregate, project, limit.

Each consumes one child stream.  ``FilterOp`` re-verifies the *full*
predicate (index probes produce candidates, not answers), ``DerefOp``
turns candidate OIDs into object states, ``SortOp`` is the pipeline
breaker (with a top-K fast path when a LIMIT follows), and ``LimitOp``
implements early termination by closing its subtree as soon as the
quota is reached.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..ast import Expr, Query
from ..paths import Deref
from .base import PhysicalOperator


class FilterOp(PhysicalOperator):
    """Scope check + full predicate re-check + caller visibility.

    ``rows_out`` is the executor's classic ``matched`` counter; the
    child's ``rows_out`` is ``examined``.  ``visible`` (None: every row)
    is the executing caller's authorization predicate over the row; it
    runs last, so only rows that answer the query are ever asked about,
    and everything above the filter sees visible rows only.
    """

    name = "filter"

    def __init__(
        self,
        child: PhysicalOperator,
        kernel,
        scope: Optional[Set[str]],
        where: Optional[Expr],
        visible: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        super().__init__(child)
        self._kernel = kernel
        self.scope = scope
        self.where = where
        self.visible = visible
        self.detail = repr(where) if where is not None else "true"
        if visible is not None:
            self.detail += " [visible to caller]"

    def _next(self) -> Optional[Any]:
        while True:
            row = self.child.next()
            if row is None:
                return None
            if self.scope is not None and self._kernel.row_class(row) not in self.scope:
                continue
            if self.where is not None and not self._kernel.matches(self.where, row):
                continue
            if self.visible is not None and not self.visible(row):
                continue
            return row


class DerefOp(PhysicalOperator):
    """OIDs -> object states; dangling references contribute nothing."""

    name = "deref"

    def __init__(self, child: PhysicalOperator, deref: Deref) -> None:
        super().__init__(child)
        self._deref = deref
        self.detail = "oid -> state"

    def _next(self) -> Optional[Any]:
        while True:
            oid = self.child.next()
            if oid is None:
                return None
            state = self._deref(oid)
            if state is not None:
                return state


class SortOp(PhysicalOperator):
    """Pipeline breaker: drain the child, order via the kernel, re-emit.

    When a LIMIT follows, the kernel may use a bounded-heap top-K
    (O(n log k)) instead of a full sort — results are identical.
    """

    name = "sort"

    def __init__(
        self,
        child: PhysicalOperator,
        kernel,
        steps: Optional[Sequence[str]],
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> None:
        super().__init__(child)
        self._kernel = kernel
        self.steps = tuple(steps) if steps is not None else None
        self.descending = descending
        self.limit = limit
        self.detail = (
            "oid"
            if steps is None
            else "%s%s" % (".".join(steps), " desc" if descending else "")
        )
        self._iter: Optional[Iterator[Any]] = None

    def _next(self) -> Optional[Any]:
        if self._iter is None:
            ordered = self._kernel.sort(
                self.child.rows(), self.steps, self.descending, self.limit
            )
            self._iter = iter(ordered)
        return next(self._iter, None)

    def _on_close(self) -> None:
        self._iter = None


class AggregateOp(PhysicalOperator):
    """Fold the child stream into summary rows (COUNT/SUM/AVG/MIN/MAX)."""

    name = "aggregate"

    def __init__(self, child: PhysicalOperator, kernel, query: Query) -> None:
        super().__init__(child)
        self._kernel = kernel
        self._query = query
        self.detail = ", ".join(a.label() for a in query.aggregates or [])
        self._iter: Optional[Iterator[Dict[str, Any]]] = None

    def _next(self) -> Optional[Dict[str, Any]]:
        if self._iter is None:
            self._iter = iter(self._kernel.aggregate(self._query, self.child.rows()))
        return next(self._iter, None)

    def _on_close(self) -> None:
        self._iter = None


class GroupByOp(AggregateOp):
    """Aggregation with grouping; groups order by key (None last)."""

    name = "group-by"

    def __init__(self, child: PhysicalOperator, kernel, query: Query) -> None:
        super().__init__(child, kernel, query)
        if query.group_by is not None:
            self.detail += " group by %s" % query.group_by.dotted()


class ProjectOp(PhysicalOperator):
    """pi while streaming: emit ``(source_row, projected_dict)`` pairs.

    The pair shape lets the driver keep OIDs and rows in parallel
    without a second pass over the result.
    """

    name = "project"

    def __init__(
        self,
        child: PhysicalOperator,
        kernel,
        paths: Sequence[Sequence[str]],
    ) -> None:
        super().__init__(child)
        self._kernel = kernel
        self.paths = [tuple(steps) for steps in paths]
        self.detail = ", ".join(".".join(steps) for steps in self.paths)

    def _next(self) -> Optional[Tuple[Any, Dict[str, Any]]]:
        row = self.child.next()
        if row is None:
            return None
        return row, self._kernel.project_row(row, self.paths)


class LimitOp(PhysicalOperator):
    """Stop after ``limit`` rows and close the subtree immediately.

    The early ``close()`` propagates down the chain, releasing scans and
    index walks before they finish — with an ordered leaf below, a
    ``LIMIT k`` examines far fewer objects than the extent holds.
    """

    name = "limit"

    def __init__(self, child: PhysicalOperator, limit: int) -> None:
        super().__init__(child)
        self.limit = limit
        self.detail = str(limit)
        self._done = False

    def _next(self) -> Optional[Any]:
        if self._done:
            return None
        if self.rows_out >= self.limit:
            self._done = True
            self.child.close()
            return None
        row = self.child.next()
        if row is None:
            self._done = True
        return row

    def _on_close(self) -> None:
        self._done = True
