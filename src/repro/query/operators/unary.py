"""Unary operators: filter, deref, sort, aggregate, project, limit.

Each consumes one child's batches.  ``FilterOp`` re-verifies the *full*
predicate (index probes produce candidates, not answers), ``DerefOp``
turns candidate OIDs into object states, ``SortOp`` is the pipeline
breaker (a bounded-heap top-K when a LIMIT follows), and ``LimitOp``
implements early termination by asking for no more than its quota and
closing its subtree as soon as the quota is reached.  Expressions are
compiled by the kernel when an operator is built, once per execution.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .. import algebra
from ..ast import Expr, Query
from ..compiler import compile_projection
from ..paths import Deref
from .base import PhysicalOperator


class FilterOp(PhysicalOperator):
    """Scope check + full predicate re-check + caller visibility.

    ``rows_out`` is the executor's classic ``matched`` counter; the
    child's ``rows_out`` is ``examined``.  ``visible`` (None: every row)
    is the executing caller's authorization predicate over the row; it
    runs last, so only rows that answer the query are ever asked about,
    and everything above the filter sees visible rows only.  The child
    is asked for no more rows than the caller asked for (the quota
    rule), and a batch is returned as soon as one row qualifies.
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
        self._row_class = kernel.row_class
        self.scope = scope
        self.where = where
        self._matches = kernel.filter(where) if where is not None else None
        self.visible = visible
        self.detail = repr(where) if where is not None else "true"
        if visible is not None:
            self.detail += " [visible to caller]"

    def _next_batch(self, n: int) -> List[Any]:
        scope, row_class = self.scope, self._row_class
        matches, visible = self._matches, self.visible
        while True:
            rows = self.child.next_batch(n)
            if not rows:
                return rows
            if scope is not None:
                rows = [row for row in rows if row_class(row) in scope]
            if matches is not None:
                rows = matches(rows)
            if visible is not None:
                rows = [row for row in rows if visible(row)]
            if rows:
                return rows


class DerefOp(PhysicalOperator):
    """OIDs -> object states; dangling references contribute nothing."""

    name = "deref"

    def __init__(self, child: PhysicalOperator, deref: Deref) -> None:
        super().__init__(child)
        self._deref = deref
        self.detail = "oid -> state"

    def _next_batch(self, n: int) -> List[Any]:
        deref = self._deref
        while True:
            oids = self.child.next_batch(n)
            if not oids:
                return oids
            states = [state for state in map(deref, oids) if state is not None]
            if states:
                return states


class _Breaker(PhysicalOperator):
    """A pipeline breaker: drains its child on the first call, computes
    its whole output with ``compute`` and re-emits it in batches."""

    def __init__(
        self, child: PhysicalOperator, compute: Callable[[List[Any]], List[Any]]
    ) -> None:
        super().__init__(child)
        self._compute = compute
        self._output: Optional[List[Any]] = None
        self._emitted = 0

    def _next_batch(self, n: int) -> List[Any]:
        if self._output is None:
            self._output = self._compute(
                [row for batch in self.child.batches() for row in batch]
            )
            self._emitted = 0
        batch = self._output[self._emitted : self._emitted + n]
        self._emitted += len(batch)
        return batch

    def _on_close(self) -> None:
        self._output = None


class SortOp(_Breaker):
    """Pipeline breaker: drain the child, order, re-emit.

    An ORDER BY path orders by :func:`~repro.query.algebra.rank` over
    its :func:`~repro.query.algebra.order_key`, compiled over the
    kernel's ``path``, for every kernel: a bounded-heap top-K
    (O(n log k)) when a LIMIT follows, the full sort without one.  No
    path means the kernel's default order.
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
        if steps is None:
            compute = kernel.default_order(limit)
        else:
            steps = tuple(steps)
            key = algebra.order_key(steps, kernel.path(steps), descending, kernel.has_default_order)
            compute = partial(algebra.rank, key=key, descending=descending, limit=limit)
        super().__init__(child, compute)
        self.steps = steps
        self.descending = descending
        self.limit = limit
        self.detail = (
            "oid"
            if steps is None
            else "%s%s" % (".".join(steps), " desc" if descending else "")
        )


class AggregateOp(_Breaker):
    """Fold the child stream into summary rows (COUNT/SUM/AVG/MIN/MAX)."""

    name = "aggregate"

    def __init__(self, child: PhysicalOperator, kernel, query: Query) -> None:
        super().__init__(child, kernel.aggregator(query))
        self.detail = ", ".join(a.label() for a in query.aggregates or [])


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
        self.paths = [tuple(steps) for steps in paths]
        self._project = compile_projection(self.paths, kernel.path)
        self.detail = ", ".join(".".join(steps) for steps in self.paths)

    def _next_batch(self, n: int) -> List[Tuple[Any, Dict[str, Any]]]:
        project = self._project
        return [(row, project(row)) for row in self.child.next_batch(n)]


class LimitOp(PhysicalOperator):
    """Stop after ``limit`` rows and close the subtree immediately.

    Asks the child for at most the rows still missing, so the subtree
    never produces more than the quota; the early ``close()`` propagates
    down the chain, releasing scans and index walks before they finish —
    with an ordered leaf below, a ``LIMIT k`` examines far fewer objects
    than the extent holds.
    """

    name = "limit"

    def __init__(self, child: PhysicalOperator, limit: int) -> None:
        super().__init__(child)
        self.limit = limit
        self.detail = str(limit)
        self._done = False

    def _next_batch(self, n: int) -> List[Any]:
        if self._done:
            return []
        missing = self.limit - self.rows_out
        if missing <= 0:
            self._done = True
            self.child.close()
            return []
        batch = self.child.next_batch(min(n, missing))
        if not batch:
            self._done = True
        return batch

    def _on_close(self) -> None:
        self._done = True
