"""The physical-operator protocol: pull iterators that move batches.

Section 2.2 makes the optimizer — and therefore an explicit physical
plan — a first-class OODB component.  Every operator here implements an
``open() / next_batch(n) / close()`` contract, the Volcano iterator
[GRAE94-style] with a batch in place of a row: ``next_batch(n)`` returns
a list of at most ``n`` rows (object states, OIDs or row dicts — never
``None``), and ``[]`` only at end-of-stream.  A batch is what one call
moves between operators — an extent scan's batch is one storage page —
so per-row work is a loop inside an operator, not a chain of calls
through all of them.

**Quota rule.**  A consumer with a quota asks for exactly the rows it
still needs (``LimitOp`` asks for ``limit - rows_out``), and an operator
that drops rows (``FilterOp``, ``DerefOp``) asks its child for no more
than its own caller asked of it; so a batch can complete a quota only if
every candidate in it qualified, and a ``LIMIT`` examines exactly the
rows a row-at-a-time pipeline would have.  Consumers with no quota (a
drain, a pipeline breaker) ask for :data:`BATCH_SIZE`.

``next()`` and ``rows()`` stay as row-at-a-time adapters over a
one-batch buffer, for consumers that hand rows out singly (query
streams, server cursors, federation).

Per-operator counters are first-class: ``rows_out`` is always counted
(``len`` of each batch); ``elapsed`` (cumulative wall-clock inside
``next_batch()``, *inclusive* of child time) is measured only when the
pipeline runs timed (EXPLAIN ANALYZE), so plain execution pays no clock
overhead.

Operators are row-type agnostic: all row semantics (predicate
evaluation, path navigation, ordering, projection) come from a *kernel*
that compiles the plan's expressions into closures when the operator is
built (:mod:`repro.query.compiler`).  :class:`ObjectKernel` speaks kimdb
object states; the federation layer provides its own kernel over plain
row dicts, so one operator set serves both engines.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .. import algebra
from ..ast import AdtPredicate, Expr, Query
from ..compiler import BatchFilter, FilterShapes, compile_filter, compile_path
from ..paths import Deref

#: Rows asked for by a consumer without a quota of its own.
BATCH_SIZE = 256


class PhysicalOperator:
    """Base iterator: one input (``child``, None for leaves), one output.

    Subclasses implement ``_next_batch(n)`` (and optionally ``_on_open``
    / ``_on_close``, both of which must be idempotent — a LIMIT may
    close the pipeline early and the driver closes it again).
    """

    name = "operator"

    def __init__(self, child: Optional["PhysicalOperator"] = None) -> None:
        self.child = child
        self.detail = ""
        #: Rows this operator has produced so far (always maintained).
        self.rows_out = 0
        #: Cumulative seconds spent in ``next_batch()`` including child
        #: time; only advances when the pipeline runs timed.
        self.elapsed = 0.0
        self.timed = False
        #: The ``next()`` adapter's batch and its read position.
        self._buffer: List[Any] = []
        self._position = 0

    # -- iterator contract -------------------------------------------------

    def open(self) -> None:
        if self.child is not None:
            self.child.open()
        self._on_open()

    def next_batch(self, n: int) -> List[Any]:
        """At most ``n`` rows; ``[]`` only at end-of-stream."""
        if self.timed:
            started = time.perf_counter()
            batch = self._next_batch(n)
            self.elapsed += time.perf_counter() - started
        else:
            batch = self._next_batch(n)
        self.rows_out += len(batch)
        return batch

    def close(self) -> None:
        self._buffer = []
        self._position = 0
        self._on_close()
        if self.child is not None:
            self.child.close()

    # -- subclass hooks ----------------------------------------------------

    def _on_open(self) -> None:
        pass

    def _next_batch(self, n: int) -> List[Any]:
        raise NotImplementedError

    def _on_close(self) -> None:
        pass

    # -- row-at-a-time adapters and helpers ----------------------------------

    def next(self) -> Optional[Any]:
        """One row, or None at end-of-stream."""
        if self._position == len(self._buffer):
            self._buffer = self.next_batch(BATCH_SIZE)
            self._position = 0
            if not self._buffer:
                return None
        row = self._buffer[self._position]
        self._position += 1
        return row

    def rows(self) -> Iterator[Any]:
        """Drain this operator as a generator of rows (caller opens/closes)."""
        while True:
            row = self.next()
            if row is None:
                return
            yield row

    def batches(self) -> Iterator[List[Any]]:
        """Drain this operator batch by batch (caller opens/closes)."""
        while True:
            batch = self.next_batch(BATCH_SIZE)
            if not batch:
                return
            yield batch

    def set_timed(self, timed: bool = True) -> None:
        """Switch per-batch timing on for this operator and below."""
        op: Optional[PhysicalOperator] = self
        while op is not None:
            op.timed = timed
            op = op.child

    def stats(self) -> Dict[str, Any]:
        """This operator's live counters (bench artifacts, EXPLAIN)."""
        return {
            "op": self.name,
            "detail": self.detail,
            "rows_out": self.rows_out,
            "elapsed": self.elapsed,
        }

    def __repr__(self) -> str:
        return "<%s %s rows_out=%d>" % (type(self).__name__, self.detail, self.rows_out)


class ObjectKernel:
    """Row semantics for kimdb object states: the expression compiler
    (:mod:`repro.query.compiler`) bound to one execution's storage-facing
    callables — ``deref`` (the snapshot's), ``send`` and ``adt_eval``.
    ``shapes`` keeps the generated WHERE filters (the executor's).
    ``path_memo`` (a :meth:`~repro.versions.store.SnapshotView.path_memo`)
    builds the execution's memoized dereference and its ``flush`` the
    first time a compiled path has a step to dereference; every such
    step reads through it (:attr:`path_deref`) and :meth:`finish` counts
    its hits.  ``deref`` alone turns an index probe's candidates, which
    never repeat, into states.  ``SortOp`` and ``ProjectOp`` compile
    over :meth:`path`, as for every kernel; :meth:`default_order` is the
    OID order of a SortOp with no ORDER BY path.
    """

    #: Object states have a deterministic fallback order (OID), so a
    #: SortOp with ``steps=None`` is meaningful, and the ORDER BY key
    #: breaks ties on it.  Row-dict kernels (federation, system views)
    #: have no such tiebreaker and set False, which makes
    #: ``compile_plan`` skip the implicit ordering sort.
    has_default_order = True
    #: The generated WHERE filter inlines common leaves over
    #: ``state.values``; no leaf is refused outright.
    inlines = True
    refuse = None

    def __init__(
        self,
        deref: Deref,
        shapes: FilterShapes,
        send: Optional[Callable[..., Any]] = None,
        adt_eval: Optional[Callable[[AdtPredicate, Any], bool]] = None,
        path_memo: Optional[Callable[[], Tuple[Deref, Callable[[], None]]]] = None,
    ) -> None:
        self.deref = deref
        self.shapes = shapes
        self.send = send
        self.adt_eval = adt_eval
        self._path_memo = path_memo
        self._memo: Optional[Tuple[Deref, Callable[[], None]]] = None

    @property
    def path_deref(self) -> Deref:
        """The dereference for path steps: the execution's path memo,
        built here on first use, or ``deref`` when there is none."""
        if self._path_memo is None:
            return self.deref
        if self._memo is None:
            self._memo = self._path_memo()
        return self._memo[0]

    def finish(self) -> None:
        """Count the path memo's hits as snapshot reads, if it was built."""
        if self._memo is not None:
            self._memo[1]()

    def _deref_for(self, *paths: Sequence[str]) -> Deref:
        """:attr:`path_deref` if a path has a step to dereference; a
        one-step path never dereferences, so it builds no memo."""
        return self.path_deref if any(len(steps) > 1 for steps in paths) else self.deref

    def row_class(self, row: Any) -> Optional[str]:
        return row.class_name

    def path(self, steps: Sequence[str]) -> Callable[[Any], List[Any]]:
        return compile_path(steps, self._deref_for(steps))

    def filter(self, expr: Expr) -> BatchFilter:
        return compile_filter(expr, self, self.shapes)

    def default_order(self, limit: Optional[int] = None) -> Callable[[List[Any]], List[Any]]:
        """A SortOp's order with no ORDER BY path: OID order, which
        ignores ``descending`` — same as a plain SELECT."""
        if limit is not None:
            return lambda rows: heapq.nsmallest(limit, rows, key=_oid_value)
        return lambda rows: sorted(rows, key=_oid_value)

    def aggregator(self, query: Query) -> Callable[[List[Any]], List[Dict[str, Any]]]:
        aggregates = query.aggregates or []
        paths = [each.path.steps for each in aggregates if each.path is not None]
        if query.group_by is not None:
            paths.append(query.group_by.steps)
        return algebra.compile_aggregate(query, self._deref_for(*paths))


def _oid_value(state: Any) -> int:
    return state.oid.value
