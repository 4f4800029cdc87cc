"""The physical-operator protocol: Volcano-style pull iterators.

Section 2.2 makes the optimizer — and therefore an explicit physical
plan — a first-class OODB component.  Every operator here implements the
classic ``open() / next() / close()`` iterator contract [GRAE94-style]:
``next()`` returns one row (an :class:`~repro.core.obj.ObjectState`, an
OID, or a row dict — never ``None``) or ``None`` at end-of-stream, so a
``LIMIT`` can stop pulling and the whole pipeline does only the work the
consumer demands.

Per-operator counters are first-class: ``rows_out`` is always counted;
``elapsed`` (cumulative wall-clock inside ``next()``, *inclusive* of
child time) is measured only when the pipeline runs timed (EXPLAIN
ANALYZE), so plain execution pays no clock overhead.

Operators are row-type agnostic: all row semantics (predicate
evaluation, path navigation, ordering, projection) are delegated to a
*kernel* object.  :class:`ObjectKernel` speaks kimdb object states via
:mod:`repro.query.algebra`; the federation layer provides its own kernel
over plain row dicts, so one operator set serves both engines.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from .. import algebra
from ..ast import AdtPredicate, Expr, Query
from ..paths import Deref


class PhysicalOperator:
    """Base iterator: one input (``child``, None for leaves), one output.

    Subclasses implement ``_next()`` (and optionally ``_on_open`` /
    ``_on_close``, both of which must be idempotent — a LIMIT may close
    the pipeline early and the driver closes it again).
    """

    name = "operator"

    def __init__(self, child: Optional["PhysicalOperator"] = None) -> None:
        self.child = child
        self.detail = ""
        #: Rows this operator has produced so far (always maintained).
        self.rows_out = 0
        #: Cumulative seconds spent in ``next()`` including child time;
        #: only advances when the pipeline runs timed.
        self.elapsed = 0.0
        self.timed = False

    # -- iterator contract -------------------------------------------------

    def open(self) -> None:
        if self.child is not None:
            self.child.open()
        self._on_open()

    def next(self) -> Optional[Any]:
        if self.timed:
            started = time.perf_counter()
            row = self._next()
            self.elapsed += time.perf_counter() - started
        else:
            row = self._next()
        if row is not None:
            self.rows_out += 1
        return row

    def close(self) -> None:
        self._on_close()
        if self.child is not None:
            self.child.close()

    # -- subclass hooks ----------------------------------------------------

    def _on_open(self) -> None:
        pass

    def _next(self) -> Optional[Any]:
        raise NotImplementedError

    def _on_close(self) -> None:
        pass

    # -- helpers -----------------------------------------------------------

    def set_timed(self, timed: bool = True) -> None:
        """Switch per-``next()`` timing on for this operator and below."""
        op: Optional[PhysicalOperator] = self
        while op is not None:
            op.timed = timed
            op = op.child

    def rows(self) -> Iterator[Any]:
        """Drain this operator as a generator (caller opens/closes)."""
        while True:
            row = self.next()
            if row is None:
                return
            yield row

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
    """Row semantics for kimdb object states.

    Thin delegation onto :mod:`repro.query.algebra` (the shared row/set
    kernel) plus the storage-facing callables the executor owns.
    """

    #: Object states have a deterministic fallback order (OID), so a
    #: SortOp with ``steps=None`` is meaningful.  Row-dict kernels
    #: (federation, system views) have no such tiebreaker and set False,
    #: which makes ``compile_plan`` skip the implicit ordering sort.
    has_default_order = True

    def __init__(
        self,
        deref: Deref,
        send: Optional[Callable[..., Any]] = None,
        adt_eval: Optional[Callable[[AdtPredicate, Any], bool]] = None,
    ) -> None:
        self.deref = deref
        self.send = send
        self.adt_eval = adt_eval

    def row_class(self, row: Any) -> Optional[str]:
        return row.class_name

    def matches(self, expr: Expr, row: Any) -> bool:
        return algebra.evaluate_predicate(
            expr, row, self.deref, self.send, self.adt_eval
        )

    def sort(
        self,
        rows: Iterator[Any],
        steps: Optional[Sequence[str]],
        descending: bool,
        limit: Optional[int] = None,
    ) -> List[Any]:
        """Order rows; ``steps`` None means the default OID order.

        With a limit, the bounded-heap top-K fast path replaces the full
        sort (same results, O(n log k)).
        """
        if limit is not None:
            return algebra.top_k(rows, steps, self.deref, descending, limit)
        if steps is None:
            # Default order ignores ``descending`` — same as a plain
            # SELECT, which always returns OID order.
            return sorted(rows, key=lambda state: state.oid.value)
        return algebra.order_by(rows, steps, self.deref, descending)

    def project_row(self, row: Any, paths: Sequence[Sequence[str]]) -> Dict[str, Any]:
        return algebra.project_row(row, paths, self.deref)

    def aggregate(self, query: Query, rows: Iterator[Any]) -> List[Dict[str, Any]]:
        return algebra.aggregate_rows(query, rows, self.deref)
