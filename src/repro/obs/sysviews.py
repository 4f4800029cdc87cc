"""System statistics views: the database's own state as virtual extents.

The self-observing database: every internal statistic — wait events,
locks, transactions, metric counters, slow operations, the last query's
operator pipeline — is exposed as a queryable *system view* and flows
through the normal OQL parse -> analyze -> plan -> pipeline path.  A
monitoring question is just a query::

    db.select("SysWaitEvent where kind = 'Lock' order by total_wait desc limit 10")

System views are virtual classes served by a private
:class:`~repro.multidb.federation.Federation` (one adapter, source
``"system"``), so the physical pipeline is the same Volcano chain every
federated query runs — VirtualScanOp under filter/sort/limit/project —
and EXPLAIN shows a ``system-scan`` access node.  Rows are generated at
``open()`` time: each scan is a fresh snapshot, never a cache.

This module is imported lazily by :class:`~repro.database.Database` (not
from ``repro.obs.__init__``): it pulls in the multidb and query layers,
which themselves import ``repro.obs.metrics``, and an eager import from
the package initializer would cycle through ``storage.buffer``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Tuple

from ..analysis.diagnostics import DiagnosticReport
from ..multidb.federation import Adapter, Federation, FederationKernel, VirtualClass
from ..query.ast import (
    AdtPredicate,
    And,
    Comparison,
    Expr,
    MethodCall,
    Not,
    Or,
    Query,
)
from .metrics import Counter, Gauge, Histogram

Row = Dict[str, Any]

#: view name -> (attributes, one-line description).  Row producers are
#: the ``_rows_<name>`` methods on :class:`SystemViewsAdapter`.
SYSTEM_VIEWS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "SysStat": (
        ("name", "kind", "value", "total", "mean"),
        "every instrument in the metrics registry",
    ),
    "SysWaitEvent": (
        (
            "kind",
            "target",
            "count",
            "total_wait",
            "max_wait",
            "avg_wait",
            "last_txn",
            "last_blocker",
            "last_trace",
        ),
        "aggregated wait events per (kind, target)",
    ),
    "SysLock": (
        ("resource", "txn", "mode", "granted"),
        "lock table snapshot: granted holds and blocked waiters",
    ),
    "SysTransaction": (
        (
            "txn",
            "status",
            "age",
            "operations",
            "locks_held",
            "wait_count",
            "wait_seconds",
            "waiting_for",
        ),
        "active transactions with age, lock and wait totals",
    ),
    "SysSnapshot": (
        ("snapshot", "ts", "txn", "age", "reads", "entries"),
        "live MVCC read snapshots and the version-store entry count",
    ),
    "SysSlowOp": (
        ("name", "elapsed", "threshold", "target", "trace"),
        "the tracer's slow-operation log",
    ),
    "SysQueryStat": (
        (
            "fingerprint",
            "target",
            "source",
            "calls",
            "rows_examined",
            "rows_matched",
            "index_probes",
            "plan_cache_hits",
            "total_seconds",
            "mean_seconds",
            "p50",
            "p95",
            "p99",
            "lock_wait",
            "io_wait",
            "wal_wait",
        ),
        "accumulated execution statistics, one row per query shape",
    ),
    "SysClassStat": (
        ("class_name", "rows", "pages"),
        "live row and heap-page counts per class extent",
    ),
    "SysIndexStat": (
        ("index", "kind", "target", "path", "entries", "distinct_keys", "height"),
        "live B+-tree index cardinalities (the planner's exact counts)",
    ),
    "SysSession": (
        (
            "session",
            "client",
            "state",
            "txn",
            "age",
            "idle",
            "requests",
            "rows_streamed",
            "cursors",
        ),
        "connected server sessions (empty unless repro.server is attached)",
    ),
    "SysOperator": (
        ("position", "op", "detail", "rows_out", "elapsed"),
        "operator pipeline of the last user query",
    ),
    "SysPlanCache": (
        (
            "fingerprint",
            "target",
            "source",
            "access",
            "hits",
            "schema_epoch",
            "index_epoch",
            "rules",
            "age_seconds",
        ),
        "cached query templates, one row per query shape",
    ),
}


class SystemViewsAdapter(Adapter):
    """Federation adapter generating system rows from live engine state."""

    def __init__(self, db) -> None:
        self.db = db

    def virtual_classes(self) -> List[VirtualClass]:
        return [
            VirtualClass(name, list(attrs))
            for name, (attrs, _desc) in sorted(SYSTEM_VIEWS.items())
        ]

    def scan(self, class_name: str) -> Iterator[Row]:
        producer: Callable[[], Iterator[Row]] = getattr(
            self, "_rows_%s" % class_name.lower()
        )
        return producer()

    # -- row producers (one fresh snapshot per scan) -----------------------

    def _rows_sysstat(self) -> Iterator[Row]:
        registry = self.db.metrics
        for name in registry.names():
            try:
                metric = registry.get(name)
            except Exception:
                metric = None  # derived: computed value only
            if isinstance(metric, Histogram):
                count = metric.count
                yield {
                    "name": name,
                    "kind": "histogram",
                    "value": count,
                    "total": metric.total,
                    "mean": (metric.total / count) if count else None,
                }
            elif isinstance(metric, Counter):
                yield {"name": name, "kind": "counter", "value": metric.value,
                       "total": None, "mean": None}
            elif isinstance(metric, Gauge):
                yield {"name": name, "kind": "gauge", "value": metric.value,
                       "total": None, "mean": None}
            else:
                yield {"name": name, "kind": "derived",
                       "value": registry.value(name), "total": None, "mean": None}

    def _rows_syswaitevent(self) -> Iterator[Row]:
        return iter(self.db.waits.rows())

    def _rows_syslock(self) -> Iterator[Row]:
        return iter(self.db.locks.held_snapshot())

    def _rows_systransaction(self) -> Iterator[Row]:
        blocked = {
            edge["waiter"]: edge["blocker"]
            for edge in reversed(self.db.locks.waiting_edges())
        }
        for txn in self.db.txns.active_snapshot():
            waits = self.db.waits.txn_waits(txn.txn_id)
            yield {
                "txn": txn.txn_id,
                "status": txn.status,
                "age": txn.age_seconds,
                "operations": txn.operations,
                "locks_held": len(self.db.locks.locks_held(txn.txn_id)),
                "wait_count": waits["count"],
                "wait_seconds": waits["seconds"],
                "waiting_for": blocked.get(txn.txn_id),
            }

    def _rows_syssnapshot(self) -> Iterator[Row]:
        return self.db.version_store.snapshot_rows()

    def _rows_syssession(self) -> Iterator[Row]:
        # ``db.sessions`` is the server's session registry (a public
        # attachment slot like ``db.authz``); an embedded database has
        # none and the view is simply empty.
        registry = self.db.sessions
        if registry is None:
            return iter(())
        return iter(registry.rows())

    def _rows_sysslowop(self) -> Iterator[Row]:
        for op in self.db.tracer.slow_ops():
            yield {
                "name": op.name,
                "elapsed": op.elapsed,
                "threshold": op.threshold,
                "target": op.tags.get("target"),
                "trace": op.tags.get("trace"),
            }

    def _rows_sysquerystat(self) -> Iterator[Row]:
        return iter(self.db.query_stats.rows())

    def _rows_sysclassstat(self) -> Iterator[Row]:
        planner = self.db.planner
        for name in sorted(c.name for c in self.db.schema.user_classes()):
            yield {
                "class_name": name,
                "rows": planner.extent_count(name),
                "pages": planner.extent_pages(name),
            }

    def _rows_sysindexstat(self) -> Iterator[Row]:
        for index in sorted(self.db.indexes.all_indexes(), key=lambda i: i.name):
            if index.operation is not None:
                continue  # an ADT access method keeps no B+-tree keys
            yield {
                "index": index.name,
                "kind": index.kind,
                "target": index.target_class,
                "path": ".".join(index.path),
                "entries": len(index.tree),
                "distinct_keys": index.tree.distinct_keys(),
                "height": index.tree.depth(),
            }

    def _rows_sysplancache(self) -> Iterator[Row]:
        return iter(self.db.plan_cache.rows())

    def _rows_sysoperator(self) -> Iterator[Row]:
        for position, stats in enumerate(self.db.last_operator_stats or []):
            yield {
                "position": position,
                "op": stats.get("op"),
                "detail": stats.get("detail"),
                "rows_out": stats.get("rows_out"),
                "elapsed": stats.get("elapsed"),
            }


class SystemCatalog:
    """Resolver + checker + executor hookup for system views.

    Owned by the database; the planner consults :meth:`is_system` (duck
    typed, no import) and emits a
    :class:`~repro.query.planner.SystemScan`, which ``compile_plan``
    lowers to a VirtualScanOp over :meth:`scan`.
    """

    def __init__(self, db) -> None:
        self.db = db
        self.federation = Federation()
        self.federation.register("system", SystemViewsAdapter(db))

    # -- catalog -----------------------------------------------------------

    def is_system(self, name: str) -> bool:
        return name in SYSTEM_VIEWS

    def attributes(self, view: str) -> Tuple[str, ...]:
        return SYSTEM_VIEWS[view][0]

    def describe(self, view: str) -> str:
        return SYSTEM_VIEWS[view][1]

    def estimate_rows(self, view: str) -> float:
        # Snapshots are tiny; a flat guess keeps plan() side-effect free
        # (counting would run the producer, i.e. observe the observer).
        return 16.0

    # -- execution hookup --------------------------------------------------

    def kernel(self, view: str) -> FederationKernel:
        return FederationKernel(self.federation, view, self.db.filter_shapes)

    def scan(self, view: str) -> Iterator[Row]:
        return self.federation.scan(view)

    # -- semantic checking -------------------------------------------------

    def check(self, query: Query, source: "str | None" = None) -> DiagnosticReport:
        """Lightweight semantic gate replacing the schema analyzer.

        System views are flat row sources: no hierarchy, no references,
        no methods, no ADTs, no aggregates — everything else (filter,
        order, limit, projection) behaves exactly as on classes.
        """
        report = DiagnosticReport(source)
        attrs = set(self.attributes(query.target_class))
        if query.aggregates or query.group_by is not None:
            report.error(
                "ANA602",
                "aggregates and GROUP BY are not supported over system "
                "views; query the raw rows and aggregate client-side",
            )
        for path in query.projections or []:
            self._check_path(report, path, attrs)
        if query.order_by is not None:
            self._check_path(report, query.order_by, attrs)
        if query.where is not None:
            self._check_expr(report, query.where, attrs)
        return report

    def _check_path(self, report: DiagnosticReport, path, attrs) -> None:
        span = getattr(path, "span", None)
        if len(path.steps) != 1:
            report.error(
                "ANA603",
                "system views have no references: path %s cannot navigate"
                % path.dotted(),
                span,
            )
            return
        if path.steps[0] not in attrs:
            report.error(
                "ANA601",
                "unknown system view attribute %r (has: %s)"
                % (path.steps[0], ", ".join(sorted(attrs))),
                span,
            )

    def _check_expr(self, report: DiagnosticReport, expr: Expr, attrs) -> None:
        if isinstance(expr, Comparison):
            self._check_path(report, expr.path, attrs)
        elif isinstance(expr, (MethodCall, AdtPredicate)):
            report.error(
                "ANA603",
                "system views support plain comparisons only, not %s"
                % type(expr).__name__,
                getattr(expr, "span", None),
            )
        elif isinstance(expr, (And, Or)):
            for operand in expr.operands:
                self._check_expr(report, operand, attrs)
        elif isinstance(expr, Not):
            self._check_expr(report, expr.operand, attrs)

    def __repr__(self) -> str:
        return "<SystemCatalog %d views>" % len(SYSTEM_VIEWS)
