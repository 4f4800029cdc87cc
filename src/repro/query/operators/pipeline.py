"""Plan -> physical operator pipeline compilation.

``compile_plan`` turns the planner's logical :class:`~repro.query.planner.Plan`
into an operator chain — compiling the plan's expressions into closures
over the execution's kernel as the operators are built — and wraps it in
a :class:`Pipeline`, which keeps named handles on the interesting stages
so the executor's legacy counters (examined/matched/index probes) and
EXPLAIN ANALYZE read live operator state instead of re-instrumenting the
run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

from ...core.oid import OID
from ...errors import QueryError
from ..planner import (
    AdtIndexProbe,
    EmptyScan,
    ExtentScan,
    IndexEqProbe,
    IndexInProbe,
    IndexOrderScan,
    IndexRangeProbe,
    Plan,
    SystemScan,
)
from .base import PhysicalOperator
from .leaves import (
    EmptyScanOp,
    ExtentScanOp,
    IndexOrderScanOp,
    IndexProbeOp,
    VirtualScanOp,
)
from .unary import (
    AggregateOp,
    DerefOp,
    FilterOp,
    GroupByOp,
    LimitOp,
    ProjectOp,
    SortOp,
)


class Pipeline:
    """A compiled operator chain plus named handles on its stages."""

    def __init__(
        self,
        plan: Plan,
        root: PhysicalOperator,
        source: PhysicalOperator,
        probe: Optional[PhysicalOperator] = None,
        filter: Optional[FilterOp] = None,
        sort: Optional[SortOp] = None,
        limit: Optional[LimitOp] = None,
        aggregate: Optional[AggregateOp] = None,
        project: Optional[ProjectOp] = None,
    ) -> None:
        self.plan = plan
        #: Top of the chain — what the driver pulls from.
        self.root = root
        #: The operator producing candidate *states* (scan, or the deref
        #: above a probe); its ``rows_out`` is the classic ``examined``.
        self.source = source
        self.probe = probe
        self.filter = filter
        self.sort = sort
        self.limit = limit
        self.aggregate = aggregate
        self.project = project
        #: Run by every :meth:`close` after the operators close (the
        #: path memo's hit count), or None.
        self.finish: Optional[Callable[[], None]] = None

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> None:
        self.root.open()

    def close(self) -> None:
        self.root.close()
        if self.finish is not None:
            self.finish()

    def set_timed(self, timed: bool = True) -> None:
        self.root.set_timed(timed)

    def rows(self) -> Iterator[Any]:
        return self.root.rows()

    # -- live counters -----------------------------------------------------

    @property
    def examined(self) -> int:
        return self.source.rows_out

    @property
    def matched(self) -> int:
        return self.filter.rows_out if self.filter is not None else 0

    @property
    def index_probes(self) -> int:
        return self.probe.probes if self.probe is not None else 0

    def operators(self) -> List[PhysicalOperator]:
        """The chain, bottom (leaf) first."""
        chain: List[PhysicalOperator] = []
        op: Optional[PhysicalOperator] = self.root
        while op is not None:
            chain.append(op)
            op = op.child
        chain.reverse()
        return chain

    def operator_stats(self) -> List[Dict[str, Any]]:
        """Per-operator counters, leaf first (bench artifacts)."""
        return [op.stats() for op in self.operators()]

    def __repr__(self) -> str:
        return "<Pipeline %s>" % " -> ".join(op.name for op in self.operators())


def _snapshot_exact(fetch, index, scope, changed):
    """An index probe's candidates, made complete for a snapshot: the
    index holds current values, so add the objects the snapshot reads
    differently (``changed()``, taken *after* the probe so any writer it
    saw is in it) filed under a scope class, and a nested index's
    targets whose path runs through one.  The filter decides."""
    if changed is None:
        return fetch

    def candidates() -> List[OID]:
        found = fetch()
        moved = changed()
        if not moved:
            return found
        extra = {oid for oid, classes in moved.items() if not classes.isdisjoint(scope)}
        if index is not None:
            extra |= index.dependents(moved)
        return sorted(extra.union(found))

    return candidates


def compile_plan(plan: Plan, kernel, scan, visible=None, changed=None) -> Pipeline:
    """Compile a plan into a pipeline over ``kernel``-typed rows.

    Every expression the plan carries (WHERE, ORDER BY / top-K key,
    GROUP BY key, aggregate paths, projections) is bound here, per
    execution, to this execution's kernel by the operator that runs it;
    nothing bound to a snapshot is cached on the plan.  An object
    plan's WHERE runs as a generated batch filter whose code the
    database keeps per predicate shape
    (:class:`~repro.query.compiler.FilterShapes`), so binding it costs
    one walk of the tree and one factory call.
    ``scan`` feeds the leaf: a storage plan's page scan
    (:meth:`~repro.versions.store.SnapshotView.scan_pages`), or a system
    view's row producer.  ``visible`` is the caller's row-visibility
    predicate (authorization, mandatory security) or None.  It is per
    caller, so it arrives here at compile time — never stored on the
    (cached, shared) plan — and runs in the filter, i.e. before sort,
    aggregation, limit and projection ever see a row.  ``changed`` is
    the snapshot's :meth:`~repro.versions.store.SnapshotView.changed`
    (None without a snapshot): index leaves use it to answer the
    snapshot exactly.
    """
    query = plan.query
    access = plan.access
    probe: Optional[PhysicalOperator] = None

    if isinstance(access, ExtentScan):
        source: PhysicalOperator = ExtentScanOp(scan, access.classes)
    elif isinstance(access, EmptyScan):
        source = EmptyScanOp(access.classes, access.reason)
    elif isinstance(access, SystemScan):
        # System views scan generated rows; ``scan`` here is the system
        # catalog's row producer, not the storage extent walker.
        source = VirtualScanOp(scan, access.view)
    elif isinstance(access, IndexOrderScan):
        probe = IndexOrderScanOp(
            access.index, plan.scope, access.descending, kernel.deref, changed
        )
        source = DerefOp(probe, kernel.deref)
    else:
        if isinstance(access, IndexEqProbe):
            kind, index = "eq", access.index
            fetch = lambda: index.lookup_eq(access.value, plan.scope)
        elif isinstance(access, IndexInProbe):
            kind, index = "in", access.index
            fetch = lambda: index.lookup_in(access.values, plan.scope)
        elif isinstance(access, IndexRangeProbe):
            kind, index = "range", access.index
            fetch = lambda: index.lookup_range(
                access.low, access.high, access.include_low, access.include_high, plan.scope
            )
        elif isinstance(access, AdtIndexProbe):
            kind, index = "adt", access.index
            fetch = lambda: index.candidates(*access.predicate.args)
        else:
            raise QueryError("unknown access path %r" % (access,))
        probe = IndexProbeOp(
            kind,
            _snapshot_exact(fetch, index, plan.scope, changed),
            access.description,
        )
        source = DerefOp(probe, kernel.deref)

    # The FULL predicate is re-checked — index probes give candidates,
    # not answers; the row's snapshot image decides.  So is the scope, for
    # probe rows only: a scan leaf reads exactly the scope's extents
    # (``ExtentScan(sorted(scope))``), each yielding its own class's rows.
    scope = plan.scope if probe is not None else None
    filter_op = FilterOp(source, kernel, scope, query.where, visible)
    root: PhysicalOperator = filter_op

    if query.aggregates:
        op_type = GroupByOp if query.group_by is not None else AggregateOp
        aggregate_op = op_type(root, kernel, query)
        return Pipeline(
            plan, aggregate_op, source, probe=probe, filter=filter_op,
            aggregate=aggregate_op,
        )

    sort_op: Optional[SortOp] = None
    if not isinstance(access, IndexOrderScan):
        steps = query.order_by.steps if query.order_by is not None else None
        if steps is not None or getattr(kernel, "has_default_order", True):
            sort_op = SortOp(root, kernel, steps, query.descending, limit=query.limit)
            root = sort_op

    limit_op: Optional[LimitOp] = None
    if query.limit is not None:
        limit_op = LimitOp(root, query.limit)
        root = limit_op

    project_op: Optional[ProjectOp] = None
    if query.projections is not None:
        project_op = ProjectOp(
            root, kernel, [path.steps for path in query.projections]
        )
        root = project_op

    return Pipeline(
        plan, root, source, probe=probe, filter=filter_op, sort=sort_op,
        limit=limit_op, project=project_op,
    )
