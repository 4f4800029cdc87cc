"""Query executor: a thin driver over the physical operator pipeline.

A :class:`~repro.query.planner.Plan` is compiled (see
:mod:`repro.query.operators`) into a pull pipeline — leaf access path,
full-predicate re-check, sort/aggregate, limit, projection — and this
module merely drains it batch by batch, collecting OIDs and projected
rows in one streaming pass.  Execution statistics are not counted here:
they *are* the operators' live ``rows_out`` counters — ``ResultSet.stats``
is the executed :class:`~repro.query.operators.Pipeline` itself — and the
database's query tail rolls them up into the
:class:`~repro.obs.metrics.MetricsRegistry` however a query was drained.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from ..core.obj import ObjectState
from ..core.oid import OID
from .ast import AdtPredicate, Query
from .compiler import FilterShapes
from .operators import ObjectKernel, Pipeline, compile_plan
from .paths import Deref
from .planner import Plan

ScanPages = Callable[[str], Iterable[List[ObjectState]]]
ScanRows = Callable[[str], Iterable[Dict[str, Any]]]
Sender = Callable[..., Any]


class ResultSet:
    """Query results.

    ``oids`` is always populated (in result order).  For projection
    queries ``rows`` holds dicts keyed by dotted path; otherwise
    ``states`` holds the snapshot-resolved objects the pipeline yielded
    (what the query *saw*; a handle re-reads current storage).
    ``pipeline`` keeps the
    executed operator chain so EXPLAIN ANALYZE reads live counters; it
    doubles as ``stats`` (``examined`` / ``matched`` / ``index_probes``).
    """

    def __init__(
        self,
        query: Query,
        plan: Plan,
        oids: List[OID],
        rows: Optional[List[Dict[str, Any]]],
        pipeline: Pipeline,
        states: Optional[List[ObjectState]],
    ) -> None:
        self.query = query
        self.plan = plan
        self.oids = oids
        self.rows = rows
        self._states = states
        self._states_owned = False
        self.pipeline = pipeline
        #: Execution counters: the pipeline's own live properties.
        self.stats = pipeline
        #: Annotated PlanNode root when executed under EXPLAIN ANALYZE.
        self.analysis = None
        #: True for system statistics views (rows are generated dicts;
        #: ``oids`` is empty and there is nothing to materialize).
        self.system = False

    @property
    def states(self) -> Optional[List[ObjectState]]:
        """The states the query saw, copied on first access: the pipeline
        yields shared, read-only stored states (DESIGN "Decoded-state
        memo"), and most callers only want ``oids``."""
        if not self._states_owned and self._states is not None:
            self._states = [state.copy() for state in self._states]
            self._states_owned = True
        return self._states

    @property
    def shared_states(self) -> Optional[List[ObjectState]]:
        """The states the query saw, not copied: shared and read-only,
        for readers that only serialise them (the server's ``query``)."""
        return self._states

    def operator_stats(self) -> List[Dict[str, Any]]:
        """Per-operator counters, leaf first (bench artifacts)."""
        return self.pipeline.operator_stats()

    def __len__(self) -> int:
        return len(self.rows) if self.rows is not None else len(self.oids)

    def __repr__(self) -> str:
        return "<ResultSet %d results via %s>" % (len(self), self.plan.access.description)


class Executor:
    """Compiles plans to operator pipelines and drains them."""

    def __init__(
        self,
        deref: Deref,
        scan_pages: ScanPages,
        send: Optional[Sender] = None,
        adt_eval: Optional[Callable[[AdtPredicate, ObjectState], bool]] = None,
    ) -> None:
        self._scan_pages = scan_pages
        self._send = send
        self._adt_eval = adt_eval
        self.shapes = FilterShapes()
        self.kernel = ObjectKernel(deref, self.shapes, send, adt_eval)

    def pipeline(self, plan: Plan, snapshot=None, visible=None) -> Pipeline:
        """Compile (but do not open) the physical pipeline for a plan.

        With a :class:`~repro.versions.store.SnapshotView`, the leaf
        scan and every dereference resolve through the snapshot instead
        of current storage, and index leaves add the objects the
        snapshot reads differently (``snapshot.changed``) — the plan
        runs as given, its path steps through a memo of this execution's
        own (:meth:`~repro.versions.store.SnapshotView.path_memo`, built
        by the first step that dereferences), whose hits the pipeline
        counts as snapshot reads when it closes.
        ``visible`` is the caller's row-visibility predicate (see
        ``compile_plan``).
        """
        if snapshot is None:
            return compile_plan(plan, self.kernel, self._scan_pages, visible)
        kernel = ObjectKernel(
            snapshot.deref, self.shapes, self._send, self._adt_eval, snapshot.path_memo
        )
        pipeline = compile_plan(plan, kernel, snapshot.scan_pages, visible, snapshot.changed)
        pipeline.finish = kernel.finish
        return pipeline

    def execute(
        self, plan: Plan, timed: bool = False, snapshot=None, visible=None
    ) -> ResultSet:
        """Run a plan.  With ``timed``, operators also accumulate
        per-stage wall-clock (EXPLAIN ANALYZE reads it off the chain).
        """
        pipeline = self.pipeline(plan, snapshot=snapshot, visible=visible)
        return self._drain(pipeline, timed, system=False)

    def execute_rows(
        self, plan: Plan, kernel, scan: ScanRows, timed: bool = False
    ) -> ResultSet:
        """Run a plan whose rows are plain dicts (system views).

        Same compile-and-drain path as :meth:`execute`, but over a
        caller-supplied row kernel and scan callable instead of the
        object kernel — this is how SysWaitEvent & co. flow through the
        standard pipeline.  ``oids`` is always empty; ``rows`` holds the
        (possibly projected) dicts in result order.
        """
        return self._drain(compile_plan(plan, kernel, scan), timed, system=True)

    @staticmethod
    def _drain(pipeline: Pipeline, timed: bool, system: bool) -> ResultSet:
        """Open, pull dry and close a pipeline into a :class:`ResultSet`."""
        query = pipeline.plan.query
        if timed:
            pipeline.set_timed()
        oids: List[OID] = []
        rows: Optional[List[Dict[str, Any]]] = None
        states: Optional[List[ObjectState]] = None
        pipeline.open()
        try:
            drained = [row for batch in pipeline.root.batches() for row in batch]
        finally:
            pipeline.close()
        if query.aggregates or (system and query.projections is None):
            rows = drained
        elif query.projections is not None:
            rows = [projected for _row, projected in drained]
            if not system:
                oids = [row.oid for row, _projected in drained]
        else:
            states = drained
            oids = [state.oid for state in states]
        result = ResultSet(query, pipeline.plan, oids, rows, pipeline, states)
        result.system = system
        return result
