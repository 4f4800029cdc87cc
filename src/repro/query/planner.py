"""Query planner.

Section 2.2 of the paper recalls that declarative queries made "a major
new component, namely the query optimizer" necessary.  The kimdb planner
performs the OODB version of System-R-style access-path selection
[SELI79]: it determines the evaluation scope (class vs. class hierarchy),
validates paths, and hands scope and predicate to the one
:class:`~repro.query.cost.CostModel`, which matches sargable conjuncts
against single-class, class-hierarchy and nested-attribute indexes (and
ADT predicates against their access-method indexes) and picks the
cheapest access path — the extent scan when no index wins (experiment
E7's crossover).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Set

from ..core.schema import Schema
from ..errors import PlanningError
from ..index.base import Index
from ..index.manager import IndexManager
from .ast import AdtPredicate, Comparison, Expr, Query, conjuncts
from .paths import validate_path

#: Returns the number of direct instances (or heap pages) of a class.
ExtentCount = Callable[[str], int]


class AccessPath:
    """How candidate objects are produced."""

    description = "abstract"


class ExtentScan(AccessPath):
    """Scan the direct extents of every class in scope."""

    def __init__(self, classes: Sequence[str]) -> None:
        self.classes = list(classes)
        self.description = "scan(%s)" % ", ".join(self.classes)


class EmptyScan(AccessPath):
    """Produce no candidates: the predicate is provably unsatisfiable.

    Emitted when the rewrite pass (:mod:`repro.analysis.rewrite`) proves
    the WHERE clause contradictory.  The executor compiles it to an
    operator that touches no storage, and ``Database`` opens no snapshot
    for it — a provably-empty query costs nothing beyond its analysis.
    """

    def __init__(self, classes: Sequence[str], reason: str = "") -> None:
        self.classes = list(classes)
        self.reason = reason
        self.description = "empty-scan(%s)" % ", ".join(self.classes)


class IndexEqProbe(AccessPath):
    def __init__(self, index: Index, value: Any) -> None:
        self.index = index
        self.value = value
        self.description = "index-eq(%s = %r)" % (index.name, value)


class IndexInProbe(AccessPath):
    def __init__(self, index: Index, values: Sequence[Any]) -> None:
        self.index = index
        self.values = list(values)
        self.description = "index-in(%s in %r)" % (index.name, self.values)


class IndexRangeProbe(AccessPath):
    def __init__(
        self,
        index: Index,
        low: Any,
        high: Any,
        include_low: bool,
        include_high: bool,
    ) -> None:
        self.index = index
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high
        self.description = "index-range(%s in %s%r, %r%s)" % (
            index.name,
            "[" if include_low else "(",
            low,
            high,
            "]" if include_high else ")",
        )


class AdtIndexProbe(AccessPath):
    """Probe the index answering an ADT predicate (e.g. a spatial grid)."""

    def __init__(self, index: Index, predicate: AdtPredicate) -> None:
        self.index = index
        self.predicate = predicate
        self.description = "adt-index(%s on %s)" % (
            predicate.name,
            predicate.path.dotted(),
        )


class IndexOrderScan(AccessPath):
    """Walk an index in key order: ORDER BY without a sort.

    Chosen only under a LIMIT — the point is that the pipeline above can
    stop after k matches, so the walk (and the dereferences it feeds)
    never touches most of the extent.
    """

    def __init__(self, index: Index, descending: bool = False) -> None:
        self.index = index
        self.descending = descending
        self.description = "index-order-scan(%s%s)" % (
            index.name,
            " desc" if descending else "",
        )


class SystemScan(AccessPath):
    """Scan one virtual extent: a system statistics view (SysStat,
    SysWaitEvent, ...) or a federated virtual class.

    System views are virtual extents produced by the observability layer
    (:mod:`repro.obs.sysviews`), federated classes are row sources of
    other engines (:mod:`repro.multidb.federation`); there is nothing to
    index, so the only access path is a full scan of the rows.
    """

    def __init__(self, view: str) -> None:
        self.view = view
        self.description = "system(%s)" % view


class Plan:
    """An executable plan: access path + residual filter + finishing."""

    def __init__(
        self,
        query: Query,
        scope: Set[str],
        access: AccessPath,
        residual: Optional[Expr],
        estimated_cost: float,
        notes: Optional[List[str]] = None,
    ) -> None:
        self.query = query
        self.scope = scope
        self.access = access
        self.residual = residual
        self.estimated_cost = estimated_cost
        self.notes = notes or []
        #: The :class:`~repro.analysis.rewrite.RewriteResult` this plan
        #: was built from (set by ``Database``; None for direct planner
        #: calls).  EXPLAIN renders its applied rules.
        self.rewrite = None
        #: True once this plan has been served from the plan cache.
        self.cached = False
        #: The :class:`~repro.query.cost.CostDecision` that chose the
        #: access path; None for system and proven-empty scans, where
        #: there is nothing to choose.  EXPLAIN renders it as ``-- cost --``.
        self.cost = None

    def explain(self) -> str:
        lines = [
            "target: %s%s"
            % (self.query.target_class, "" if self.query.hierarchy else " (ONLY)"),
            "scope: %s" % ", ".join(sorted(self.scope)),
            "access: %s" % self.access.description,
            "residual: %r" % (self.residual,),
            "estimated cost: %.1f" % self.estimated_cost,
        ]
        lines.extend("note: %s" % note for note in self.notes)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "<Plan %s cost=%.1f>" % (self.access.description, self.estimated_cost)


class Planner:
    """Chooses an access path for a query."""

    def __init__(
        self,
        schema: Schema,
        indexes: IndexManager,
        extent_count: ExtentCount,
        extent_pages: ExtentCount,
        system_catalog=None,
    ) -> None:
        self.schema = schema
        self.indexes = indexes
        #: Live rows / heap pages of a class's direct extent: what the
        #: cost model runs on (with the indexes' exact counts).
        self.extent_count = extent_count
        self.extent_pages = extent_pages
        #: Optional :class:`~repro.obs.sysviews.SystemCatalog`; when a
        #: query targets one of its views the planner short-circuits to a
        #: SystemScan (duck-typed — no import, the obs layer already
        #: imports the query layer).
        self.system_catalog = system_catalog

    # -- public API --------------------------------------------------------

    def plan(
        self,
        query: Query,
        exclude_classes: Sequence[str] = (),
        facts=None,
    ) -> Plan:
        """Choose an access path.

        Access-path selection always runs through
        :class:`~repro.query.cost.CostModel` — every candidate costed in
        estimated pages + rows on live extent counts and exact B+-tree
        counts, cheapest wins.  The
        :class:`~repro.query.cost.CostDecision` rides on ``plan.cost``
        for EXPLAIN and the plan cache.
        """
        # System statistics views bypass schema validation entirely: they
        # are not classes, have no hierarchy, no extents and no indexes.
        if self.system_catalog is not None and self.system_catalog.is_system(
            query.target_class
        ):
            return Plan(
                query,
                {query.target_class},
                SystemScan(query.target_class),
                query.where,
                float(self.system_catalog.estimate_rows(query.target_class)),
                ["system view: observability rows, generated at open()"],
            )
        scope = self._scope_of(query)
        # Class-hierarchy pruning facts from semantic analysis: subclasses
        # whose instances can never satisfy the predicate.  The target
        # class itself is never pruned (the fact would mean an empty
        # query, which still must plan and return no rows).
        pruned = sorted(
            scope.intersection(exclude_classes) - {query.target_class}
        )
        scope = scope - set(pruned)
        self._validate(query, scope)
        # Abstract interpretation proved no object can match: an empty
        # scan touches no extents, probes no indexes, takes no locks.
        if facts is not None and facts.contradiction:
            return Plan(
                query,
                scope,
                EmptyScan(sorted(scope), facts.reason or ""),
                query.where,
                0.0,
                ["rewrite proved the predicate unsatisfiable: %s" % facts.reason],
            )
        notes: List[str] = []
        if pruned:
            notes.append(
                "analysis pruned %s from scope (predicate statically "
                "unsatisfiable there)" % ", ".join(pruned)
            )
        # Imported here: the cost module imports this one's access paths.
        from .cost import CostModel

        decision = CostModel(
            self.indexes, self.extent_count, self.extent_pages
        ).decide(
            query,
            scope,
            facts=facts,
            ordered=self._ordered_scan_candidate(query, scope),
        )
        chosen = decision.chosen
        notes.append(
            "cost: chose %s (total %.1f) among %d candidate(s)"
            % (
                chosen.access.description,
                chosen.total,
                len(decision.candidates),
            )
        )
        if chosen.note:
            notes.append("cost: %s" % chosen.note)
        if chosen.residual is None:
            residual = query.where
        else:
            residual = _and_together(chosen.residual)
        plan = Plan(query, scope, chosen.access, residual, chosen.rows, notes)
        plan.cost = decision
        return plan

    # -- internals -------------------------------------------------------------

    def _scope_of(self, query: Query) -> Set[str]:
        if query.hierarchy:
            return set(self.schema.hierarchy_of(query.target_class))
        return {query.target_class}

    def _validate(self, query: Query, scope: Set[str]) -> None:
        self.schema.get_class(query.target_class)
        for predicate in conjuncts(query.where):
            if isinstance(predicate, Comparison):
                validate_path(self.schema, query.target_class, predicate.path.steps)
        for path in query.projections or []:
            validate_path(self.schema, query.target_class, path.steps)
        for aggregate in query.aggregates or []:
            if aggregate.path is not None:
                validate_path(self.schema, query.target_class, aggregate.path.steps)
        if query.group_by is not None:
            validate_path(self.schema, query.target_class, query.group_by.steps)
        if query.order_by is not None:
            validate_path(self.schema, query.target_class, query.order_by.steps)
        if not scope:
            raise PlanningError("empty evaluation scope for %r" % (query,))

    def _ordered_scan_candidate(
        self, query: Query, scope: Set[str]
    ) -> Optional[IndexOrderScan]:
        """An ordered index walk serving ORDER BY ... LIMIT, if sound.

        Requires a covering B+-tree index on the (single-step,
        single-valued) ordering attribute and a LIMIT to cash in the
        early termination; without a LIMIT a scan + sort reads the same
        rows with better locality.  Nested-attribute indexes are
        excluded: their keys are path terminals, whose None/missing
        partition does not coincide with the executor's per-object
        ordering semantics.
        """
        if query.order_by is None or query.limit is None or query.aggregates:
            return None
        steps = query.order_by.steps
        if len(steps) != 1:
            return None
        index = self.indexes.find_index(query.target_class, steps, scope)
        if index is None or index.kind not in ("single-class", "class-hierarchy"):
            return None
        attribute = steps[0]
        for cls in scope:
            declared = self.schema.attribute_map(cls)
            if attribute not in declared or declared[attribute].multi:
                return None
        return IndexOrderScan(index, query.descending)


def _and_together(predicates: List[Expr]) -> Optional[Expr]:
    from .ast import And

    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return And(predicates)
