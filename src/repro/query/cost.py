"""The cost model: the one access-path chooser.

The paper names query optimization as a core open research direction
for OODBs; this module is kimdb's System-R answer [SELI79] built on the
engine's own measurements.  :class:`CostModel` turns cardinality facts
into a :class:`CostDecision` — every candidate access path costed in
*estimated pages read* plus *rows examined*, cheapest wins.

The facts come from one of two **statistics sources**, picked per
decision:

- ``"statistics"`` — the ANALYZE catalog
  (:class:`~repro.obs.stats.StatisticsCatalog`: per-class row counts and
  byte sizes, per-index distinct-key counts and equi-depth histograms),
  whenever it is present, fresh (``stale_reason`` is None) and covers
  every class in scope;
- ``"live"`` — the engine itself, otherwise: rows from the extent
  count, pages from the class heap, entries from the live B+-tree,
  exact ``tree.search`` match counts and ``tree.estimate_range``
  interpolation.  ``CostDecision.reason`` says why the catalog was not
  used; EXPLAIN prints it with the remedy.

Both sources feed the same candidates and the same formula.
Selectivity estimation:

- equality / ``contains``: ``1 / distinct_keys`` (average duplication),
  clamped to zero when the probe value falls outside the indexed
  ``[low, high]`` domain — or the exact match count when live;
- ``in``: the sum of the member equality estimates, capped at 1;
- ranges: equi-depth histogram bucket classification.  Buckets provably
  inside the interval contribute their full depth to both the floor and
  the ceiling of the estimate; buckets that merely overlap contribute
  only to the ceiling; the estimate is the midpoint, so the true row
  count always lies in ``[floor, ceiling]`` (the property the hypothesis
  suite checks).  Live: linear interpolation over the tree's key span;
- conjunctions: the product of conjunct selectivities (the classical
  independence assumption);
- disjunctions: inclusion-exclusion under the same assumption;
- class-hierarchy fan-in: scope cardinality is the *sum* of per-class
  row counts, so a hierarchy query is costed over every extent it will
  actually touch.

Cost units: one sequential page read costs :data:`PAGE_COST` row
examinations; an index match is a random object fetch — one page touch
per row, of which at most as many as the scope has heap pages are reads
and the rest cost :data:`PAGE_RETOUCH_FRACTION` of one — after
:data:`BTREE_DESCEND_PAGES` to walk the tree.

Plans are always costed as their best access path, and that is the
path that runs: index leaves answer any snapshot exactly (see
``repro.query.operators.pipeline``), so nothing about a snapshot is
baked into a cached plan.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

from .ast import AdtPredicate, And, Comparison, Expr, Not, Or, Query, conjuncts
from .planner import (
    AdtIndexProbe,
    ExtentScan,
    IndexEqProbe,
    IndexInProbe,
    IndexRangeProbe,
)

#: One sequential page read costs this many row examinations.
PAGE_COST = 4.0

#: Pages touched descending the B+-tree root-to-leaf per probe.
BTREE_DESCEND_PAGES = 2.0

#: Touching a page that was already read costs this fraction of reading
#: it (directory lookup + buffer hit, no I/O).  With :data:`PAGE_COST`
#: it prices a random fetch at 1.25 sequential row examinations, which
#: puts the probe-vs-scan crossover near 80 % selectivity — inside the
#: band E7 measures (probe ahead at 50 %, scan ahead at 100 %).
PAGE_RETOUCH_FRACTION = 1.0 / 16.0

#: Fallback selectivities for predicates with no covering index stat.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_INEQUALITY_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.25
DEFAULT_OPAQUE_SELECTIVITY = 0.5
_RANGE_OPS = ("<", "<=", ">", ">=")
_DEFAULT_SELECTIVITY = dict.fromkeys(_RANGE_OPS, DEFAULT_INEQUALITY_SELECTIVITY)
_DEFAULT_SELECTIVITY.update(
    {
        "=": DEFAULT_EQ_SELECTIVITY,
        "contains": DEFAULT_EQ_SELECTIVITY,
        "!=": 1.0 - DEFAULT_EQ_SELECTIVITY,
        "like": DEFAULT_LIKE_SELECTIVITY,
    }
)


def _clamp(fraction: float) -> float:
    return min(1.0, max(0.0, fraction))


class RangeEstimate:
    """Histogram range estimate with provable bounds.

    ``floor`` counts entries in buckets wholly inside the interval,
    ``ceiling`` adds every bucket the interval merely overlaps, so the
    true match count always satisfies ``floor <= true <= ceiling``;
    ``rows`` is the midpoint.
    """

    __slots__ = ("rows", "floor", "ceiling")

    def __init__(self, rows: float, floor: float, ceiling: float) -> None:
        self.rows = rows
        self.floor = floor
        self.ceiling = ceiling

    def __repr__(self) -> str:
        return "<RangeEstimate %.1f in [%.1f, %.1f]>" % (
            self.rows,
            self.floor,
            self.ceiling,
        )


def equality_rows(stat: Any, value: Any) -> float:
    """Estimated entries matched by an equality probe on one index."""
    if stat.entries <= 0 or stat.distinct_keys <= 0:
        return 0.0
    try:
        if stat.low is not None and value < stat.low:
            return 0.0
        if stat.high is not None and value > stat.high:
            return 0.0
    except TypeError:
        # Probe value incomparable with the indexed domain (mixed
        # types): keep the average-duplication estimate.
        pass
    return stat.entries / float(stat.distinct_keys)


def _bucket_versus_interval(
    lo_edge: Any,
    lo_inclusive: bool,
    hi_edge: Any,
    low: Any,
    include_low: bool,
    high: Any,
    include_high: bool,
) -> str:
    """Classify one histogram bucket against a query interval.

    The bucket holds keys ``k`` with ``lo_edge < k <= hi_edge``
    (``lo_edge <= k`` for the first bucket, whose edge is the index
    minimum).  Returns ``"inside"``, ``"outside"`` or ``"partial"`` —
    conservative: only provable containment/exclusion, everything else
    is partial.
    """
    # Provably below the interval: every key <= hi_edge fails k >= low.
    if low is not None and (
        hi_edge < low or (hi_edge == low and not include_low)
    ):
        return "outside"
    # Provably above the interval: every key > / >= lo_edge fails k <= high.
    if high is not None and lo_edge is not None:
        if lo_inclusive:
            if lo_edge > high or (lo_edge == high and not include_high):
                return "outside"
        elif lo_edge >= high:
            return "outside"
    lower_ok = low is None or (
        lo_edge is not None
        and (
            (lo_edge > low or (lo_edge == low and include_low))
            if lo_inclusive
            else lo_edge >= low
        )
    )
    upper_ok = high is None or hi_edge < high or (
        hi_edge == high and include_high
    )
    if lower_ok and upper_ok:
        return "inside"
    return "partial"


def range_estimate(
    stat: Any,
    low: Any,
    include_low: bool,
    high: Any,
    include_high: bool,
) -> RangeEstimate:
    """Estimated entries in ``[low, high]`` from the equi-depth histogram."""
    entries = float(stat.entries)
    if entries <= 0:
        return RangeEstimate(0.0, 0.0, 0.0)
    boundaries = list(stat.boundaries)
    if not boundaries:
        return RangeEstimate(entries * DEFAULT_INEQUALITY_SELECTIVITY, 0.0, entries)
    depths: List[float] = [float(d) for d in stat.depths]
    if len(depths) != len(boundaries):
        # Catalog predates per-bucket depths: assume uniform depth.
        depths = [entries / float(len(boundaries))] * len(boundaries)
    floor = 0.0
    ceiling = 0.0
    try:
        for i, (bound, depth) in enumerate(zip(boundaries, depths)):
            if i == 0:
                lo_edge, lo_inclusive = stat.low, True
            else:
                lo_edge, lo_inclusive = boundaries[i - 1], False
            kind = _bucket_versus_interval(
                lo_edge, lo_inclusive, bound, low, include_low, high, include_high
            )
            if kind == "inside":
                floor += depth
                ceiling += depth
            elif kind == "partial":
                ceiling += depth
    except TypeError:
        # Query bound incomparable with histogram keys: magic constant.
        return RangeEstimate(entries * DEFAULT_INEQUALITY_SELECTIVITY, 0.0, entries)
    return RangeEstimate((floor + ceiling) / 2.0, floor, ceiling)


class CandidateCost:
    """One costed access-path alternative."""

    __slots__ = (
        "kind",
        "access",
        "pages",
        "rows",
        "selectivity",
        "residual",
        "rank",
        "chosen",
        "note",
    )

    def __init__(
        self,
        kind: str,
        access: Any,
        pages: float,
        rows: float,
        selectivity: float,
        residual: Optional[List[Expr]],
        rank: int,
        note: str = "",
    ) -> None:
        self.kind = kind
        self.access = access
        self.pages = pages
        self.rows = rows
        self.selectivity = selectivity
        #: Residual conjuncts to re-check above the access path; ``None``
        #: means "the full WHERE clause".
        self.residual = residual
        #: Tie-break preference (lower wins at equal total); the extent
        #: scan ranks first so equal-cost decisions stay boring.
        self.rank = rank
        self.chosen = False
        self.note = note

    @property
    def total(self) -> float:
        return self.pages * PAGE_COST + self.rows

    def describe(self) -> str:
        text = "%s: pages=%.1f rows=%.1f total=%.1f" % (
            self.access.description,
            self.pages,
            self.rows,
            self.total,
        )
        if self.note:
            text += " (%s)" % self.note
        return text


class CostDecision:
    """The outcome of costing one query: every candidate, the winner,
    and the statistics source the numbers came from."""

    __slots__ = (
        "source",
        "reason",
        "stale_reason",
        "candidates",
        "chosen",
        "estimated_rows",
        "schema_version",
        "index_epoch",
    )

    def __init__(
        self,
        source: str,
        reason: str,
        candidates: List[CandidateCost],
        chosen: CandidateCost,
        estimated_rows: float,
        schema_version: int,
        index_epoch: int,
        stale_reason: Optional[str] = None,
    ) -> None:
        #: ``"statistics"`` (the ANALYZE catalog) or ``"live"`` (engine
        #: cardinalities, with ``reason`` why the catalog was not used).
        self.source = source
        self.reason = reason
        self.stale_reason = stale_reason
        self.candidates = candidates
        self.chosen = chosen
        self.estimated_rows = estimated_rows
        self.schema_version = schema_version
        self.index_epoch = index_epoch

    def __repr__(self) -> str:
        return "<CostDecision %s %s total=%.1f>" % (
            self.source,
            self.chosen.access.description,
            self.chosen.total,
        )


class CostModel:
    """Costs every candidate access path for one query."""

    def __init__(
        self,
        schema: Any,
        indexes: Any,
        stats: Any,
        extent_count: Optional[Callable[[str], int]] = None,
        extent_pages: Optional[Callable[[str], int]] = None,
        page_size: int = 4096,
    ) -> None:
        self.schema = schema
        self.indexes = indexes
        #: The ANALYZE catalog, or None when there is none.
        self.stats = stats
        #: Live direct-extent row and heap-page counts per class — the
        #: facts a decision runs on when the catalog cannot be used.
        self.extent_count = extent_count
        self.extent_pages = extent_pages
        self.page_size = max(1, int(page_size))
        #: Per decision: the catalog when it is this decision's source
        #: (None = live), and the scope's total rows and heap pages.
        self._catalog: Any = None
        self._total_rows = 0.0
        self._scan_pages = 0.0

    # -- public API --------------------------------------------------------

    def decide(
        self,
        query: Query,
        scope: Set[str],
        facts: Any = None,
        ordered: Any = None,
    ) -> CostDecision:
        """Cost every candidate and pick the cheapest.

        ``ordered`` is the planner's (already soundness-checked)
        :class:`~repro.query.planner.IndexOrderScan` candidate or None.
        """
        reason, stale = self._why_live(scope)
        self._catalog = self.stats if reason is None else None
        total_rows = 0.0
        scan_pages = 0.0
        for cls in sorted(scope):
            rows, pages = self._extent(cls)
            total_rows += rows
            scan_pages += pages
        self._total_rows = total_rows
        self._scan_pages = scan_pages

        predicates = conjuncts(query.where)
        output_sel = 1.0
        for predicate in predicates:
            output_sel *= _clamp(self._selectivity(query, predicate, scope))

        candidates: List[CandidateCost] = [
            CandidateCost(
                "extent-scan",
                ExtentScan(sorted(scope)),
                scan_pages,
                total_rows,
                output_sel,
                None,
                rank=0,
            )
        ]
        for position, predicate in enumerate(predicates):
            candidate = self._probe_candidate(
                query, position, predicate, predicates, scope
            )
            if candidate is not None:
                candidates.append(candidate)
        for steps, bounds in (facts.ranges if facts is not None else {}).items():
            # Per-conjunct matching only ever sees one side of a range;
            # the rewrite pass proved the conjuncts jointly confine the
            # path to an interval.  The probe enforces both bounds but
            # the filter above rechecks the full predicate, so the
            # residual keeps every conjunct.
            candidate = self._range_candidate(
                query, steps, bounds, list(predicates), scope,
                "rewrite-derived interval; ",
            )
            if candidate is not None:
                candidates.append(candidate)
        if ordered is not None and query.limit is not None:
            need = float(query.limit)
            expected = min(
                total_rows,
                need / max(output_sel, 1e-9) if predicates else need,
            )
            candidates.append(
                CandidateCost(
                    "index-order",
                    ordered,
                    self._fetch_pages(expected),
                    expected,
                    output_sel,
                    None,
                    rank=2,
                    note="ordered index scan: walk stops after ~%.0f row(s) "
                    "for LIMIT %d" % (expected, query.limit),
                )
            )

        chosen = min(
            candidates,
            key=lambda c: (c.total, c.rank, c.access.description),
        )
        chosen.chosen = True
        return CostDecision(
            "statistics" if reason is None else "live",
            reason or "",
            candidates,
            chosen,
            total_rows * output_sel,
            getattr(self.stats, "schema_version", 0),
            getattr(self.stats, "index_epoch", 0),
            stale_reason=stale,
        )

    # -- statistics source -------------------------------------------------

    def _why_live(self, scope: Set[str]) -> Tuple[Optional[str], Optional[str]]:
        """``(reason, stale_reason)`` for costing on live cardinalities;
        ``(None, None)`` when the ANALYZE catalog can be trusted."""
        if self.stats is None:
            return "no ANALYZE statistics", None
        stale = self.stats.stale_reason(
            getattr(self.schema, "version", 0), getattr(self.indexes, "epoch", 0)
        )
        if stale is not None:
            return "statistics are stale (%s)" % stale, stale
        for cls in sorted(scope):
            if cls not in self.stats.class_stats:
                return "class %s missing from the ANALYZE catalog" % cls, None
        return None, None

    def _extent(self, cls: str) -> Tuple[float, float]:
        """``(rows, heap pages)`` of one class's direct extent."""
        if self._catalog is None:
            return float(self.extent_count(cls)), float(self.extent_pages(cls))
        stat = self._catalog.class_stats[cls]
        if not stat.rows:
            return 0.0, 0.0
        pages = math.ceil(stat.total_bytes / float(self.page_size))
        return float(stat.rows), max(1.0, pages)

    def _index_for(
        self, query: Query, steps: Sequence[str], scope: Set[str]
    ) -> Optional[Tuple[Any, Any]]:
        """``(index, catalog stat)`` covering a path, or None.

        The stat is None when the source is live — the estimators below
        then read the index's own B+-tree.  An index the catalog has
        never seen would mean the epoch moved, which the staleness check
        catches first; it yields no candidate.
        """
        index = self.indexes.find_index(query.target_class, steps, scope)
        if index is None:
            return None
        if self._catalog is None:
            return index, None
        stat = self._catalog.index_stats.get(index.name)
        return (index, stat) if stat is not None else None

    def _adt_index(self, query: Query, predicate: AdtPredicate, scope: Set[str]) -> Any:
        """The index answering an ADT predicate over ``scope``, or None.
        ADT indexes keep no histogram: their own estimate is the fact,
        whichever the source."""
        return self.indexes.find_index(
            query.target_class, predicate.path.steps, scope, predicate.name
        )

    def _fetch_pages(self, rows: float, probes: int = 1) -> float:
        """Pages charged to an index-driven candidate: the B+-tree
        descents plus one heap page touch per fetched row.  Only as many
        touches as the scope has heap pages can be reads (that is all any
        access path reads); the rest re-touch a page already in hand."""
        reads = min(rows, self._scan_pages)
        return (
            probes * BTREE_DESCEND_PAGES
            + reads
            + (rows - reads) * PAGE_RETOUCH_FRACTION
        )

    @staticmethod
    def _entries(index: Any, stat: Any) -> float:
        return float(len(index.tree) if stat is None else stat.entries)

    @staticmethod
    def _equality_rows(index: Any, stat: Any, value: Any) -> float:
        if stat is None:
            return float(len(index.tree.search(value)))
        return equality_rows(stat, value)

    @staticmethod
    def _range_rows(
        index: Any, stat: Any, bounds: Tuple[Any, bool, Any, bool]
    ) -> Tuple[float, str]:
        """Estimated entries inside ``bounds``, and how they were found."""
        low, include_low, high, include_high = bounds
        if stat is None:
            rows = float(index.tree.estimate_range(low=low, high=high))
            return rows, "live B+-tree interpolation"
        estimate = range_estimate(stat, low, include_low, high, include_high)
        return estimate.rows, "histogram bounds [%.0f, %.0f]" % (
            estimate.floor,
            estimate.ceiling,
        )

    # -- selectivity -------------------------------------------------------

    def _selectivity(self, query: Query, expr: Expr, scope: Set[str]) -> float:
        if isinstance(expr, Comparison):
            return self._comparison_selectivity(query, expr, scope)
        if isinstance(expr, And):
            sel = 1.0
            for child in expr.operands:
                sel *= _clamp(self._selectivity(query, child, scope))
            return sel
        if isinstance(expr, Or):
            miss = 1.0
            for child in expr.operands:
                miss *= 1.0 - _clamp(self._selectivity(query, child, scope))
            return 1.0 - miss
        if isinstance(expr, Not):
            return 1.0 - _clamp(self._selectivity(query, expr.operand, scope))
        if isinstance(expr, AdtPredicate):
            index = self._adt_index(query, expr, scope)
            if index is not None and self._total_rows > 0:
                return _clamp(index.estimate(*expr.args) / self._total_rows)
        return DEFAULT_OPAQUE_SELECTIVITY

    def _comparison_selectivity(
        self, query: Query, predicate: Comparison, scope: Set[str]
    ) -> float:
        op = predicate.op
        value = predicate.const.value
        found = self._index_for(query, predicate.path.steps, scope)
        entries = self._entries(*found) if found is not None else 0.0
        if entries > 0:
            index, stat = found
            if op in ("=", "contains"):
                return _clamp(self._equality_rows(index, stat, value) / entries)
            if op == "!=":
                return _clamp(
                    1.0 - self._equality_rows(index, stat, value) / entries
                )
            if op == "in":
                matched = sum(
                    self._equality_rows(index, stat, v) for v in _members(value)
                )
                return _clamp(matched / entries)
            if op in _RANGE_OPS:
                rows, _how = self._range_rows(
                    index, stat, _one_sided_bounds(op, value)
                )
                return _clamp(rows / entries)
        # No covering index statistic: the magic constants.
        if op == "in":
            return _clamp(len(_members(value)) * DEFAULT_EQ_SELECTIVITY)
        return _DEFAULT_SELECTIVITY.get(op, DEFAULT_OPAQUE_SELECTIVITY)

    # -- candidates --------------------------------------------------------

    def _probe_candidate(
        self,
        query: Query,
        position: int,
        predicate: Expr,
        predicates: List[Expr],
        scope: Set[str],
    ) -> Optional[CandidateCost]:
        residual = predicates[:position] + predicates[position + 1 :]
        if isinstance(predicate, AdtPredicate):
            index = self._adt_index(query, predicate, scope)
            if index is None:
                return None
            matched = float(index.estimate(*predicate.args))
            return CandidateCost(
                "adt-index",
                AdtIndexProbe(index, predicate),
                self._fetch_pages(matched),
                matched,
                _clamp(self._selectivity(query, predicate, scope)),
                residual,
                rank=3,
            )
        if not isinstance(predicate, Comparison):
            return None
        value = predicate.const.value
        if predicate.op in _RANGE_OPS:
            return self._range_candidate(
                query, predicate.path.steps,
                _one_sided_bounds(predicate.op, value), residual, scope,
            )
        found = self._index_for(query, predicate.path.steps, scope)
        if found is None:
            return None
        index, stat = found
        entries = max(self._entries(index, stat), 1.0)
        if predicate.op in ("=", "contains"):
            matched = self._equality_rows(index, stat, value)
            return CandidateCost(
                "index-eq",
                IndexEqProbe(index, value),
                self._fetch_pages(matched),
                matched,
                _clamp(matched / entries),
                residual,
                rank=1,
            )
        if predicate.op == "in":
            members = _members(value)
            matched = min(
                entries,
                sum(self._equality_rows(index, stat, v) for v in members),
            )
            return CandidateCost(
                "index-in",
                IndexInProbe(index, members),
                self._fetch_pages(matched, probes=len(members)),
                matched,
                _clamp(matched / entries),
                residual,
                rank=1,
            )
        # != and LIKE are not sargable.
        return None

    def _range_candidate(
        self,
        query: Query,
        steps: Tuple[str, ...],
        bounds: Tuple[Any, bool, Any, bool],
        residual: List[Expr],
        scope: Set[str],
        origin: str = "",
    ) -> Optional[CandidateCost]:
        """An index range probe over ``bounds`` on one path, if covered."""
        found = self._index_for(query, steps, scope)
        if found is None:
            return None
        index, stat = found
        rows, how = self._range_rows(index, stat, bounds)
        low, include_low, high, include_high = bounds
        return CandidateCost(
            "index-range",
            IndexRangeProbe(index, low, high, include_low, include_high),
            self._fetch_pages(rows),
            rows,
            _clamp(rows / max(self._entries(index, stat), 1.0)),
            residual,
            rank=2,
            note=origin + how,
        )


def _members(value: Any) -> List[Any]:
    """The member list of an ``in`` constant (a scalar is one member)."""
    try:
        return list(value)
    except TypeError:
        return [value]


def _one_sided_bounds(op: str, value: Any) -> Tuple[Any, bool, Any, bool]:
    if op == "<":
        return None, True, value, False
    if op == "<=":
        return None, True, value, True
    if op == ">":
        return value, False, None, True
    return value, True, None, True
