"""The cost model: the one access-path chooser.

The paper names query optimization as a core open research direction
for OODBs; this module is kimdb's System-R answer [SELI79] built on the
engine's own measurements.  :class:`CostModel` turns cardinality facts
into a :class:`CostDecision` — every candidate access path costed in
*estimated pages read* plus *rows examined*, cheapest wins.

There is one statistics source, the live engine, and its facts are
exact and never stale: rows from the extent count, pages from the class
heap, and per-index match counts from the counted B+-tree the probe
would walk (``tree.count`` / ``tree.count_range``, each a root-to-leaf
descent or two).  Each top-level conjunct looks its index up and counts
its matches once per decision; the pair feeds both the output
selectivity and that conjunct's candidate.  Selectivity estimation:

- equality / ``contains`` / ranges: matched entries over index entries;
- ``!=``: one minus the equality fraction;
- ``in``: the sum of the member counts, capped at 1;
- ADT predicates: the ADT index's own estimate over the scope's rows;
- predicates no index covers: fixed defaults (:data:`DEFAULT_EQ_SELECTIVITY`
  and friends);
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

from typing import Any, Callable, List, Optional, Set, Tuple

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
    """The outcome of costing one query: every candidate and the winner."""

    __slots__ = ("candidates", "chosen", "estimated_rows")

    def __init__(
        self,
        candidates: List[CandidateCost],
        chosen: CandidateCost,
        estimated_rows: float,
    ) -> None:
        self.candidates = candidates
        self.chosen = chosen
        self.estimated_rows = estimated_rows

    def __repr__(self) -> str:
        return "<CostDecision %s total=%.1f>" % (
            self.chosen.access.description,
            self.chosen.total,
        )


#: One conjunct's index lookup: ``(index, entries it matches)``.
Look = Optional[Tuple[Any, float]]


class CostModel:
    """Costs every candidate access path for one query."""

    def __init__(
        self,
        indexes: Any,
        extent_count: Callable[[str], int],
        extent_pages: Callable[[str], int],
    ) -> None:
        self.indexes = indexes
        #: Live direct-extent row and heap-page counts per class.
        self.extent_count = extent_count
        self.extent_pages = extent_pages
        #: Per decision: the scope's total rows and heap pages.
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
        total_rows = 0.0
        scan_pages = 0.0
        for cls in sorted(scope):
            total_rows += self.extent_count(cls)
            scan_pages += self.extent_pages(cls)
        self._total_rows = total_rows
        self._scan_pages = scan_pages

        predicates = conjuncts(query.where)
        looks = [self._look(query, predicate, scope) for predicate in predicates]
        sels = [
            _clamp(self._selectivity(query, predicate, scope, look))
            for predicate, look in zip(predicates, looks)
        ]
        output_sel = 1.0
        for sel in sels:
            output_sel *= sel

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
        for position, (predicate, look) in enumerate(zip(predicates, looks)):
            if look is None:
                continue
            residual = predicates[:position] + predicates[position + 1 :]
            candidate = self._probe_candidate(
                predicate, look, sels[position], residual
            )
            if candidate is not None:
                candidates.append(candidate)
        for steps, bounds in (facts.ranges if facts is not None else {}).items():
            # Per-conjunct matching only ever sees one side of a range;
            # the rewrite pass proved the conjuncts jointly confine the
            # path to an interval.  The probe enforces both bounds but
            # the filter above rechecks the full predicate, so the
            # residual keeps every conjunct.
            index = self.indexes.find_index(query.target_class, steps, scope)
            if index is not None:
                rows = float(index.tree.count_range(*_interval(bounds)))
                candidates.append(
                    self._range_candidate(
                        index,
                        rows,
                        bounds,
                        _clamp(rows / max(float(len(index.tree)), 1.0)),
                        list(predicates),
                        "rewrite-derived interval",
                    )
                )
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
        return CostDecision(candidates, chosen, total_rows * output_sel)

    # -- facts -------------------------------------------------------------

    def _look(self, query: Query, expr: Expr, scope: Set[str]) -> Look:
        """The index covering one comparison or ADT predicate, with the
        entries it matches; None when no index covers it."""
        if isinstance(expr, AdtPredicate):
            index = self.indexes.find_index(
                query.target_class, expr.path.steps, scope, expr.name
            )
            if index is None:
                return None
            return index, float(index.estimate(*expr.args))
        if not isinstance(expr, Comparison) or expr.op == "like":
            return None
        index = self.indexes.find_index(query.target_class, expr.path.steps, scope)
        if index is None:
            return None
        tree, value = index.tree, expr.const.value
        if expr.op in _RANGE_OPS:
            matched = tree.count_range(*_interval(_one_sided_bounds(expr.op, value)))
        elif expr.op == "in":
            matched = sum(tree.count(member) for member in _members(value))
        else:
            matched = tree.count(value)
        return index, float(matched)

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

    # -- selectivity -------------------------------------------------------

    def _selectivity(
        self, query: Query, expr: Expr, scope: Set[str], look: Look
    ) -> float:
        """Fraction of the scope ``expr`` keeps; ``look`` is its own
        index lookup (nested operands look theirs up here)."""
        if isinstance(expr, And):
            sel = 1.0
            for child in expr.operands:
                sel *= _clamp(self._operand_selectivity(query, child, scope))
            return sel
        if isinstance(expr, Or):
            miss = 1.0
            for child in expr.operands:
                miss *= 1.0 - _clamp(self._operand_selectivity(query, child, scope))
            return 1.0 - miss
        if isinstance(expr, Not):
            return 1.0 - _clamp(self._operand_selectivity(query, expr.operand, scope))
        if isinstance(expr, AdtPredicate):
            if look is not None and self._total_rows > 0:
                return _clamp(look[1] / self._total_rows)
            return DEFAULT_OPAQUE_SELECTIVITY
        if not isinstance(expr, Comparison):
            return DEFAULT_OPAQUE_SELECTIVITY
        op = expr.op
        entries = float(len(look[0].tree)) if look is not None else 0.0
        if entries > 0:
            fraction = _clamp(look[1] / entries)
            return 1.0 - fraction if op == "!=" else fraction
        # No covering index: the fixed defaults.
        if op == "in":
            return _clamp(len(_members(expr.const.value)) * DEFAULT_EQ_SELECTIVITY)
        return _DEFAULT_SELECTIVITY.get(op, DEFAULT_OPAQUE_SELECTIVITY)

    def _operand_selectivity(self, query: Query, expr: Expr, scope: Set[str]) -> float:
        return self._selectivity(query, expr, scope, self._look(query, expr, scope))

    # -- candidates --------------------------------------------------------

    def _probe_candidate(
        self,
        predicate: Expr,
        look: Tuple[Any, float],
        selectivity: float,
        residual: List[Expr],
    ) -> Optional[CandidateCost]:
        """The index probe answering one conjunct, from its lookup."""
        index, matched = look
        if isinstance(predicate, AdtPredicate):
            return CandidateCost(
                "adt-index",
                AdtIndexProbe(index, predicate),
                self._fetch_pages(matched),
                matched,
                selectivity,
                residual,
                rank=3,
            )
        op, value = predicate.op, predicate.const.value
        if op in _RANGE_OPS:
            return self._range_candidate(
                index, matched, _one_sided_bounds(op, value), selectivity, residual
            )
        if op in ("=", "contains"):
            return CandidateCost(
                "index-eq",
                IndexEqProbe(index, value),
                self._fetch_pages(matched),
                matched,
                selectivity,
                residual,
                rank=1,
            )
        if op == "in":
            members = _members(value)
            return CandidateCost(
                "index-in",
                IndexInProbe(index, members),
                self._fetch_pages(matched, probes=len(members)),
                matched,
                selectivity,
                residual,
                rank=1,
            )
        # != is not sargable.
        return None

    def _range_candidate(
        self,
        index: Any,
        rows: float,
        bounds: Tuple[Any, bool, Any, bool],
        selectivity: float,
        residual: List[Expr],
        note: str = "",
    ) -> CandidateCost:
        """An index range probe over ``bounds`` matching ``rows`` entries."""
        low, include_low, high, include_high = bounds
        return CandidateCost(
            "index-range",
            IndexRangeProbe(index, low, high, include_low, include_high),
            self._fetch_pages(rows),
            rows,
            selectivity,
            residual,
            rank=2,
            note=note,
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


def _interval(bounds: Tuple[Any, bool, Any, bool]) -> Tuple[Any, Any, bool, bool]:
    """``(low, include_low, high, include_high)`` in ``BTree.count_range``
    argument order."""
    low, include_low, high, include_high = bounds
    return low, high, include_low, include_high
