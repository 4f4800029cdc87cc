"""The cost model (``repro.query.cost``): one source of exact counts.

Covers:

* access-path choice — selective probes win, unselective predicates
  fall back to the scan even with an index available, ORDER BY + LIMIT
  walks the index only when the limit is small enough to pay off;
* exact counts — every single-index decision estimates exactly the rows
  it matches, on uniform and on Zipf-skewed keys (where uniform
  interpolation over the key span picks the wrong path);
* oracle parity — the cost model may change *plans* but never query
  *results* (hypothesis compares against a forced extent scan);
* each conjunct's index is looked up once per decision;
* cached plans are always the best access path, and live version
  entries neither poison the cache nor change the plan that runs;
* ``Database.analyze()`` only drops cached plans — the next lookup
  re-plans;
* the ``query.cost.*`` metric family and the EXPLAIN ``-- cost --``
  section (estimated vs. SysQueryStat-observed rows);
* the plan-quality smoke: the monitor demo's fixed query set keeps its
  access paths.
"""

import bisect
import itertools
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AttributeDef, Database
from repro.query.ast import And, Comparison, Const, Path, Query
from repro.query.cost import CostModel
from repro.query.planner import (
    ExtentScan,
    IndexEqProbe,
    IndexOrderScan,
    IndexRangeProbe,
)


def _db(rows, index=True, **kwargs):
    db = Database(**kwargs)
    db.define_class(
        "Item",
        attributes=[
            AttributeDef("a", "Integer"),
            AttributeDef("b", "Integer", default=0),
        ],
    )
    for row in rows:
        db.new("Item", row if isinstance(row, dict) else {"a": row})
    if index:
        db.create_class_index("Item", "a")
    return db


def _range_rows(db, low, include_low, high, include_high):
    """Rows the cost model charges the index range probe over one interval."""
    model = CostModel(db.indexes, db.storage.count_class, db.planner.extent_pages)
    facts = SimpleNamespace(ranges={("a",): (low, include_low, high, include_high)})
    decision = model.decide(Query("Item"), {"Item"}, facts)
    (candidate,) = [c for c in decision.candidates if c.kind == "index-range"]
    return candidate.rows


# -- range and equality estimates (property): the floor meets the ceiling ----


class TestHistogramProperties:
    @given(
        values=st.lists(st.integers(-500, 500), min_size=1, max_size=300),
        bound_a=st.integers(-600, 600),
        bound_b=st.integers(-600, 600),
        include_low=st.booleans(),
        include_high=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_true_count_within_floor_and_ceiling(
        self, values, bound_a, bound_b, include_low, include_high
    ):
        # Live index counts leave no gap between floor and ceiling: the
        # estimate is the true count.
        low, high = min(bound_a, bound_b), max(bound_a, bound_b)
        db = _db(values)
        true = sum(
            1
            for v in values
            if (v > low or (include_low and v == low))
            and (v < high or (include_high and v == high))
        )
        assert _range_rows(db, low, include_low, high, include_high) == true
        db.close()

    @given(values=st.lists(st.integers(-100, 100), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_whole_domain_estimate_is_exact(self, values):
        db = _db(values)
        assert _range_rows(db, None, True, None, True) == len(values)
        db.close()

    def test_equality_average_duplication_and_domain_clamp(self):
        db = _db([1, 1, 2, 2, 3, 3])
        for value, rows in ((2, 2.0), (99, 0.0), (-1, 0.0)):  # 99, -1: off the domain
            plan = db.plan("SELECT i FROM Item i WHERE i.a = %d" % value)
            by_kind = {c.kind: c for c in plan.cost.candidates}
            assert by_kind["index-eq"].rows == rows
            assert plan.cost.estimated_rows == pytest.approx(rows)
        db.close()


# -- oracle parity (property): plan choice never changes results -------------


class TestOracleParity:
    @given(
        values=st.lists(st.integers(0, 30), min_size=1, max_size=60),
        op=st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "in"]),
        constant=st.integers(-2, 32),
        second=st.one_of(st.none(), st.integers(0, 32)),
    )
    @settings(max_examples=60, deadline=None)
    def test_cost_model_plans_match_forced_scan(
        self, values, op, constant, second
    ):
        db = _db(values)
        const = [constant, constant + 3] if op == "in" else constant
        where = Comparison(op, Path(("a",)), Const(const))
        if second is not None:
            where = And([where, Comparison(">=", Path(("a",)), Const(second))])
        query = Query("Item", where=where)
        plan = db.plan(query)
        chosen = db.execute(query)
        # Contradictions may be rewritten away before costing; a single
        # sargable conjunct is costed on its exact match count.
        if plan.cost is not None and second is None:
            assert plan.cost.estimated_rows == pytest.approx(len(chosen.oids))
        forced_plan = db.planner.plan(Query("Item", where=where))
        forced_plan.access = ExtentScan(sorted(forced_plan.scope))
        forced_plan.residual = where
        forced = db._executor.execute(forced_plan)
        assert sorted(chosen.oids) == sorted(forced.oids)
        db.close()


# -- access-path decisions ---------------------------------------------------


class TestCostDecisions:
    def test_selective_equality_probes_the_index(self):
        db = _db(list(range(200)))
        plan = db.plan("SELECT i FROM Item i WHERE i.a = 7")
        assert isinstance(plan.access, IndexEqProbe)
        assert plan.cost.chosen.kind == "index-eq"
        assert len(plan.cost.candidates) == 2

    def test_unselective_equality_prefers_scan_despite_index(self):
        db = _db([5] * 200)  # every row has a = 5
        plan = db.plan("SELECT i FROM Item i WHERE i.a = 5")
        assert isinstance(plan.access, ExtentScan)
        by_kind = {c.kind: c for c in plan.cost.candidates}
        assert by_kind["extent-scan"].total < by_kind["index-eq"].total

    def test_narrow_range_probes_wide_range_scans(self):
        db = _db(list(range(400)))
        narrow = db.plan("SELECT i FROM Item i WHERE i.a >= 395")
        wide = db.plan("SELECT i FROM Item i WHERE i.a >= 5")
        assert isinstance(narrow.access, IndexRangeProbe)
        assert narrow.cost.chosen.rows == 5
        assert isinstance(wide.access, ExtentScan)

    def test_ordered_walk_only_when_limit_is_small(self):
        db = _db(list(range(300)))
        small = db.plan("SELECT i FROM Item i ORDER BY i.a LIMIT 5")
        large = db.plan("SELECT i FROM Item i ORDER BY i.a LIMIT 300")
        assert isinstance(small.access, IndexOrderScan)
        assert isinstance(large.access, ExtentScan)

    def test_no_statistics_costs_on_live_cardinalities(self):
        db = _db(list(range(50)))
        plan = db.plan("SELECT i FROM Item i WHERE i.a = 7")
        # No ANALYZE ever ran: the exact one-row match wins.
        assert isinstance(plan.access, IndexEqProbe)
        assert {c.kind for c in plan.cost.candidates} == {"extent-scan", "index-eq"}
        assert plan.cost.chosen.rows == 1

    def test_missing_class_stat_costs_on_live_cardinalities(self):
        db = _db(list(range(50)))
        db.analyze()
        # A class defined and filled after ANALYZE is costed exactly too.
        db.define_class("Late", attributes=[AttributeDef("a", "Integer")])
        for value in range(120):
            db.new("Late", {"a": value % 60})
        db.create_class_index("Late", "a")
        plan = db.plan("SELECT l FROM Late l WHERE l.a = 7")
        assert isinstance(plan.access, IndexEqProbe)
        assert plan.cost.chosen.rows == 2

    def test_conjunction_uses_independence_product(self):
        db = _db([{"a": i, "b": i % 2} for i in range(100)])
        model = CostModel(db.indexes, db.storage.count_class, db.planner.extent_pages)
        where = And(
            [
                Comparison("=", Path(("a",)), Const(5)),
                Comparison("=", Path(("b",)), Const(1)),
            ]
        )
        decision = model.decide(Query("Item", where=where), {"Item"})
        # sel(a=5) = 1/100; sel(b=1) has no index -> default 0.1.
        assert decision.estimated_rows == pytest.approx(100 * 0.01 * 0.1)

    def test_in_list_costs_the_sum_of_member_counts(self):
        db = _db([i % 10 for i in range(200)])
        plan = db.plan("SELECT i FROM Item i WHERE i.a in (1, 2, 42)")
        by_kind = {c.kind: c for c in plan.cost.candidates}
        assert by_kind["index-in"].rows == 40
        assert plan.cost.estimated_rows == pytest.approx(40)

    def test_hierarchy_scope_sums_every_extent(self):
        db = _db(list(range(30)), index=False)
        db.define_class("Special", superclasses=["Item"])
        for value in range(70):
            db.new("Special", {"a": value})
        db.create_hierarchy_index("Item", "a")
        plan = db.plan("SELECT i FROM Item i WHERE i.a = 3")
        by_kind = {c.kind: c for c in plan.cost.candidates}
        assert by_kind["extent-scan"].rows == 100
        assert by_kind["index-eq"].rows == 2
        assert isinstance(plan.access, IndexEqProbe)

    def test_each_conjunct_looks_its_index_up_once(self):
        db = _db([{"a": i, "b": i % 7} for i in range(100)])
        db.create_class_index("Item", "b")
        calls = []
        find_index = db.indexes.find_index

        def counting(*args, **kwargs):
            calls.append(args[1])
            return find_index(*args, **kwargs)

        db.indexes.find_index = counting
        plan = db.plan("SELECT i FROM Item i WHERE i.a = 5 AND i.b = 3")
        assert isinstance(plan.access, IndexEqProbe)
        assert sorted(calls) == [("a",), ("b",)]
        del calls[:]
        db.plan("SELECT i FROM Item i WHERE i.a < 40 AND i.b in (1, 2)")
        assert sorted(calls) == [("a",), ("b",)]

    def test_zipf_skew_exact_counts_pick_the_right_path(self):
        # 2 000 rows whose keys follow a Zipf law (s = 2 over 1..1000,
        # the i-th row at the (i + 0.5) / 2000 quantile; OCB-style skew):
        # keys <= 5 hold 89 % of the rows, keys >= 20 hold 3 %.  Uniform
        # interpolation over the key span [1, 709] gets both ranges
        # backwards (0.6 % and 97 %); exact counts do not.
        weights = list(itertools.accumulate(1.0 / k ** 2 for k in range(1, 1001)))
        keys = [
            bisect.bisect_left(weights, (i + 0.5) / 2000 * weights[-1]) + 1
            for i in range(2000)
        ]
        db = _db(keys)
        span = max(keys) - min(keys)
        for source, right, interval in (
            ("SELECT i FROM Item i WHERE i.a >= 20", IndexRangeProbe, (20, max(keys))),
            ("SELECT i FROM Item i WHERE i.a <= 5", ExtentScan, (min(keys), 5)),
        ):
            plan = db.plan(source)
            result = db.execute(source)
            assert isinstance(plan.access, right), (source, plan.access.description)
            assert plan.cost.estimated_rows == pytest.approx(result.stats.matched)
            interpolated = 2000 * (interval[1] - interval[0]) / float(span)
            assert abs(interpolated - result.stats.matched) > 1000

    def test_live_version_entries_never_poison_the_cached_plan(self):
        # Regression: a query first planned while version entries were
        # live used to be *cached* as scan(Item) and kept scanning the
        # whole extent after the entries were reclaimed; later it was
        # cached as the probe but *executed* as a 300-row scan while any
        # entry was live.  Now the plan given is the plan run.
        db = _db(list(range(300)))
        source = "SELECT i FROM Item i WHERE i.a = 7"
        held, release = threading.Event(), threading.Event()

        def hold_a_snapshot():
            with db.transaction():
                db.select("Item where a = 0")  # opens the begin snapshot
                held.set()
                release.wait(10)

        holder = threading.Thread(target=hold_a_snapshot)
        holder.start()
        try:
            assert held.wait(10)
            # One committed update while the snapshot is open: its before
            # image stays live (the holder may still need it).
            db.update(db.select("Item where a = 299")[0].oid, {"a": 1000})
            assert db.version_store.entry_count > 0
            assert isinstance(db.plan(source).access, IndexEqProbe)
            result = db.execute(source)
            # Costed, cached and executed as the probe.
            assert isinstance(result.plan.access, IndexEqProbe)
            assert result.stats.index_probes == 1
            assert result.stats.examined == result.stats.matched == 1
            cached = db.plan(source)
            assert cached.cached and isinstance(cached.access, IndexEqProbe)
        finally:
            release.set()
            holder.join()
        # The holder is gone, the entries are reclaimed: same text, probe.
        result = db.execute(source)
        assert isinstance(result.plan.access, IndexEqProbe)
        assert result.stats.index_probes == 1
        assert result.stats.examined == result.stats.matched == 1


# -- ANALYZE drops cached plans ----------------------------------------------


class TestPlanCacheRecost:
    """ANALYZE purges the plan cache: the first lookup after it re-plans
    (re-costs) on the current counts, the second hits the new entry."""

    SOURCE = "SELECT i FROM Item i WHERE i.a = 5"

    def test_reanalyze_replans_at_first_lookup(self):
        db = _db(list(range(100)))
        plan = db.plan(self.SOURCE)
        assert isinstance(plan.access, IndexEqProbe)
        misses = db.metrics.value("query.plan_cache.misses")
        invalidations = db.metrics.value("query.plan_cache.invalidations")
        assert db.analyze() is None
        assert db.metrics.value("query.plan_cache.invalidations") == invalidations + 1
        first = db.plan(self.SOURCE)
        assert not first.cached
        assert db.metrics.value("query.plan_cache.misses") == misses + 1
        again = db.plan(self.SOURCE)
        assert again.cached and again is first
        assert isinstance(again.access, IndexEqProbe)

    def test_flipped_winner_is_invalidated(self):
        db = _db([5] * 100)
        plan = db.plan(self.SOURCE)
        assert isinstance(plan.access, ExtentScan)  # a=5 matches everything
        # Make the column selective, then ANALYZE: the next lookup
        # re-plans and the winner flips to the index probe.
        for position, item in enumerate(db.select("Item")):
            db.update(item.oid, {"a": position})
        db.analyze()
        fresh = db.plan(self.SOURCE)
        assert not fresh.cached
        assert isinstance(fresh.access, IndexEqProbe)
        assert db.execute(self.SOURCE).stats.matched == 1


# -- metrics and EXPLAIN feedback --------------------------------------------


class TestCostObservability:
    def test_query_cost_metric_family(self):
        db = _db(list(range(100)))
        db.execute("SELECT i FROM Item i WHERE i.a = 7")
        assert db.metrics.counter("query.cost.decisions").value == 1
        assert db.metrics.counter("query.cost.candidates").value == 2
        assert db.metrics.counter("query.cost.estimated_rows").value == 1
        assert db.metrics.counter("query.cost.actual_rows").value == 1
        db.create_class_index("Item", "b")
        db.execute("SELECT i FROM Item i WHERE i.a < 10")
        assert db.metrics.counter("query.cost.decisions").value == 2
        assert db.metrics.counter("query.cost.candidates").value == 4
        assert db.metrics.counter("query.cost.estimated_rows").value == 11
        assert db.metrics.counter("query.cost.actual_rows").value == 11
        names = set(db.metrics.names())
        assert not {n for n in names if n.startswith("query.cost.decisions_")}
        assert "query.cost.stale_fallbacks" not in names

    def test_explain_shows_estimated_vs_observed(self):
        db = _db(list(range(80)))
        source = "SELECT i FROM Item i WHERE i.a < 4"
        db.execute(source)
        text = db.explain(source).render()
        assert "-- cost --" in text
        assert "<- chosen" in text
        assert "estimated rows: 4.0" in text
        assert "observed (SysQueryStat" in text
        assert "estimated/observed rows: 1.00x" in text

    def test_explain_cost_section_lists_every_candidate(self):
        db = _db(list(range(10)))
        text = db.explain("SELECT i FROM Item i WHERE i.a = 1").render()
        assert "-- cost --" in text
        assert "candidate scan(Item)" in text
        assert "candidate index-eq(" in text
        assert "model:" not in text and "analyze()" not in text


# -- the plan-quality smoke ----------------------------------------------------


class TestPlanQualitySmoke:
    #: The monitor demo workload (64 Vehicles, weight-indexed): a
    #: selective indexed equality must probe, an unselective range and
    #: an unindexed equality must scan.
    QUERIES = (
        ("SELECT v FROM Vehicle v WHERE v.weight = 910", "index-eq("),
        ("SELECT v FROM Vehicle v WHERE v.weight >= 900", "scan("),
        ("SELECT v FROM Vehicle v WHERE v.color = 'red'", "scan("),
    )

    def test_demo_queries_keep_their_access_paths(self):
        from repro.tools.monitor import build_demo_database

        db = build_demo_database()
        try:
            for source, expected in self.QUERIES:
                explain = db.explain(source)
                assert "-- cost --" in explain.render()
                assert explain.plan.access.description.startswith(expected), source
        finally:
            db.close()
