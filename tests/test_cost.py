"""The statistics-driven cost model (``repro.query.cost``).

Covers the PR-10 optimizer tentpole:

* selectivity estimation — equality via distinct-key counts, ranges via
  the equi-depth histogram with *provable* bounds (hypothesis checks
  ``floor <= true <= ceiling`` on randomized distributions);
* access-path choice — selective probes win, unselective predicates
  fall back to the scan even with an index available, ORDER BY + LIMIT
  walks the index only when the limit is small enough to pay off;
* oracle parity — the cost model may change *plans* but never query
  *results* (hypothesis compares against a forced extent scan);
* the two statistics sources — the same model runs on the ANALYZE
  catalog when it can be trusted and on live cardinalities when there
  is none, it is stale (moved schema version or index epoch, with the
  EXPLAIN warning and the ``stale`` column on SysClassStat /
  SysIndexStat) or it does not cover a scoped class;
* cached plans are always the best access path, and live version
  entries neither poison the cache nor change the plan that runs;
* ANALYZE drops cached plans — the next lookup re-plans under the
  fresh catalog;
* the ``query.cost.*`` metric family and the EXPLAIN ``-- cost --``
  section (estimated vs. SysQueryStat-observed rows);
* the ``python -m repro.tools.analyze --demo --explain`` CI smoke.
"""

import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AttributeDef, Database
from repro.obs.stats import IndexStat, equi_depth_histogram
from repro.query.ast import And, Comparison, Const, Path, Query
from repro.query.cost import (
    CostModel,
    equality_rows,
    range_estimate,
)
from repro.query.planner import (
    ExtentScan,
    IndexEqProbe,
    IndexOrderScan,
    IndexRangeProbe,
)


def _stat_for(values, buckets=8):
    counts = sorted(Counter(values).items())
    boundaries, depths = equi_depth_histogram(counts, buckets)
    return IndexStat(
        "idx",
        "single-class",
        "C",
        "a",
        len(values),
        len(counts),
        boundaries,
        min(values),
        max(values),
        depths=depths,
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


# -- histogram estimates (property) ------------------------------------------


class TestHistogramProperties:
    @given(
        values=st.lists(st.integers(-500, 500), min_size=1, max_size=300),
        buckets=st.integers(2, 16),
        bound_a=st.integers(-600, 600),
        bound_b=st.integers(-600, 600),
        include_low=st.booleans(),
        include_high=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_true_count_within_floor_and_ceiling(
        self, values, buckets, bound_a, bound_b, include_low, include_high
    ):
        low, high = min(bound_a, bound_b), max(bound_a, bound_b)
        stat = _stat_for(values, buckets)
        estimate = range_estimate(stat, low, include_low, high, include_high)
        true = sum(
            1
            for v in values
            if (v > low or (include_low and v == low))
            and (v < high or (include_high and v == high))
        )
        assert estimate.floor - 1e-9 <= true <= estimate.ceiling + 1e-9
        assert estimate.rows == pytest.approx(
            (estimate.floor + estimate.ceiling) / 2.0
        )

    @given(values=st.lists(st.integers(-100, 100), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_whole_domain_estimate_is_exact(self, values):
        stat = _stat_for(values)
        estimate = range_estimate(stat, None, True, None, True)
        assert estimate.floor == estimate.ceiling == len(values)
        assert estimate.rows == len(values)

    def test_equality_average_duplication_and_domain_clamp(self):
        stat = _stat_for([1, 1, 2, 2, 3, 3])
        assert equality_rows(stat, 2) == pytest.approx(2.0)
        assert equality_rows(stat, 99) == 0.0  # above the indexed domain
        assert equality_rows(stat, -1) == 0.0  # below it


# -- oracle parity (property): plan choice never changes results -------------


class TestOracleParity:
    @given(
        values=st.lists(st.integers(0, 30), min_size=1, max_size=60),
        op=st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "in"]),
        constant=st.integers(-2, 32),
        second=st.one_of(st.none(), st.integers(0, 32)),
        catalog=st.sampled_from(["analyzed", "never-analyzed", "stale"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_cost_model_plans_match_forced_scan(
        self, values, op, constant, second, catalog
    ):
        db = _db(values)
        if catalog != "never-analyzed":
            db.analyze()
        if catalog == "stale":
            db.create_class_index("Item", "b")  # moves the index epoch
        const = [constant, constant + 3] if op == "in" else constant
        where = Comparison(op, Path(("a",)), Const(const))
        if second is not None:
            where = And([where, Comparison(">=", Path(("a",)), Const(second))])
        query = Query("Item", where=where)
        plan = db.plan(query)
        # Contradictions may be rewritten away before costing; every
        # query that *does* reach the planner is costed by the one model,
        # from the catalog only when it can be trusted.
        source = "statistics" if catalog == "analyzed" else "live"
        assert plan.cost is None or plan.cost.source == source
        chosen = db.execute(query)
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
        db.analyze()
        plan = db.plan("SELECT i FROM Item i WHERE i.a = 7")
        assert isinstance(plan.access, IndexEqProbe)
        assert plan.cost.source == "statistics"
        assert plan.cost.chosen.kind == "index-eq"
        assert len(plan.cost.candidates) == 2

    def test_unselective_equality_prefers_scan_despite_index(self):
        db = _db([5] * 200)  # every row has a = 5
        db.analyze()
        plan = db.plan("SELECT i FROM Item i WHERE i.a = 5")
        assert isinstance(plan.access, ExtentScan)
        assert plan.cost.source == "statistics"
        by_kind = {c.kind: c for c in plan.cost.candidates}
        assert by_kind["extent-scan"].total < by_kind["index-eq"].total

    def test_narrow_range_probes_wide_range_scans(self):
        db = _db(list(range(400)))
        db.analyze()
        narrow = db.plan("SELECT i FROM Item i WHERE i.a >= 395")
        wide = db.plan("SELECT i FROM Item i WHERE i.a >= 5")
        assert isinstance(narrow.access, IndexRangeProbe)
        assert isinstance(wide.access, ExtentScan)

    def test_ordered_walk_only_when_limit_is_small(self):
        db = _db(list(range(300)))
        db.analyze()
        small = db.plan("SELECT i FROM Item i ORDER BY i.a LIMIT 5")
        large = db.plan("SELECT i FROM Item i ORDER BY i.a LIMIT 300")
        assert isinstance(small.access, IndexOrderScan)
        assert isinstance(large.access, ExtentScan)

    def test_no_statistics_costs_on_live_cardinalities(self):
        db = _db(list(range(50)))
        plan = db.plan("SELECT i FROM Item i WHERE i.a = 7")
        assert plan.cost.source == "live"
        assert "no ANALYZE statistics" in plan.cost.reason
        # Same candidates, same formula: the exact one-row match wins.
        assert isinstance(plan.access, IndexEqProbe)
        assert {c.kind for c in plan.cost.candidates} == {"extent-scan", "index-eq"}
        assert plan.cost.chosen.rows == 1

    def test_missing_class_stat_costs_on_live_cardinalities(self):
        db = _db(list(range(50)))
        db.analyze()
        del db.statistics.class_stats["Item"]
        plan = db.plan("SELECT i FROM Item i WHERE i.a = 7")
        assert plan.cost.source == "live"
        assert "missing from the ANALYZE catalog" in plan.cost.reason
        assert isinstance(plan.access, IndexEqProbe)

    def test_conjunction_uses_independence_product(self):
        db = _db([{"a": i, "b": i % 2} for i in range(100)])
        db.analyze()
        model = CostModel(db.schema, db.indexes, db.statistics)
        where = And(
            [
                Comparison("=", Path(("a",)), Const(5)),
                Comparison("=", Path(("b",)), Const(1)),
            ]
        )
        decision = model.decide(Query("Item", where=where), {"Item"})
        # sel(a=5) = 1/100; sel(b=1) has no index -> default 0.1.
        assert decision.estimated_rows == pytest.approx(100 * 0.01 * 0.1)

    def test_live_version_entries_never_poison_the_cached_plan(self):
        # Regression: a query first planned while version entries were
        # live used to be *cached* as scan(Item) and kept scanning the
        # whole extent after the entries were reclaimed; later it was
        # cached as the probe but *executed* as a 300-row scan while any
        # entry was live.  Now the plan given is the plan run.
        db = _db(list(range(300)))
        db.analyze()
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


# -- staleness ---------------------------------------------------------------


class TestStaleness:
    def test_index_epoch_move_costs_live_with_explain_warning(self):
        db = _db(list(range(100)))
        db.analyze()
        db.create_class_index("Item", "b")  # bumps the index epoch
        explain = db.explain("SELECT i FROM Item i WHERE i.a = 7")
        assert explain.plan.cost.source == "live"
        assert explain.plan.cost.stale_reason is not None
        assert isinstance(explain.plan.access, IndexEqProbe)
        text = explain.render()
        assert "-- cost --" in text
        assert "WARNING: statistics are stale" in text
        assert "index epoch moved" in text

    def test_sysviews_surface_stale_reason(self):
        db = _db(list(range(50)))
        db.analyze()
        fresh = db.select("SysClassStat")
        assert fresh and fresh[0]["stale"] == ""
        db.create_class_index("Item", "b")
        stale_rows = db.select("SysClassStat")
        assert "index epoch moved" in stale_rows[0]["stale"]
        index_rows = db.select("SysIndexStat")
        assert all("index epoch moved" in row["stale"] for row in index_rows)

    def test_reanalyze_clears_staleness(self):
        db = _db(list(range(50)))
        db.analyze()
        db.create_class_index("Item", "b")
        db.analyze()
        plan = db.plan("SELECT i FROM Item i WHERE i.a = 7")
        assert plan.cost.source == "statistics"
        assert db.select("SysClassStat")[0]["stale"] == ""


# -- ANALYZE drops cached plans ----------------------------------------------


class TestPlanCacheRecost:
    """ANALYZE purges the plan cache: the first lookup after it re-plans
    (re-costs) under the new catalog, the second hits the new entry."""

    SOURCE = "SELECT i FROM Item i WHERE i.a = 5"

    def test_reanalyze_replans_at_first_lookup(self):
        db = _db(list(range(100)))
        db.analyze()
        plan = db.plan(self.SOURCE)
        assert isinstance(plan.access, IndexEqProbe)
        misses = db.metrics.value("query.plan_cache.misses")
        invalidations = db.metrics.value("query.plan_cache.invalidations")
        db.analyze()
        assert db.metrics.value("query.plan_cache.invalidations") == invalidations + 1
        first = db.plan(self.SOURCE)
        assert not first.cached
        assert first.cost.source == "statistics"
        assert db.metrics.value("query.plan_cache.misses") == misses + 1
        again = db.plan(self.SOURCE)
        assert again.cached and again is first
        assert isinstance(again.access, IndexEqProbe)

    def test_flipped_winner_is_invalidated(self):
        db = _db([5] * 100)
        db.analyze()
        plan = db.plan(self.SOURCE)
        assert isinstance(plan.access, ExtentScan)  # a=5 matches everything
        # Make the column selective, then re-ANALYZE: the next lookup
        # re-plans and the winner flips to the index probe.
        for position, item in enumerate(db.select("Item")):
            db.update(item.oid, {"a": position})
        db.analyze()
        fresh = db.plan(self.SOURCE)
        assert not fresh.cached
        assert fresh.cost.source == "statistics"
        assert isinstance(fresh.access, IndexEqProbe)
        assert db.execute(self.SOURCE).stats.matched == 1

    def test_sysplancache_reports_cost_source(self):
        db = _db(list(range(50)))
        db.plan("SELECT i FROM Item i WHERE i.a = 6")
        db.analyze()
        db.plan(self.SOURCE)
        rows = db.select("SysPlanCache")
        # ANALYZE dropped the entry planned on live cardinalities.
        assert rows and {row["cost_source"] for row in rows} == {"statistics"}


# -- metrics and EXPLAIN feedback --------------------------------------------


class TestCostObservability:
    def test_query_cost_metric_family(self):
        db = _db(list(range(100)))
        db.execute("SELECT i FROM Item i WHERE i.a = 7")
        assert db.metrics.counter("query.cost.decisions_live").value == 1
        assert db.metrics.counter("query.cost.candidates").value == 2
        db.analyze()
        db.execute("SELECT i FROM Item i WHERE i.a = 8")
        assert db.metrics.counter("query.cost.decisions_statistics").value == 1
        assert db.metrics.counter("query.cost.candidates").value == 4
        assert db.metrics.counter("query.cost.estimated_rows").value == 1
        assert db.metrics.counter("query.cost.actual_rows").value == 1
        db.create_class_index("Item", "b")
        db.execute("SELECT i FROM Item i WHERE i.a = 9")
        assert db.metrics.counter("query.cost.decisions_live").value == 2
        assert db.metrics.counter("query.cost.stale_fallbacks").value == 1

    def test_explain_shows_estimated_vs_observed(self):
        db = _db(list(range(80)))
        db.analyze()
        source = "SELECT i FROM Item i WHERE i.a < 4"
        db.execute(source)
        text = db.explain(source).render()
        assert "-- cost --" in text
        assert "model: statistics" in text
        assert "<- chosen" in text
        assert "observed (SysQueryStat" in text
        assert "estimated/observed rows:" in text

    def test_explain_without_stats_names_the_remedy(self):
        db = _db(list(range(10)))
        text = db.explain("SELECT i FROM Item i WHERE i.a = 1").render()
        assert "-- cost --" in text
        assert "run Database.analyze()" in text


# -- the CI plan-quality smoke ----------------------------------------------


class TestAnalyzeExplainSmoke:
    def test_demo_smoke_passes_and_writes_output(self, tmp_path):
        from repro.tools.analyze import main

        out = tmp_path / "plan-quality.txt"
        assert main(["--demo", "--explain", str(out)]) == 0
        text = out.read_text()
        assert "-- cost --" in text
        assert "model: statistics" in text
        assert "index-eq(" in text

    def test_explain_requires_demo(self, tmp_path):
        from repro.tools.analyze import main

        with pytest.raises(SystemExit):
            main(["--path", str(tmp_path / "x.kim"), "--explain", "out.txt"])
