"""Soundness of the static rewrite pass and the plan cache.

The rewrite is only allowed to make queries *cheaper*, never *different*:
every test here checks the transformation against an independent oracle —
the same query planned and executed with the rewrite pass bypassed
entirely (``db.planner.plan`` on the raw parsed AST, no analysis facts,
no cache).  The two pillars:

* **idempotence** — rewriting an already-rewritten query changes nothing
  (same normalized structure, same fingerprint), so the normal form is a
  real fixed point and the plan-cache fingerprint is stable;
* **result parity** — across fixture schemas (inheritance hierarchies,
  aggregation-path predicates, None-valued attributes) the rewritten
  query returns exactly the rows the unrewritten one does.

Plus the PR's acceptance claims: a provably-contradictory WHERE executes
with zero storage reads and zero lock acquisitions, and a repeated hot
query deterministically hits the plan cache with identical results.
"""

import pytest

from repro.analysis.rewrite import rewrite_query
from repro.query.ast import structural_key
from repro.query.parser import parse_query
from repro.query.planner import EmptyScan


#: Queries over the Figure 1 vehicle fixture exercising every rule:
#: constant folding, NOT-pushdown/De Morgan, CNF, canonical ordering,
#: tautology and implied-conjunct elimination, sargable-range fusion,
#: IN normalization, and path predicates over the aggregation hierarchy.
VEHICLE_QUERIES = [
    "SELECT v FROM Vehicle v WHERE v.weight > 10 AND v.weight < 5",
    "SELECT v FROM Vehicle v WHERE v.color = 'red' OR NOT (v.color = 'red')",
    "SELECT v FROM Vehicle v WHERE NOT (v.weight > 5000 AND v.color = 'red')",
    "SELECT v FROM Vehicle v WHERE NOT (v.weight > 5000 OR v.color = 'red')",
    "SELECT v FROM Vehicle v WHERE v.weight > 5 AND v.weight > 10",
    "SELECT v FROM Vehicle v WHERE v.weight > 3000 AND v.weight <= 9000",
    "SELECT v FROM Vehicle v WHERE v.color IN ('red', 'blue', 'red')",
    "SELECT v FROM Vehicle v WHERE v.color IN ('red')",
    "SELECT v FROM Vehicle v WHERE v.color LIKE 'r*'",
    "SELECT v FROM Vehicle v WHERE v.weight < 2000 OR v.weight > 9000",
    "SELECT v FROM Vehicle v WHERE NOT NOT (v.weight > 4000)",
    "SELECT v FROM Vehicle v "
    "WHERE v.manufacturer.location = 'Detroit' AND v.weight > 7500",
    "SELECT v FROM Vehicle v WHERE NOT (v.manufacturer.location = 'Detroit')",
    "SELECT v FROM Vehicle v WHERE v.manufacturer.location = 'Detroit' "
    "AND (v.color = 'red' OR v.weight > 6000)",
    "SELECT t FROM Truck t WHERE t.weight > 4000 AND t.weight > 4000",
]

SHAPE_QUERIES = [
    "SELECT s FROM Shape s WHERE s.name != 'r1'",
    "SELECT s FROM Shape s WHERE s.name = 'r1' OR s.name != 'r1'",
    "SELECT r FROM RectangleShape r WHERE r.width > 2 AND r.width > 1",
    "SELECT r FROM RectangleShape r WHERE r.width >= 3 AND r.width <= 2",
    "SELECT s FROM Square s WHERE NOT (s.width < 3)",
]


def _populate_shapes(shape_db):
    shape_db.new("Shape", {"name": "plain"})
    for i in range(6):
        shape_db.new(
            "RectangleShape", {"name": "r%d" % i, "width": i + 1, "height": 2}
        )
    for i in range(4):
        shape_db.new(
            "Square", {"name": "sq%d" % i, "width": i + 2, "height": i + 2}
        )
    return shape_db


def oracle_oids(db, text):
    """Execute ``text`` with the rewrite pass bypassed entirely."""
    query = parse_query(text)
    plan = db.planner.plan(query)
    result = db._executor.execute(plan)
    return sorted(result.oids)


def rewritten_oids(db, text):
    return sorted(db.execute(text).oids)


class TestIdempotence:
    @pytest.mark.parametrize("text", VEHICLE_QUERIES)
    def test_rewrite_twice_is_rewrite_once(self, populated_db, text):
        schema = populated_db.schema
        first = rewrite_query(schema, parse_query(text))
        second = rewrite_query(schema, first.query)
        assert structural_key(second.query.where) == structural_key(
            first.query.where
        )
        assert second.fingerprint == first.fingerprint
        assert not second.changed

    @pytest.mark.parametrize("text", SHAPE_QUERIES)
    def test_rewrite_twice_is_rewrite_once_shapes(self, shape_db, text):
        schema = shape_db.schema
        first = rewrite_query(schema, parse_query(text))
        second = rewrite_query(schema, first.query)
        assert second.fingerprint == first.fingerprint
        assert not second.changed

    def test_commuted_operands_share_a_fingerprint(self, populated_db):
        schema = populated_db.schema
        a = rewrite_query(
            schema,
            parse_query(
                "SELECT v FROM Vehicle v WHERE v.weight > 5000 AND v.color = 'red'"
            ),
        )
        b = rewrite_query(
            schema,
            parse_query(
                "SELECT v FROM Vehicle v WHERE v.color = 'red' AND v.weight > 5000"
            ),
        )
        assert a.fingerprint == b.fingerprint


class TestResultParity:
    @pytest.mark.parametrize("text", VEHICLE_QUERIES)
    def test_vehicle_parity(self, populated_db, text):
        assert rewritten_oids(populated_db, text) == oracle_oids(
            populated_db, text
        )

    @pytest.mark.parametrize("text", VEHICLE_QUERIES)
    def test_vehicle_parity_with_indexes(self, populated_db, text):
        # Same battery with index-range probes on the table: the facts
        # the rewrite hands the planner must not change the answer.
        populated_db.create_hierarchy_index("Vehicle", "weight")
        populated_db.create_hierarchy_index("Vehicle", "color")
        assert rewritten_oids(populated_db, text) == oracle_oids(
            populated_db, text
        )

    @pytest.mark.parametrize("text", SHAPE_QUERIES)
    def test_shape_parity(self, shape_db, text):
        _populate_shapes(shape_db)
        assert rewritten_oids(shape_db, text) == oracle_oids(shape_db, text)

    def test_tautology_folds_to_full_extent(self, populated_db):
        text = "SELECT v FROM Vehicle v WHERE v.color = 'red' OR NOT (v.color = 'red')"
        plan = populated_db.plan(text)
        assert plan.query.where is None  # the whole clause was eliminated
        assert len(rewritten_oids(populated_db, text)) == populated_db.count(
            "Vehicle"
        )


class TestContradictionShortCircuit:
    CONTRADICTION = "SELECT v FROM Vehicle v WHERE v.weight > 10 AND v.weight < 5"

    def test_zero_storage_reads_and_zero_locks(self, populated_db):
        db = populated_db
        plan = db.plan(self.CONTRADICTION)
        assert isinstance(plan.access, EmptyScan)
        db.metrics.reset("buffer.")
        db.metrics.reset("pager.")
        with db.transaction():
            locks_before = db.metrics.value("locks.acquisitions")
            result = db.execute(self.CONTRADICTION)
            locks_after = db.metrics.value("locks.acquisitions")
        assert list(result.oids) == []
        assert result.stats.examined == 0
        assert result.stats.index_probes == 0
        # Zero locks: the EmptyScan path skips the class scan locks an
        # ordinary query takes under an explicit transaction.
        assert locks_after - locks_before == 0
        snap = db.metrics.snapshot()
        assert snap["buffer.hits"] == 0 and snap["buffer.faults"] == 0
        assert snap["pager.reads"] == 0

    def test_sysstat_and_wait_events_confirm_no_lock_traffic(self, populated_db):
        db = populated_db

        def stat(name):
            rows = db.select("SysStat where name = '%s'" % name)
            return rows[0]["value"] if rows else 0

        lock_waits = stat("locks.waits")
        acquisitions = stat("locks.acquisitions")
        wait_rows = len(db.select("SysWaitEvent where kind = 'Lock'"))
        with db.transaction():
            db.execute(self.CONTRADICTION)
        assert stat("locks.waits") == lock_waits
        assert stat("locks.acquisitions") == acquisitions
        assert len(db.select("SysWaitEvent where kind = 'Lock'")) == wait_rows

    def test_rew001_diagnostic_reported(self, populated_db):
        report = populated_db.check(self.CONTRADICTION)
        assert report.ok  # informational, not an error
        assert "REW001" in report.codes()


class TestPlanCache:
    HOT = "SELECT v FROM Vehicle v WHERE v.color = 'red' ORDER BY v.weight"

    def test_second_execution_is_deterministic_hit(self, populated_db):
        db = populated_db
        first = [h for h in db.execute(self.HOT).oids]
        hits0 = db.metrics.snapshot()["query.plan_cache.hits"]
        parses0 = db.metrics.snapshot()["query.parses"]
        second = [h for h in db.execute(self.HOT).oids]
        snap = db.metrics.snapshot()
        assert second == first
        assert snap["query.plan_cache.hits"] == hits0 + 1
        assert snap["query.parses"] == parses0  # source fast path: no parse
        assert db.plan(self.HOT).cached

    def test_schema_evolution_purges_cache(self, populated_db):
        from repro.core.attribute import AttributeDef
        from repro.evolution.changes import SchemaEvolution

        db = populated_db
        before = rewritten_oids(db, self.HOT)
        inv0 = db.metrics.snapshot()["query.plan_cache.invalidations"]
        SchemaEvolution(db).add_attribute(
            "Vehicle", AttributeDef("note", "String", default="")
        )
        assert len(db.plan_cache) == 0
        assert db.metrics.snapshot()["query.plan_cache.invalidations"] > inv0
        assert rewritten_oids(db, self.HOT) == before

    def test_index_epoch_invalidates_stale_plan(self, populated_db):
        db = populated_db
        db.execute(self.HOT)  # cached with a full-scan access path
        db.create_hierarchy_index("Vehicle", "color")
        plan = db.plan(self.HOT)
        assert "index" in plan.access.description
        assert rewritten_oids(db, self.HOT) == oracle_oids(db, self.HOT)

    def test_sysplancache_view_lists_entries(self, populated_db):
        db = populated_db
        db.execute(self.HOT)
        db.execute(self.HOT)
        rows = db.select("SysPlanCache where target = 'Vehicle'")
        assert rows
        hot = [r for r in rows if r["source"] == self.HOT]
        assert hot and hot[0]["hits"] >= 1

    def test_explain_shows_rewrite_section_and_cache_hit(self, populated_db):
        db = populated_db
        text = "SELECT v FROM Vehicle v WHERE v.weight > 5 AND v.weight > 10"
        rendered = db.explain(text).render()
        assert "-- rewrite --" in rendered
        assert "implied-conjunct" in rendered
        rendered2 = db.explain(text).render()
        assert "plan cache: hit" in rendered2
