"""What one query execution pays outside its own work.

The plan cache's extent-scale check reads the object directory's
``scale_stamp`` and recomputes only when it moved; SysOperator's rows are
built from the last user query's finished pipeline when read; and a
cached-plan execution's Python call count is pinned.
"""

import os
import sys

import repro
from repro import AttributeDef, Database
from repro.bench.schemas import build_vehicle_schema, populate_vehicles
from repro.evolution.changes import SchemaEvolution

TEXT = "SELECT t FROM T t WHERE t.x = 1"


def _scaled_db():
    db = Database()
    db.define_class("T", attributes=[AttributeDef("x", "Integer")])
    db.define_class("S", superclasses=("T",))
    db.define_class("U", attributes=[AttributeDef("x", "Integer")])
    return db


def _invalidations(db):
    return db.metrics.value("query.plan_cache.invalidations")


class TestScaleStamp:
    def test_stamp_moves_when_a_count_changes_bit_length(self):
        db = _scaled_db()
        directory = db.storage.directory
        stamps = []
        oids = []
        for x in range(5):
            oids.append(db.new("T", {"x": x}).oid)
            stamps.append(directory.scale_stamp)
        # Counts 1..5: bit length grows at 1, 2 and 4.
        assert stamps == [1, 2, 2, 3, 3]
        db.delete(oids.pop())  # 5 -> 4: same bit length
        assert directory.scale_stamp == 3
        db.delete(oids.pop())  # 4 -> 3: one bit shorter
        assert directory.scale_stamp == 4

    def test_cached_text_dropped_exactly_when_a_scoped_extent_crosses(self):
        """The same script drops the text at the same steps (4 in all)
        as the per-hit recomputation the stamp replaced."""
        db = _scaled_db()
        evo = SchemaEvolution(db)
        ts = [db.new("T", {"x": x}).oid for x in (1, 2, 3)]
        s_first = db.new("S", {"x": 1}).oid
        us = [db.new("U", {"x": 0}).oid]
        assert db.plan(TEXT).scope and sorted(db.plan(TEXT).scope) == ["S", "T"]
        db.execute(TEXT)
        steps = [
            ("insert T: 3 -> 4", lambda: ts.append(db.new("T", {"x": 4}).oid), True),
            ("insert T: 4 -> 5", lambda: ts.append(db.new("T", {"x": 5}).oid), False),
            (
                "insert U (out of scope): 1 -> 4",
                lambda: us.extend(db.new("U", {"x": 0}).oid for _ in range(3)),
                False,
            ),
            ("delete T: 5 -> 4", lambda: db.delete(ts.pop()), False),
            ("delete T: 4 -> 3", lambda: db.delete(ts.pop()), True),
            ("migrate T -> U: T 3 -> 2", lambda: evo.migrate_instance(ts.pop(), "U"), False),
            ("migrate U -> S: S 1 -> 2", lambda: evo.migrate_instance(us.pop(), "S"), True),
            ("migrate S -> T: S 2 -> 1", lambda: evo.migrate_instance(s_first, "T"), True),
        ]
        before = _invalidations(db)
        for label, step, dropped in steps:
            moved = _invalidations(db)
            step()
            result = db.execute(TEXT)
            assert result.plan.cached, label
            assert _invalidations(db) - moved == int(dropped), label
        assert _invalidations(db) - before == 4


def _operator_names(db):
    return [stats["op"] for stats in db.last_operator_stats]


class TestLazyOperatorStats:
    def test_system_view_query_leaves_the_user_query_stats(self):
        db = _scaled_db()
        for x in range(20):
            db.new("T", {"x": x})
        assert db.last_operator_stats is None
        db.execute("SELECT t FROM T t WHERE t.x < 5 ORDER BY t.x LIMIT 3")
        user = db.last_operator_stats
        assert user[-1]["op"] == "limit" and user[-1]["rows_out"] == 3
        rows = db.select("SysOperator")
        assert [row["op"] for row in rows] == [stats["op"] for stats in user]
        assert [row["rows_out"] for row in rows] == [s["rows_out"] for s in user]
        assert db.last_operator_stats == user

    def test_closed_stream_publishes_its_operators(self):
        db = _scaled_db()
        for x in range(20):
            db.new("T", {"x": x})
        db.execute("SELECT t FROM T t ORDER BY t.x LIMIT 2")
        stream = db.select_iter("SELECT t FROM T t WHERE t.x >= 10")
        next(stream)
        assert _operator_names(db)[-1] == "limit"  # open: not finished yet
        stream.close()
        stats = db.last_operator_stats
        assert "limit" not in _operator_names(db)
        assert stats[-1]["rows_out"] >= 1
        db.select("SysQueryStat")
        assert db.last_operator_stats == stats
        rows = db.select("SysOperator")
        assert [row["rows_out"] for row in rows] == [s["rows_out"] for s in stats]


def _calls_of_one_cached_execution(db, text):
    """``sys.setprofile`` "call" events of one execution: (into
    ``src/repro``, every other Python call)."""
    package = os.path.dirname(repro.__file__)
    counts = [0, 0]

    def profile(frame, event, _arg):
        if event == "call":
            counts[0 if frame.f_code.co_filename.startswith(package) else 1] += 1

    sys.setprofile(profile)
    try:
        db.execute(text)
    finally:
        sys.setprofile(None)
    return tuple(counts)


def test_a_cached_point_query_makes_a_bounded_number_of_calls():
    """Fixed-cost guard, in calls, not time: a plan-cache hit on an
    indexed equality over the Figure 1 hierarchy (4 classes in scope)
    that finds no row.  Before the scopes became slotted objects, GC
    returned early on empty chains, operator stats were built on read
    and the scale check read a stamp, it made 157 calls into
    ``src/repro`` and 13 others (``contextlib`` machinery and the
    generated filter); now 136 and 1."""
    db = Database()
    build_vehicle_schema(db)
    populate_vehicles(db, 200)
    db.create_hierarchy_index("Vehicle", "weight")
    text = "SELECT v FROM Vehicle v WHERE v.weight = 7888"
    db.execute(text)
    db.execute(text)
    assert db.execute(text).plan.cached
    engine, other = _calls_of_one_cached_execution(db, text)
    assert engine <= 136, engine
    assert other <= 1, other
