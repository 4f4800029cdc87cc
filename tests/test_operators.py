"""The physical operator pipeline: protocol, top-K, early termination."""

import threading
from collections import Counter

import pytest

from repro import AttributeDef, Database
from repro.core.obj import ObjectState
from repro.index.attribute import AttributeIndex
from repro.bench.schemas import FIG1_QUERY, build_vehicle_schema, populate_vehicles
from repro.errors import QueryError
from repro.query.ast import Comparison, Const, Path
from repro.query.operators import FilterOp, LimitOp, PhysicalOperator
from repro.query.planner import (
    ExtentScan,
    IndexEqProbe,
    IndexOrderScan,
    IndexRangeProbe,
)
from repro.storage import manager as manager_module


class CountingSource(PhysicalOperator):
    """Leaf emitting 1..n, tracking pulls and close calls."""

    name = "counting"

    def __init__(self, n):
        super().__init__()
        self.n = n
        self.closes = 0
        self.asked = []
        self._emitted = 0

    def _next_batch(self, n):
        self.asked.append(n)
        batch = list(range(self._emitted + 1, min(self.n, self._emitted + n) + 1))
        self._emitted += len(batch)
        return batch

    def _on_close(self):
        self.closes += 1


class TestIteratorProtocol:
    def test_open_next_close_counts_rows(self):
        source = CountingSource(3)
        source.open()
        assert [source.next() for _ in range(4)] == [1, 2, 3, None]
        assert source.rows_out == 3
        source.close()
        assert source.closes == 1

    def test_elapsed_only_advances_when_timed(self):
        source = CountingSource(5)
        source.open()
        list(source.rows())
        assert source.elapsed == 0.0
        source.close()
        timed = CountingSource(5)
        timed.set_timed()
        timed.open()
        list(timed.rows())
        assert timed.elapsed > 0.0
        timed.close()

    def test_limit_stops_pulling_and_closes_subtree(self):
        source = CountingSource(100)
        limit = LimitOp(source, 5)
        limit.open()
        rows = list(limit.rows())
        assert rows == [1, 2, 3, 4, 5]
        # The 6th pull was never made: the quota check closed the
        # subtree before asking the child for another row.
        assert source.rows_out == 5
        assert source.closes >= 1
        limit.close()  # idempotent after the early close
        assert limit.rows_out == 5

    def test_limit_on_short_input(self):
        source = CountingSource(2)
        limit = LimitOp(source, 5)
        limit.open()
        assert list(limit.rows()) == [1, 2]
        limit.close()

    def test_limit_over_filter_never_pulls_past_its_quota(self):
        class EvenKernel:
            def row_class(self, row):
                return None

            def filter(self, expr):
                return lambda rows: [n for n in rows if n % 2 == 0]

        source = CountingSource(100)
        where = Comparison("=", Path(("n",)), Const(0))
        limit = LimitOp(FilterOp(source, EvenKernel(), None, where), 5)
        limit.open()
        assert list(limit.rows()) == [2, 4, 6, 8, 10]
        limit.close()
        # Row-at-a-time would have pulled 1..10: the 10th row completed
        # the quota.  Each request asked only for the rows still missing.
        assert source.rows_out == 10
        assert max(source.asked) <= 5
        assert limit.child.rows_out == 5


class TestCounterPins:
    """``examined`` / ``matched`` / ``index_probes`` (and the snapshot
    reads behind them) per query, pinned at their row-at-a-time values:
    batches never change how much work a plan does."""

    CASES = [
        (
            "SELECT v FROM Vehicle v ORDER BY v.weight LIMIT 10",
            IndexOrderScan,
            (10, 10, 1, 10),
        ),
        (
            "SELECT v FROM Vehicle v ORDER BY v.weight DESC LIMIT 10",
            IndexOrderScan,
            (10, 10, 1, 10),
        ),
        (
            "SELECT v FROM Vehicle v WHERE v.color = 'red' ORDER BY v.weight LIMIT 7",
            IndexOrderScan,
            (28, 7, 1, 28),
        ),
        (
            "SELECT v FROM Vehicle v WHERE v.color = 'red' ORDER BY v.weight DESC LIMIT 7",
            IndexOrderScan,
            (18, 7, 1, 18),
        ),
        (
            "SELECT v FROM Vehicle v WHERE v.color = 'red' LIMIT 5",
            ExtentScan,
            (600, 150, 0, 600),
        ),
        (
            "SELECT v FROM Vehicle v WHERE v.weight >= 5000 AND v.weight < 5400",
            IndexRangeProbe,
            (24, 24, 1, 24),
        ),
        ("SELECT v FROM Vehicle v WHERE v.weight = 2486", IndexEqProbe, (2, 2, 1, 2)),
        # Every candidate's manufacturer is read through the snapshot:
        # each deref counts one snapshot read, object-buffer hit or not.
        (FIG1_QUERY, IndexRangeProbe, (257, 64, 1, 514)),
    ]

    @pytest.fixture(scope="class")
    def pinned_db(self):
        database = Database()
        build_vehicle_schema(database)
        populate_vehicles(database, n_vehicles=600, n_companies=12, seed=7)
        database.create_hierarchy_index("Vehicle", "weight")
        return database

    @pytest.mark.parametrize("text,access,counters", CASES)
    def test_execute_and_stream_do_the_pinned_work(self, pinned_db, text, access, counters):
        db = pinned_db
        names = ("query.rows_examined", "query.rows_matched", "query.index_probes",
                 "txn.snapshot.reads")

        def work(run):
            before = [db.metrics.value(name) for name in names]
            run(text)
            return tuple(db.metrics.value(name) - b for name, b in zip(names, before))

        result = db.execute(text)
        assert isinstance(result.plan.access, access)
        assert (
            result.stats.examined, result.stats.matched, result.stats.index_probes
        ) == counters[:3]
        assert work(db.execute) == counters
        assert work(lambda q: list(db.select_iter(q))) == counters


def test_fig1_decodes_each_company_at_most_twice_across_executions(monkeypatch):
    """~400 ``manufacturer`` steps over 20 companies per execution: the
    execution's path memo dereferences each company once, so a company
    decodes on the first execution's read (which leaves a marker) and
    the second's (which buffers it), and the object buffer serves every
    later execution."""
    db = Database()
    build_vehicle_schema(db)
    populate_vehicles(db, n_vehicles=1000, n_companies=20, seed=1990)
    decoded = []
    real_decode = manager_module.decode_object
    monkeypatch.setattr(
        manager_module, "decode_object", lambda data: decoded.append(real_decode(data)) or decoded[-1]
    )
    companies = []
    for _ in range(3):
        del decoded[:]
        result = db.execute(FIG1_QUERY)
        companies.append(Counter(s.oid for s in decoded if "Company" in s.class_name))
    assert isinstance(result.plan.access, ExtentScan) and result.oids
    assert len(companies[0]) == 20 and set(companies[0].values()) == {1}
    assert companies[1] == companies[0] and companies[2] == Counter()


class TestTopKParity:
    """ORDER BY ... LIMIT k must equal the full sort's first k rows."""

    CASES = [
        (order, desc, where, k)
        for order in ("v.weight", "v.manufacturer.name")
        for desc in (False, True)
        for where in ("", "WHERE v.weight > 7500 ")
        for k in (1, 7, 50, 200, 999)
    ]

    @pytest.mark.parametrize("order,desc,where,k", CASES)
    def test_limit_matches_full_sort_prefix(self, populated_db, order, desc, where, k):
        direction = " DESC" if desc else ""
        base = "SELECT v FROM Vehicle v %sORDER BY %s%s" % (where, order, direction)
        full = populated_db.execute(base)
        limited = populated_db.execute("%s LIMIT %d" % (base, k))
        assert limited.oids == full.oids[:k]

    def test_limit_without_order_matches_oid_prefix(self, populated_db):
        full = populated_db.execute("SELECT v FROM Vehicle v")
        limited = populated_db.execute("SELECT v FROM Vehicle v LIMIT 9")
        assert limited.oids == full.oids[:9]


@pytest.fixture(scope="module")
def big_indexed_db():
    """E1 vehicle fixture at N=5000 with a hierarchy index on weight."""
    database = Database()
    build_vehicle_schema(database)
    populate_vehicles(database, n_vehicles=5000, n_companies=25, seed=1990)
    database.create_hierarchy_index("Vehicle", "weight")
    return database


class TestOrderedIndexScan:
    """The acceptance scenario: ORDER BY + LIMIT stops the walk early."""

    QUERY = "SELECT v FROM Vehicle v ORDER BY v.weight LIMIT 10"

    def test_planner_chooses_index_order_scan(self, big_indexed_db):
        plan = big_indexed_db.plan(self.QUERY)
        assert isinstance(plan.access, IndexOrderScan)
        assert any("ordered index scan" in note for note in plan.notes)
        # Without a LIMIT there is nothing to terminate early; the
        # planner sticks to scan + sort.
        unlimited = big_indexed_db.plan("SELECT v FROM Vehicle v ORDER BY v.weight")
        assert isinstance(unlimited.access, ExtentScan)

    def test_results_match_full_sort(self, big_indexed_db):
        n = big_indexed_db.count("Vehicle")
        assert n >= 5000
        full = big_indexed_db.execute("SELECT v FROM Vehicle v ORDER BY v.weight")
        limited = big_indexed_db.execute(self.QUERY)
        assert limited.oids == full.oids[:10]

    def test_desc_results_match_full_sort(self, big_indexed_db):
        full = big_indexed_db.execute(
            "SELECT v FROM Vehicle v ORDER BY v.weight DESC"
        )
        limited = big_indexed_db.execute(
            "SELECT v FROM Vehicle v ORDER BY v.weight DESC LIMIT 10"
        )
        assert limited.oids == full.oids[:10]

    def test_examined_stays_below_extent_size(self, big_indexed_db):
        n = big_indexed_db.count("Vehicle")
        result = big_indexed_db.execute(self.QUERY)
        assert len(result.oids) == 10
        # The deref stage fed by the ordered walk stopped after the
        # LIMIT was satisfied — nowhere near the full extent.
        assert result.stats.examined < n
        assert result.stats.examined <= 20
        assert result.pipeline.source.rows_out == result.stats.examined

    def test_explain_analyze_reports_live_counters(self, big_indexed_db):
        n = big_indexed_db.count("Vehicle")
        explained = big_indexed_db.explain(self.QUERY)
        access = explained.root.find("index-order-scan")
        assert access is not None
        assert access.meta["access"] == "index-order"
        assert access.actual_rows < n
        assert access.actual_rows == explained.result.pipeline.source.rows_out
        limit = explained.root.find("limit")
        assert limit is not None and limit.actual_rows == 10
        assert explained.root.actual_seconds > 0
        assert "index-order-scan" in str(explained)

    def test_with_predicate_reexamines_until_quota(self, big_indexed_db):
        n = big_indexed_db.count("Vehicle")
        query = (
            "SELECT v FROM Vehicle v WHERE v.weight > 2000 "
            "ORDER BY v.weight LIMIT 10"
        )
        plan = big_indexed_db.plan(query)
        assert isinstance(plan.access, IndexOrderScan)
        full = big_indexed_db.execute(
            "SELECT v FROM Vehicle v WHERE v.weight > 2000 ORDER BY v.weight"
        )
        limited = big_indexed_db.execute(query)
        assert limited.oids == full.oids[:10]
        assert limited.stats.examined < n


class TestSelectIter:
    def test_streams_same_handles_as_select(self, populated_db):
        query = "SELECT v FROM Vehicle v WHERE v.weight > 7500"
        streamed = [h.oid for h in populated_db.select_iter(query)]
        assert streamed == populated_db.execute(query).oids

    def test_streaming_order_by_limit(self, big_indexed_db):
        query = "SELECT v FROM Vehicle v ORDER BY v.weight LIMIT 5"
        streamed = [h.oid for h in big_indexed_db.select_iter(query)]
        assert streamed == big_indexed_db.execute(query).oids

    def test_abandoning_the_iterator_is_clean(self, big_indexed_db):
        iterator = big_indexed_db.select_iter(
            "SELECT v FROM Vehicle v ORDER BY v.weight"
        )
        first = next(iterator)
        assert first.oid is not None
        iterator.close()  # generator close propagates to pipeline close

    def test_mid_stream_close_releases_snapshot_and_operators(self, populated_db):
        locks_before = populated_db.metrics.value("locks.acquisitions")
        stream = populated_db.select_iter("SELECT v FROM Vehicle v")
        next(stream)
        next(stream)
        # Snapshot reads: the stream runs lock-free against its begin
        # snapshot — no transaction, no scan locks, one live snapshot.
        assert populated_db.metrics.value("locks.acquisitions") == locks_before
        assert populated_db.txns.active_transactions() == []
        assert populated_db.version_store.live_snapshots()
        stream.close()
        assert stream.closed
        # Snapshot gone (GC horizon advanced), leaf scan operator closed.
        assert populated_db.version_store.live_snapshots() == []
        assert stream._pipeline.source._iter is None
        with pytest.raises(StopIteration):
            next(stream)
        stream.close()  # idempotent

    def test_mid_stream_close_under_explicit_txn_keeps_txn(self, populated_db):
        with populated_db.txns.begin() as txn:
            stream = populated_db.select_iter("SELECT v FROM Vehicle v")
            next(stream)
            stream.close()
            # The caller's transaction owns the stream's snapshot and
            # survives the stream; only commit/abort closes it.
            assert txn.is_active
            assert txn.snapshot is not None
            assert populated_db.version_store.live_snapshots()
        assert populated_db.version_store.live_snapshots() == []
        assert populated_db.locks.held_snapshot() == []

    def test_exhausted_stream_self_closes(self, populated_db):
        stream = populated_db.select_iter("Vehicle where weight > 7500")
        for _handle in stream:
            pass
        assert populated_db.txns.active_transactions() == []
        assert populated_db.locks.held_snapshot() == []
        assert populated_db.version_store.live_snapshots() == []

    def test_stream_and_execute_cost_the_same_in_telemetry(self, populated_db):
        """D4: one finish — a drained stream moves every query.* counter
        (and the latency histogram's count) exactly as execute() does."""
        db = populated_db
        db.create_class_index("Vehicle", "weight")
        names = (
            "query.executes", "query.rows", "query.rows_examined",
            "query.rows_matched", "query.index_probes",
        )

        def moved(run, text):
            before = [db.metrics.counter(name).value for name in names]
            timed = db.metrics.histogram("query.seconds").count
            run(text)
            after = [db.metrics.counter(name).value for name in names]
            delta = [b - a for a, b in zip(before, after)]
            return delta + [db.metrics.histogram("query.seconds").count - timed]

        for text in (
            "SELECT v FROM Vehicle v",
            "Vehicle where weight = 7500",
            "SELECT v FROM Vehicle v ORDER BY v.weight LIMIT 3",
        ):
            drained = moved(lambda q: list(db.select_iter(q)), text)
            assert drained == moved(db.execute, text), text
            assert drained[0] == 1 and drained[2] > 0 and drained[5] == 1, text
        assert db.last_operator_stats[-1]["op"] == "limit"

    def test_rejects_aggregates_and_projections(self, populated_db):
        with pytest.raises(QueryError):
            list(populated_db.select_iter("SELECT COUNT(v) FROM Vehicle v"))
        with pytest.raises(QueryError):
            list(populated_db.select_iter("SELECT v.weight FROM Vehicle v"))


class TestPipelineCounters:
    def test_operator_stats_expose_each_stage(self, populated_db):
        result = populated_db.execute(
            "SELECT v FROM Vehicle v WHERE v.weight > 7500 ORDER BY v.weight LIMIT 3"
        )
        stats = result.operator_stats()
        ops = [entry["op"] for entry in stats]
        assert ops == ["extent-scan", "filter", "sort", "limit"]
        by_op = {entry["op"]: entry for entry in stats}
        assert by_op["extent-scan"]["rows_out"] == result.stats.examined
        assert by_op["filter"]["rows_out"] == result.stats.matched
        assert by_op["limit"]["rows_out"] == 3

    def test_projection_streams_with_oids_aligned(self, populated_db):
        result = populated_db.execute(
            "SELECT v.weight FROM Vehicle v WHERE v.weight > 7500 LIMIT 4"
        )
        assert len(result.oids) == len(result.rows) == 4
        for oid, row in zip(result.oids, result.rows):
            state = populated_db.get(oid)
            assert row["weight"] == state["weight"]


class TestScopeTest:
    """The filter tests a row's class against the plan's scope for rows
    from index probes and index-order walks only: an extent scan reads
    exactly the scope's extents, each yielding its own class's rows."""

    @staticmethod
    def _db():
        database = Database()
        database.define_class("Item", attributes=[AttributeDef("w", "Integer"),
                                                  AttributeDef("tag", "Integer")])
        database.define_class("Sub", superclasses=["Item"])
        database.define_class(
            "OddItem", superclasses=["Item"], attributes=[AttributeDef("tag", "Boolean")]
        )
        for cls, tag in (("Item", 1), ("Sub", 2), ("OddItem", True)):
            for w in range(20):  # one w = 5 per class: probing beats scanning
                database.new(cls, {"w": w, "tag": tag})
        database.create_hierarchy_index("Item", "w")
        return database

    @staticmethod
    def _in_thread(fn):
        """Run ``fn`` as another transaction: on a thread of its own."""
        errors = []

        def run():
            try:
                fn()
            except Exception as exc:  # surfaced below
                errors.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive() and not errors, errors

    @staticmethod
    def _classes(db, result):
        return Counter(db.get_state(oid).class_name for oid in result.oids)

    @pytest.fixture
    def unscoped_probes(self, monkeypatch):
        """Hierarchy-index probes that hand back every class's candidates."""
        real = AttributeIndex.lookup_eq
        monkeypatch.setattr(
            AttributeIndex, "lookup_eq", lambda index, value, scope=None: real(index, value)
        )

    def test_probe_candidates_outside_an_only_scope_are_dropped(self, unscoped_probes):
        db = self._db()
        result = db.execute("SELECT i FROM ONLY Item i WHERE i.w = 5")
        assert isinstance(result.plan.access, IndexEqProbe)
        assert result.pipeline.filter.scope == {"Item"}
        assert self._classes(db, result) == {"Item": 1}

    def test_probe_candidates_of_a_class_pruned_by_analysis_are_dropped(self, unscoped_probes):
        db = self._db()
        text = "SELECT i FROM Item i WHERE i.w = 5 AND i.tag >= 0"
        assert db.check(text).pruned_classes == ["OddItem"]
        result = db.execute(text)
        assert isinstance(result.plan.access, IndexEqProbe)
        assert result.pipeline.source.rows_out == 3  # OddItem's reaches the filter
        assert self._classes(db, result) == {"Item": 1, "Sub": 1}

    def test_a_snapshot_probe_drops_an_object_it_reads_out_of_scope(self):
        """The index files a reclassed object under its new class; the
        snapshot reads it in its old one, outside the scope."""
        db = self._db()
        (sub,) = db.execute("SELECT i FROM ONLY Sub i WHERE i.w = 5").oids
        text = "SELECT i FROM ONLY Item i WHERE i.w = 5"
        with db.transaction():
            assert len(db.execute(text).oids) == 1
            self._in_thread(lambda: db.put_state(ObjectState(sub, "Item", {"w": 5, "tag": 2})))
            result = db.execute(text)
            assert isinstance(result.plan.access, IndexEqProbe)
            assert sub not in result.oids and len(result.oids) == 1
        assert sub in db.execute(text).oids

    def test_extent_scan_rows_are_in_scope_without_the_test(self):
        db = self._db()
        for text in ("SELECT i FROM ONLY Sub i", "SELECT i FROM Item i WHERE i.tag >= 0"):
            result = db.execute(text)
            assert isinstance(result.plan.access, ExtentScan)
            assert result.pipeline.filter.scope is None
            assert all(state.class_name in result.plan.scope for state in result.states)
        assert self._classes(db, db.execute("SELECT i FROM ONLY Sub i")) == {"Sub": 20}
        assert self._classes(db, db.execute("SELECT i FROM Item i WHERE i.tag >= 0")) == {
            "Item": 20, "Sub": 20,
        }

    def test_a_reclass_under_a_snapshot_scans_in_its_snapshot_class(self):
        db = self._db()
        moved = db.execute("SELECT i FROM ONLY Sub i").oids[0]
        with db.transaction():
            before = {cls: db.execute("SELECT i FROM ONLY %s i" % cls) for cls in ("Item", "Sub")}
            assert {cls: len(r.oids) for cls, r in before.items()} == {"Item": 20, "Sub": 20}
            self._in_thread(lambda: db.put_state(ObjectState(moved, "Item", {"w": 5, "tag": 2})))
            for _ in range(3):  # the pages are kept again, with the move's chain live
                item = db.execute("SELECT i FROM ONLY Item i")
                sub = db.execute("SELECT i FROM ONLY Sub i")
                assert moved in sub.oids and moved not in item.oids  # resurrected
                assert [s.class_name for s in sub.states] == ["Sub"] * 20
                assert [s.class_name for s in item.states] == ["Item"] * 20
        assert moved in db.execute("SELECT i FROM ONLY Item i").oids
