"""System statistics views, the wait-event profiler, and the monitor.

The self-observing database: SysStat/SysWaitEvent/SysLock/
SysTransaction/SysSlowOp/SysOperator are virtual extents queried
through the normal OQL parse -> analyze -> plan -> pipeline path, fed
by the wait-event profiler and the rest of the obs layer.
"""

import threading
import time

import pytest

from repro import AttributeDef, Database
from repro.errors import QueryError, SemanticError
from repro.obs import MetricsRegistry, WaitEvent, WaitProfiler, render_prometheus


def _vehicle_db():
    db = Database()
    db.define_class(
        "Vehicle",
        attributes=[
            AttributeDef("weight", "Integer"),
            AttributeDef("color", "String", default="white"),
        ],
    )
    for i in range(20):
        db.new("Vehicle", {"weight": 1000 + i, "color": "red" if i % 4 else "blue"})
    return db


def _lock_conflict(db, oid, hold_seconds=0.05):
    """A writer holds X on ``oid`` while a reader blocks; returns both txn ids."""
    writer = db.txns.begin()
    db.update(oid, {"color": "black"})
    started = threading.Event()
    reader_id = []

    def blocked_reader():
        with db.txns.begin() as txn:
            reader_id.append(txn.txn_id)
            started.set()
            db.get_state(oid)  # blocks until the writer commits

    thread = threading.Thread(target=blocked_reader)
    thread.start()
    started.wait()
    time.sleep(hold_seconds)
    writer_id = writer.txn_id
    writer.commit()
    thread.join(timeout=30)
    return writer_id, reader_id[0]


class TestWaitProfiler:
    def test_record_aggregates_per_kind_and_target(self):
        reg = MetricsRegistry()
        waits = WaitProfiler(registry=reg)
        waits.record("Lock", 0.2, target="class:Vehicle", txn_id=7, blocker=3)
        waits.record("Lock", 0.1, target="class:Vehicle", txn_id=8, blocker=7)
        waits.record("BufferRead", 0.05, target="page:4", txn_id=7)
        rows = waits.rows()
        assert [row["kind"] for row in rows] == ["Lock", "BufferRead"]
        lock = rows[0]
        assert lock["count"] == 2
        assert lock["total_wait"] == pytest.approx(0.3)
        assert lock["max_wait"] == pytest.approx(0.2)
        assert lock["avg_wait"] == pytest.approx(0.15)
        assert lock["last_txn"] == 8 and lock["last_blocker"] == 7
        assert waits.total_wait_seconds() == pytest.approx(0.35)
        assert len(waits) == 2  # distinct (kind, target) aggregates
        # Registry instruments ride along.
        assert reg.value("waits.lock.count") == 2
        assert reg.snapshot()["waits.buffer_read.seconds"]["count"] == 1

    def test_per_txn_accumulation_and_eviction(self):
        waits = WaitProfiler(txn_capacity=2)
        waits.record("Lock", 0.1, txn_id=1)
        waits.record("WALFlush", 0.2, txn_id=2)
        waits.record("Lock", 0.3, txn_id=3)  # evicts txn 1
        assert waits.txn_waits(1) == {"count": 0, "seconds": 0, "by_kind": {}}
        assert waits.txn_waits(3)["seconds"] == pytest.approx(0.3)
        assert waits.txn_waits(2)["by_kind"] == {"WALFlush": {"count": 1, "seconds": 0.2}}

    def test_current_txn_provider_fills_missing_txn(self):
        waits = WaitProfiler()
        waits.current_txn = lambda: 42
        waits.record("PageRead", 0.01, target="page:0")
        assert waits.recent()[-1].txn_id == 42

    def test_disabled_profiler_records_nothing(self):
        waits = WaitProfiler()
        waits.enabled = False
        waits.record("Lock", 1.0, txn_id=1)
        assert len(waits) == 0 and waits.rows() == []

    def test_unknown_kind_rejected(self):
        waits = WaitProfiler()
        with pytest.raises(ValueError):
            waits.record("Nap", 1.0)

    def test_unknown_kind_rejected_while_disabled(self):
        waits = WaitProfiler()
        waits.record("Lock", 0.1)  # the kind's instruments now exist
        waits.enabled = False
        with pytest.raises(ValueError):
            waits.record("Nap", 1.0)
        waits.record("Lock", 0.1)
        assert waits.rows()[0]["count"] == 1

    def test_recent_builds_wait_events_on_read(self):
        waits = WaitProfiler(recent_capacity=2)
        waits.current_trace = lambda: "t-1"
        waits.record("Lock", 0.1, target="class:A", txn_id=4, blocker=2)
        waits.record("BufferRead", 0.2, target="page:1", txn_id=5)
        waits.record("PageRead", 0.05, target="page:1", txn_id=5)
        events = waits.recent()
        assert all(isinstance(event, WaitEvent) for event in events)
        assert [event.to_dict() for event in events] == [
            {"kind": "BufferRead", "target": "page:1", "seconds": 0.2,
             "txn": 5, "blocker": None, "trace": "t-1"},
            {"kind": "PageRead", "target": "page:1", "seconds": 0.05,
             "txn": 5, "blocker": None, "trace": "t-1"},
        ]
        assert [event.kind for event in waits.recent(1)] == ["PageRead"]

    def test_nested_page_episodes_stay_out_of_the_totals(self):
        waits = WaitProfiler()
        waits.record("BufferRead", 0.2, target="page:1", txn_id=5)
        waits.record("PageRead", 0.05, target="page:1", txn_id=5)
        waits.record("BufferWrite", 0.3, target="page:2", txn_id=5)
        waits.record("PageWrite", 0.25, target="page:2", txn_id=5)
        assert waits.total_wait_seconds() == pytest.approx(0.5)
        per_txn = waits.txn_waits(5)
        assert (per_txn["count"], per_txn["seconds"]) == (2, pytest.approx(0.5))
        assert per_txn["by_kind"]["PageWrite"] == {"count": 1, "seconds": 0.25}
        assert {row["kind"] for row in waits.rows()} == {
            "BufferRead", "PageRead", "BufferWrite", "PageWrite",
        }


class TestSystemViewQueries:
    def test_index_stats_cover_every_btree_index_kind(self):
        db = _vehicle_db()
        db.define_class("Owner", attributes=[AttributeDef("car", "Vehicle")])
        for vehicle in db.select("Vehicle where weight < 1005"):
            db.new("Owner", {"car": vehicle.oid})
        db.create_class_index("Vehicle", "color")
        db.create_hierarchy_index("Vehicle", "weight")
        db.create_nested_index("Owner", ["car", "weight"])
        rows = {row["path"]: row for row in db.select("SysIndexStat")}
        assert set(rows) == {"color", "weight", "car.weight"}
        assert (rows["color"]["entries"], rows["color"]["distinct_keys"]) == (20, 2)
        assert rows["weight"]["kind"] == "class-hierarchy"
        assert (rows["car.weight"]["entries"], rows["car.weight"]["target"]) == (5, "Owner")
        classes = {row["class_name"]: row["rows"] for row in db.select("SysClassStat")}
        assert classes == {"Owner": 5, "Vehicle": 20}
        db.close()

    def test_shorthand_select_returns_rows_through_pipeline(self):
        db = _vehicle_db()
        db.execute("SELECT v FROM Vehicle v WHERE v.weight > 1010")
        rows = db.select("SysStat where kind = 'counter' order by name")
        assert rows and all(row["kind"] == "counter" for row in rows)
        names = [row["name"] for row in rows]
        assert names == sorted(names)
        assert "query.executes" in names

    def test_filter_sort_limit_compose(self):
        db = _vehicle_db()
        rows = db.select("SysStat order by name limit 3")
        assert len(rows) == 3
        all_names = [row["name"] for row in db.select("SysStat order by name")]
        assert [row["name"] for row in rows] == all_names[:3]

    def test_sysstat_covers_every_instrument_kind(self):
        db = _vehicle_db()
        db.execute("SELECT v FROM Vehicle v")
        kinds = {row["kind"] for row in db.select("SysStat")}
        assert {"counter", "gauge", "histogram", "derived"} <= kinds
        # The system query itself is timed, so the count has grown past
        # the one user query — assert shape, not an exact count.
        hist = db.select("SysStat where kind = 'histogram' and name = 'query.seconds'")
        row = hist[0]
        assert row["value"] >= 1  # histogram rows expose count as value
        assert row["mean"] == pytest.approx(row["total"] / row["value"])

    def test_explain_shows_system_scan_node(self):
        db = _vehicle_db()
        result = db.explain("SysWaitEvent where kind = 'Lock' order by total_wait desc limit 10")
        access = result.tree["children"][0]
        assert access["op"] == "system-scan"
        assert access["meta"]["access"] == "system"
        ops = [child["op"] for child in result.tree["children"]]
        assert ops == ["system-scan", "filter", "sort", "limit"]
        assert "system-scan" in result.render()
        assert "system(SysWaitEvent)" in result.plan.access.description

    def test_unordered_system_query_keeps_generation_order(self):
        # No OID tiebreaker exists for generated rows: without ORDER BY
        # the pipeline must not insert an implicit sort.
        db = _vehicle_db()
        result = db.execute("SysStat")
        assert result.pipeline.sort is None
        assert result.system is True
        assert result.oids == []

    def test_projection_over_system_view(self):
        db = _vehicle_db()
        db.execute("SELECT v FROM Vehicle v")
        rows = db.execute("SELECT s.name FROM SysStat s WHERE s.kind = 'counter'").rows
        assert rows and set(rows[0]) == {"name"}

    def test_semantic_gate_rejects_unknown_attribute(self):
        db = _vehicle_db()
        with pytest.raises(SemanticError) as err:
            db.execute("SysStat where wibble = 1")
        assert "ANA601" in str(err.value)
        report = db.check("SysStat where wibble = 1")
        assert not report.ok

    def test_semantic_gate_rejects_aggregates_and_paths(self):
        db = _vehicle_db()
        with pytest.raises(SemanticError) as err:
            db.execute("SELECT count(*) FROM SysStat s")
        assert "ANA602" in str(err.value)
        with pytest.raises(SemanticError) as err:
            db.execute("SysLock where resource.name = 'x'")
        assert "ANA603" in str(err.value)

    def test_select_iter_rejects_system_views(self):
        db = _vehicle_db()
        with pytest.raises(QueryError):
            list(db.select_iter("SysStat"))

    def test_sysoperator_shows_last_user_query_only(self):
        db = _vehicle_db()
        db.execute("SELECT v FROM Vehicle v WHERE v.color = 'red'")
        ops = db.select("SysOperator order by position")
        assert [row["op"] for row in ops][:2] == ["extent-scan", "filter"]
        assert ops[0]["rows_out"] == 20
        # Querying system views must not overwrite the observed pipeline.
        db.select("SysStat")
        again = db.select("SysOperator order by position")
        assert [row["op"] for row in again] == [row["op"] for row in ops]


class TestLockWaitIntegration:
    def test_lock_conflict_surfaces_in_syswaitevent(self):
        db = _vehicle_db()
        oid = db.select("Vehicle limit 1")[0].oid
        writer_id, reader_id = _lock_conflict(db, oid)
        rows = db.select(
            "SysWaitEvent where kind = 'Lock' order by total_wait desc limit 10"
        )
        assert len(rows) == 1
        event = rows[0]
        assert event["total_wait"] > 0
        assert event["count"] == 1
        assert event["last_txn"] == reader_id
        assert event["last_blocker"] == writer_id
        assert event["target"].startswith("object:")
        # The same wait also reached the registry instruments.
        assert db.metrics.value("waits.lock.count") == 1
        assert db.metrics.value("locks.waits") == 1

    def test_blocked_txn_visible_in_syslock_and_systransaction(self):
        db = _vehicle_db()
        oid = db.select("Vehicle limit 1")[0].oid
        writer = db.txns.begin()
        db.update(oid, {"color": "black"})
        started = threading.Event()

        def blocked_reader():
            with db.txns.begin():
                started.set()
                db.get_state(oid)

        thread = threading.Thread(target=blocked_reader)
        thread.start()
        started.wait()
        deadline = time.time() + 5.0  # lint: ignore[wall-clock-duration]
        waiting = []
        while time.time() < deadline:  # lint: ignore[wall-clock-duration]
            waiting = db.select("SysLock where granted = false")
            if waiting:
                break
            time.sleep(0.01)
        assert waiting and waiting[0]["mode"] == "S"
        blocked = db.select("SysTransaction where waiting_for = %d" % writer.txn_id)
        assert len(blocked) == 1
        assert blocked[0]["waiting_for"] == writer.txn_id
        assert blocked[0]["age"] > 0
        writer.commit()
        thread.join(timeout=30)
        assert db.select("SysLock where granted = false") == []

    def test_wait_profiling_can_be_disabled(self):
        db = _vehicle_db()
        db.configure_observability(wait_profiling=False)
        oid = db.select("Vehicle limit 1")[0].oid
        _lock_conflict(db, oid, hold_seconds=0.02)
        assert db.select("SysWaitEvent") == []
        assert db.metrics.value("locks.waits") == 1  # legacy stat still counts


class TestGroupCommitWait:
    def test_a_committer_parked_behind_another_sync_shows_the_wait(self, tmp_path, monkeypatch):
        """The leader's fsync is held; a second committer parks behind
        it.  Its ``WALGroupWait`` shows in SysWaitEvent and, while it is
        still committing, in its SysTransaction row."""
        from repro.txn import wal as wal_module

        db = Database(str(tmp_path / "group.pages"))
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        held, release = threading.Event(), threading.Event()
        real_fsync = wal_module.fsync_file

        def slow_fsync(handle):
            if not held.is_set():  # the first commit's sync: hold it
                held.set()
                release.wait(10)
            real_fsync(handle)

        monkeypatch.setattr(wal_module, "fsync_file", slow_fsync)
        follower = {}
        committing, resume = threading.Event(), threading.Event()
        real_commit = db.version_store.commit

        def commit_stamp(txn_id):  # runs after the commit record is durable
            if txn_id == follower.get("txn"):
                committing.set()
                resume.wait(10)
            real_commit(txn_id)

        monkeypatch.setattr(db.version_store, "commit", commit_stamp)

        def commit_one(n, record=None):
            with db.transaction() as txn:
                if record is not None:
                    record["txn"] = txn.txn_id
                db.new("Item", {"n": n})

        leader = threading.Thread(target=commit_one, args=(1,))
        leader.start()
        assert held.wait(10)
        parked = threading.Thread(target=commit_one, args=(2, follower))
        parked.start()
        deadline = time.perf_counter() + 10
        while len(db.wal._pending) < 2 and time.perf_counter() < deadline:
            time.sleep(0.005)  # until the follower has queued its commit
        time.sleep(0.02)
        release.set()
        try:
            assert committing.wait(10)
            txn_id = follower["txn"]
            row = db.select("SysTransaction where txn = %d" % txn_id)[0]
            assert row["wait_count"] >= 1 and row["wait_seconds"] > 0
            by_kind = db.waits.txn_waits(txn_id)["by_kind"]
            assert by_kind["WALGroupWait"]["count"] == 1
            assert by_kind["WALGroupWait"]["seconds"] >= 0.01
            events = db.select("SysWaitEvent where kind = 'WALGroupWait'")
            assert len(events) == 1
            assert events[0]["last_txn"] == txn_id and events[0]["count"] == 1
        finally:
            resume.set()
            leader.join(10)
            parked.join(10)
        assert db.metrics.value("waits.w_a_l_group_wait.count") == 1
        db.close()


class TestSysSlowOp:
    def test_slow_ops_queryable(self):
        db = _vehicle_db()
        db.configure_observability(slow_threshold=0.0)
        db.execute("SELECT v FROM Vehicle v")
        rows = db.select("SysSlowOp where name = 'query.execute' order by elapsed desc")
        assert rows and rows[0]["elapsed"] >= rows[-1]["elapsed"]
        assert rows[0]["threshold"] == 0.0

    def test_configure_observability_slow_threshold(self):
        db = _vehicle_db()
        assert db.select("SysSlowOp") == []
        db.configure_observability(slow_threshold=0.0)
        db.execute("SELECT v FROM Vehicle v")
        assert db.select("SysSlowOp where name = 'query.execute'")
        with pytest.raises(ValueError):
            db.configure_observability(slow_threshold=-1)


class TestPrometheusExport:
    @staticmethod
    def _parse(text):
        samples = {}
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
        return samples

    def test_round_trips_every_instrument(self):
        db = _vehicle_db()
        db.execute("SELECT v FROM Vehicle v WHERE v.weight > 1010")
        text = render_prometheus(db.metrics)
        samples = self._parse(text)
        checked = 0
        for name in db.metrics.names():
            prom = "kimdb_" + "".join(
                ch if (ch.isalnum() or ch == "_") else "_" for ch in name
            )
            try:
                metric = db.metrics.get(name)
            except Exception:
                metric = None  # derived
            kind = type(metric).__name__ if metric is not None else "derived"
            if kind == "Counter":
                assert samples[prom + "_total"] == metric.value
            elif kind == "Histogram":
                assert samples[prom + "_count"] == metric.count
                assert samples[prom + "_sum"] == pytest.approx(metric.total)
                assert samples['%s_bucket{le="+Inf"}' % prom] == metric.count
            else:  # Gauge or derived both render plainly
                assert samples[prom] == pytest.approx(
                    float(db.metrics.value(name))
                )
            checked += 1
        assert checked == len(db.metrics.names()) > 10

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", bounds=(1.0, 10.0))
        for v in (0.5, 0.6, 5.0, 50.0):
            h.observe(v)
        text = render_prometheus(reg, prefix="t")
        samples = self._parse(text)
        assert samples['t_h_bucket{le="1"}'] == 2
        assert samples['t_h_bucket{le="10"}'] == 3
        assert samples['t_h_bucket{le="+Inf"}'] == 4
        assert samples["t_h_count"] == 4
        assert samples["t_h_sum"] == pytest.approx(56.1)


class TestMonitorCli:
    def test_monitor_once_renders_every_panel(self, capsys):
        from repro.tools.monitor import main

        assert main(["--once"]) == 0
        out = capsys.readouterr().out
        assert "kimdb monitor" in out
        for panel in (
            "top waits",
            "active transactions",
            "blocked lock requests",
            "slow operations",
            "last query pipeline",
            "key statistics",
        ):
            assert panel in out
        # The demo workload manufactures a real lock wait.
        assert "Lock" in out

    def test_monitor_prometheus_mode(self, capsys):
        from repro.tools.monitor import main

        assert main(["--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE kimdb_waits_lock_count_total counter" in out
        assert "kimdb_query_executes_total" in out
