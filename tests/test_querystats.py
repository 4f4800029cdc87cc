"""Query-fingerprint statistics, class/index statistics, trace propagation.

Covers the PR-9 observability tentpole end to end:

* the :class:`~repro.obs.querystats.QueryStats` accumulator (unit level
  and through the full parse -> analyze -> plan -> pipeline path into
  ``SysQueryStat``), including its invalidation contract — a moved
  schema or index epoch purges accumulated rows at the next read;
* the live ``SysClassStat`` / ``SysIndexStat`` views, what
  ``Database.analyze()`` still does (drop cached plans), and database
  files that still carry an old ANALYZE catalog;
* the Prometheus text rendering of latency histograms (``_bucket`` /
  ``_sum`` / ``_count`` series, label escaping);
* trace propagation — the tracer's thread-local trace context, and the
  wire-level contract that a client-stamped trace id appears verbatim
  in the server-side ``SysSlowOp`` row.
"""

import json
import sys
import threading
import time
import types

import pytest

from repro import AttributeDef, Database
from repro.analysis.plancache import PlanCache
from repro.errors import QueryError, SemanticError
from repro.evolution import SchemaEvolution
from repro.obs import MetricsRegistry, Tracer
from repro.obs.export import render_prometheus
from repro.obs.querystats import QueryStats
from repro.obs.waits import WaitProfiler
from repro.server import Client, Server
from repro.server import protocol
from repro.server.session import Session
from repro.storage import StorageManager


REPEATED = "SELECT v FROM Vehicle v WHERE v.weight >= 920"


def _vehicle_db():
    db = Database()
    db.define_class(
        "Vehicle",
        attributes=[
            AttributeDef("weight", "Integer"),
            AttributeDef("color", "String", default="white"),
        ],
    )
    for i in range(40):
        db.new("Vehicle", {"weight": 900 + i, "color": ("red", "blue")[i % 2]})
    db.create_class_index("Vehicle", "weight")
    return db


def _stat(db, name):
    rows = db.select("SysStat where name = '%s'" % name)
    return rows[0]["value"] if rows else 0


# -- the accumulator, unit level ---------------------------------------------


def _fixed_epoch():
    return (0, 0)


class TestQueryStatsUnit:
    def test_same_fingerprint_accumulates_one_entry(self):
        qs = QueryStats(_fixed_epoch)
        for _ in range(5):
            qs.record("fp1", "Vehicle", "q", 0.001, 40, 20, 0, False)
        assert len(qs) == 1
        entry = qs.get("fp1")
        assert entry.calls == 5
        assert entry.rows_examined == 200
        assert entry.rows_matched == 100
        assert entry.latency.count == 5

    def test_cache_hits_counted(self):
        qs = QueryStats(_fixed_epoch)
        qs.record("fp", "V", None, 0.001, 1, 1, 0, cache_hit=False)
        qs.record("fp", "V", None, 0.001, 1, 1, 0, cache_hit=True)
        assert qs.get("fp").plan_cache_hits == 1

    def test_wait_kinds_roll_up_into_groups(self):
        qs = QueryStats(_fixed_epoch)
        qs.record(
            "fp", "V", None, 0.1, 1, 1, 0, False,
            waits={
                "Lock": 0.05, "BufferRead": 0.01, "PageRead": 0.004,
                "WALFlush": 0.02, "Mystery": 9.0,
            },
        )
        row = qs.get("fp").row()
        assert row["lock_wait"] == pytest.approx(0.05)
        # PageRead ran inside the BufferRead: only the outer episode counts.
        assert row["io_wait"] == pytest.approx(0.01)
        assert row["wal_wait"] == pytest.approx(0.02)

    def test_epoch_change_purges_and_counts_invalidations(self):
        registry = MetricsRegistry()
        epoch = [(1, 1)]
        qs = QueryStats(lambda: epoch[0], registry)
        qs.record("a", "V", None, 0.001, 1, 1, 0, False)
        qs.record("b", "V", None, 0.001, 1, 1, 0, False)
        assert len(qs) == 2
        epoch[0] = (2, 1)
        qs.record("c", "V", None, 0.001, 1, 1, 0, False)
        assert len(qs) == 1 and qs.get("c") is not None
        assert registry.value("query.stats.invalidations") == 2
        assert registry.value("query.stats.recorded") == 3

    def test_read_after_epoch_change_purges_without_double_count(self):
        registry = MetricsRegistry()
        epoch = [(1, 1)]
        qs = QueryStats(lambda: epoch[0], registry)
        qs.record("a", "V", None, 0.001, 1, 1, 0, False)
        epoch[0] = (1, 2)
        assert qs.rows() == []
        assert registry.value("query.stats.invalidations") == 1
        assert registry.value("query.stats.fingerprints") == 0
        # Further reads and the next record under the *new* epoch must
        # not purge again.
        assert len(qs) == 0 and qs.get("a") is None
        qs.record("b", "V", None, 0.001, 1, 1, 0, False)
        assert [e.fingerprint for e in qs.entries()] == ["b"]
        assert registry.value("query.stats.invalidations") == 1

    def test_eviction_drops_coldest_entry_at_capacity(self):
        registry = MetricsRegistry()
        qs = QueryStats(_fixed_epoch, registry, capacity=3)
        for fp, calls in (("hot", 5), ("warm", 3), ("cold", 1)):
            for _ in range(calls):
                qs.record(fp, "V", None, 0.001, 1, 1, 0, False)
        qs.record("new", "V", None, 0.001, 1, 1, 0, False)
        assert len(qs) == 3
        assert qs.get("cold") is None
        assert qs.get("hot") is not None
        assert registry.value("query.stats.evictions") == 1

    def test_entries_hottest_first(self):
        qs = QueryStats(_fixed_epoch)
        for fp, calls in (("b", 1), ("a", 3), ("c", 3)):
            for _ in range(calls):
                qs.record(fp, "V", None, 0.001, 1, 1, 0, False)
        assert [e.fingerprint for e in qs.entries()] == ["a", "c", "b"]


class TestEpochRuleUnderThreads:
    """Writers and readers race an epoch bumper; every entry ever added
    is either still present or counted exactly once as purged."""

    WORKERS, PER_WORKER, BUMPS = 8, 200, 400

    @staticmethod
    def _yielding(epoch):
        """The epoch read, giving up the interpreter first so another
        thread runs in the middle of the staleness check."""

        def read():
            time.sleep(0)
            return (epoch[0], 0)

        return read

    def _race(self, epoch, add, read):
        """Run the race; return how many entries the writers added."""
        errors = []

        def work(worker):
            try:
                for i in range(self.PER_WORKER):
                    add("%d-%d" % (worker, i))
                    read()
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        def bump():
            for _ in range(self.BUMPS):
                epoch[0] += 1
                read()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(w,))
                for w in range(self.WORKERS)
            ] + [threading.Thread(target=bump)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        return self.WORKERS * self.PER_WORKER

    def test_query_stats(self):
        registry = MetricsRegistry()
        epoch = [0]
        qs = QueryStats(self._yielding(epoch), registry, capacity=10**6)
        added = self._race(
            epoch,
            lambda fp: qs.record(fp, "V", None, 0.001, 1, 1, 0, False),
            lambda: len(qs),
        )
        assert registry.value("query.stats.invalidations") + len(qs) == added

    def test_plan_cache(self):
        registry = MetricsRegistry()
        epoch = [0]
        cache = PlanCache(
            self._yielding(epoch),
            types.SimpleNamespace(count_of_class=lambda cls: 1, scale_stamp=0),
            registry,
            capacity=10**6,
        )
        plan = types.SimpleNamespace(scope=())
        added = self._race(
            epoch, lambda fp: cache.put(fp, plan, None), lambda: len(cache)
        )
        assert registry.value("query.plan_cache.invalidations") + len(cache) == added


class TestWaitCapture:
    def test_capture_attributes_waits_on_the_recording_thread(self):
        profiler = WaitProfiler()
        with profiler.capture() as waited:
            profiler.record("Lock", 0.25, target="oid:1")
            profiler.record("PageRead", 0.01)
        profiler.record("Lock", 9.0)  # after capture closed: not attributed
        assert waited == {"Lock": 0.25, "PageRead": 0.01}

    def test_captures_nest(self):
        profiler = WaitProfiler()
        with profiler.capture() as outer:
            profiler.record("Lock", 0.1)
            with profiler.capture() as inner:
                profiler.record("Lock", 0.2)
        assert inner == {"Lock": 0.2}
        assert outer["Lock"] == pytest.approx(0.3)

    def test_an_inner_capture_leaves_the_outer_one_open(self):
        # Both buckets are empty (equal) when the inner one closes: it
        # is taken off by identity, so the outer one keeps collecting.
        profiler = WaitProfiler()
        with profiler.capture() as outer:
            with profiler.capture() as inner:
                pass
            profiler.record("Lock", 0.5)
        assert outer == {"Lock": 0.5} and inner == {}

    def test_capture_bucket_is_removed_after_an_exception(self):
        profiler = WaitProfiler()
        with profiler.capture() as outer:
            with pytest.raises(RuntimeError):
                with profiler.capture() as inner:
                    profiler.record("Lock", 0.1)
                    raise RuntimeError("boom")
            profiler.record("Lock", 0.2)
        profiler.record("Lock", 9.0)
        assert inner == {"Lock": 0.1}
        assert outer["Lock"] == pytest.approx(0.3)
        assert profiler._local.captures == []


# -- through the full query path ---------------------------------------------


class TestSysQueryStat:
    def test_repeated_query_accumulates_one_fingerprint(self):
        db = _vehicle_db()
        for _ in range(5):
            db.execute(REPEATED)
        rows = db.select("SysQueryStat order by calls desc")
        assert len(rows) == 1
        row = rows[0]
        assert row["target"] == "Vehicle"
        assert row["calls"] == 5
        assert row["source"] == REPEATED
        # First build misses the plan cache, the other four hit.
        assert row["plan_cache_hits"] == 4
        assert row["rows_examined"] > 0 and row["rows_matched"] > 0
        assert row["p50"] > 0 and row["p95"] >= row["p50"]
        assert row["p99"] >= row["p95"]
        assert row["total_seconds"] >= row["mean_seconds"] > 0
        db.close()

    def test_structurally_equal_spellings_share_a_fingerprint(self):
        db = _vehicle_db()
        db.execute(
            "SELECT v FROM Vehicle v WHERE v.weight > 910 AND v.color = 'red'"
        )
        db.execute(
            "SELECT v FROM Vehicle v WHERE v.color = 'red' AND v.weight > 910"
        )
        rows = db.select("SysQueryStat")
        assert len(rows) == 1
        assert rows[0]["calls"] == 2
        db.close()

    def test_literals_of_one_shape_share_a_row(self):
        db = _vehicle_db()
        parses = db.metrics.value("query.parses")
        for literal in range(900, 920):
            db.execute("SELECT v FROM Vehicle v WHERE v.weight = %d" % literal)
        assert db.metrics.value("query.parses") == parses + 1
        (row,) = db.select("SysQueryStat")
        assert row["calls"] == 20
        assert row["source"] == "SELECT v FROM Vehicle v WHERE v.weight = 900"
        db.close()

    def test_a_hit_flags_its_own_copy_not_the_shared_plan(self):
        db = _vehicle_db()
        first = db.plan(REPEATED)
        again = db.plan(REPEATED)
        assert again.cached and not first.cached
        assert again.access is first.access
        db.close()

    def test_an_open_stream_and_a_hit_count_one_hit(self):
        db = _vehicle_db()
        stream = db.select_iter(REPEATED)
        next(stream)
        db.execute(REPEATED)
        stream.close()
        (row,) = db.select("SysQueryStat")
        assert row["calls"] == 2
        assert row["plan_cache_hits"] == 1
        assert db.metrics.value("query.plan_cache.hits") == 1
        assert db.metrics.value("query.plan_cache.misses") == 1
        db.close()

    def test_io_wait_counts_each_buffer_miss_once(self, tmp_path):
        """A FilePager read is timed inside the pool's BufferRead; the
        roll-ups add only the outer episode."""
        db = Database(str(tmp_path / "io.kim"), buffer_capacity=2)
        db.define_class("Item", attributes=[AttributeDef("text", "String")])
        with db.transaction():
            for i in range(200):
                db.new("Item", {"text": "item %d " % i + "x" * 80})
        db.checkpoint()
        db.storage.drop_cache()
        db.waits.reset()
        with db.transaction() as txn:
            db.execute("SELECT i FROM Item i WHERE i.text = 'nope'")
            per_txn = db.waits.txn_waits(txn.txn_id)
            total = db.waits.total_wait_seconds()
            seconds = {}
            for row in db.waits.rows():
                seconds[row["kind"]] = seconds.get(row["kind"], 0.0) + row["total_wait"]
        assert seconds.get("PageRead", 0.0) > 0.0  # nested reads did happen
        buffer = seconds.get("BufferRead", 0.0) + seconds.get("BufferWrite", 0.0)
        assert set(seconds) <= {"BufferRead", "BufferWrite", "PageRead", "PageWrite"}
        (row,) = db.select("SysQueryStat")
        assert row["io_wait"] == pytest.approx(buffer, rel=1e-9)
        assert total == pytest.approx(buffer, rel=1e-9)
        assert per_txn["seconds"] == pytest.approx(buffer, rel=1e-9)
        assert per_txn["by_kind"]["PageRead"]["seconds"] > 0.0
        db.close()

    def test_system_queries_are_never_recorded(self):
        db = _vehicle_db()
        db.execute(REPEATED)
        before = len(db.query_stats)
        db.select("SysQueryStat")
        db.select("SysStat order by name")
        assert len(db.query_stats) == before
        db.close()

    def test_schema_evolution_purges_accumulated_stats(self):
        db = _vehicle_db()
        db.execute(REPEATED)
        assert len(db.query_stats) == 1
        SchemaEvolution(db).add_attribute(
            "Vehicle", AttributeDef("maker", "String", default="acme")
        )
        assert len(db.query_stats) == 0
        assert _stat(db, "query.stats.invalidations") == 1
        db.close()

    def test_ddl_purges_cached_query_state_before_the_next_query(self):
        """One staleness rule: after DDL every reader — the views, len()
        — sees no entry from the old epoch, without waiting for a user
        query, and each purged entry is counted exactly once."""
        db = _vehicle_db()
        evolution = SchemaEvolution(db)
        changes = (
            lambda: db.create_class_index("Vehicle", "color"),
            lambda: evolution.add_attribute(
                "Vehicle", AttributeDef("maker", "String", default="acme")
            ),
        )
        for change in changes:
            db.execute(REPEATED)  # indexed
            db.execute("Vehicle where color = 'red'")  # scanned before the color index
            assert len(db.plan_cache) == 2 and len(db.query_stats) == 2
            plan_inv = db.metrics.value("query.plan_cache.invalidations")
            stats_inv = db.metrics.value("query.stats.invalidations")
            change()
            for _ in range(2):  # the second pass must count nothing more
                assert db.select("SysQueryStat") == []
                assert db.select("SysPlanCache") == []
                assert len(db.plan_cache) == 0
                assert len(db.query_stats) == 0
                assert db.metrics.value("query.plan_cache.invalidations") == plan_inv + 2
                assert db.metrics.value("query.stats.invalidations") == stats_inv + 2
            db.execute(REPEATED)
            (row,) = db.select("SysPlanCache")
            assert row["schema_epoch"] == db.schema.version
            assert row["index_epoch"] == db.indexes.epoch
        db.close()

    def test_index_epoch_bump_purges_on_next_record(self):
        db = _vehicle_db()
        db.execute(REPEATED)
        db.execute("Vehicle where color = 'red'")
        assert len(db.query_stats) == 2
        db.create_class_index("Vehicle", "color")
        # The purge happens lazily, at the next record under the new epoch.
        db.execute(REPEATED)
        rows = db.select("SysQueryStat")
        assert len(rows) == 1
        assert rows[0]["calls"] == 1
        assert _stat(db, "query.stats.invalidations") == 2
        db.close()

    def test_streaming_query_records_at_close(self):
        db = _vehicle_db()
        with db.select_iter("Vehicle where weight >= 930") as stream:
            handles = list(stream)
        assert len(handles) == 10
        rows = db.select("SysQueryStat")
        assert len(rows) == 1
        assert rows[0]["calls"] == 1
        assert rows[0]["rows_matched"] == 10
        db.close()

    def test_semantic_gate_and_explain_on_sysquerystat(self):
        db = _vehicle_db()
        db.execute(REPEATED)
        with pytest.raises(SemanticError) as err:
            db.execute("SysQueryStat where wibble = 1")
        assert "ANA601" in str(err.value)
        with pytest.raises(SemanticError) as err:
            db.execute("SELECT count(*) FROM SysQueryStat s")
        assert "ANA602" in str(err.value)
        result = db.explain("SysQueryStat order by calls desc limit 5")
        assert "system-scan" in result.render()
        with pytest.raises(QueryError):
            list(db.select_iter("SysQueryStat"))
        db.close()

    def test_sysquerystat_scan_takes_no_locks(self):
        db = _vehicle_db()
        db.execute(REPEATED)
        acquisitions = _stat(db, "locks.acquisitions")
        db.select("SysQueryStat order by calls desc")
        assert _stat(db, "locks.acquisitions") == acquisitions
        db.close()


# -- live class and index statistics ------------------------------------------


class TestAnalyze:
    def test_catalog_contents(self):
        db = _vehicle_db()
        assert db.analyze() is None
        (irow,) = db.select("SysIndexStat")
        assert (irow["target"], irow["path"], irow["kind"]) == (
            "Vehicle", "weight", "single-class",
        )
        # Live, never stale: writes show up at the next read, no ANALYZE.
        for _ in range(3):
            db.new("Vehicle", {"weight": 905})
        db.delete(db.select("Vehicle where weight = 939")[0].oid)
        (irow,) = db.select("SysIndexStat")
        assert irow["entries"] == 42
        assert irow["distinct_keys"] == 39
        (crow,) = db.select("SysClassStat where class_name = 'Vehicle'")
        assert crow["rows"] == 42
        db.close()

    def test_sysclassstat_and_sysindexstat_views(self):
        db = _vehicle_db()
        (crow,) = db.select("SysClassStat where class_name = 'Vehicle'")
        assert crow == {"class_name": "Vehicle", "rows": 40, "pages": crow["pages"]}
        assert crow["pages"] >= 1
        (irow,) = db.select("SysIndexStat order by entries desc")
        assert set(irow) == {
            "index", "kind", "target", "path", "entries", "distinct_keys", "height",
        }
        assert irow["entries"] == irow["distinct_keys"] == 40
        assert irow["height"] == 1
        db.close()

    def test_statistics_persist_across_reopen(self, tmp_path):
        path = str(tmp_path / "stats.kim")
        db = Database(path)
        db.define_class("Vehicle", attributes=[AttributeDef("weight", "Integer")])
        for i in range(12):
            db.new("Vehicle", {"weight": 100 + i})
        db.create_class_index("Vehicle", "weight")
        before = (db.select("SysClassStat"), db.select("SysIndexStat"))
        db.close()

        db = Database(path)
        assert db.select("SysClassStat") == before[0]
        # Indexes live in memory: their counts come back with the index.
        assert db.select("SysIndexStat") == []
        db.create_class_index("Vehicle", "weight")
        assert db.select("SysIndexStat") == before[1]
        (irow,) = before[1]
        assert irow["distinct_keys"] == 12
        db.close()

    def test_old_statistics_key_reopens_and_checkpoint_drops_it(self, tmp_path):
        # Earlier builds persisted an ANALYZE catalog beside the schema.
        path = str(tmp_path / "old.kim")
        db = Database(path)
        db.define_class("Vehicle", attributes=[AttributeDef("weight", "Integer")])
        for i in range(50):
            db.new("Vehicle", {"weight": i})
        db.close()
        storage = StorageManager(path)
        extra = storage.load_extra_metadata()
        extra["statistics"] = {
            "schema_version": 0,
            "index_epoch": 0,
            "classes": [{"class_name": "Vehicle", "rows": 1,
                         "total_bytes": 1, "avg_bytes": 1.0}],
            "indexes": [],
        }
        storage.save_metadata(extra)
        storage.close()
        with open(path + ".meta", encoding="utf-8") as handle:
            assert "statistics" in json.load(handle)

        db = Database(path)
        db.create_class_index("Vehicle", "weight")
        plan = db.plan("SELECT v FROM Vehicle v WHERE v.weight = 7")
        assert plan.access.description.startswith("index-eq(")
        assert plan.cost.chosen.rows == 1
        assert len(db.select("Vehicle where weight < 10")) == 10
        db.checkpoint()
        with open(path + ".meta", encoding="utf-8") as handle:
            meta = json.load(handle)
        assert "statistics" not in meta and "schema" in meta
        db.close()

    def test_planner_notes_stats_but_results_are_unchanged(self):
        db = _vehicle_db()
        before = sorted(h.oid for h in db.select(REPEATED))
        plain = db.explain(REPEATED).render()
        assert "cost: chose index-range(" in plain
        db.analyze()
        # ANALYZE drops cached plans; the re-planned one is costed on the
        # same exact counts.
        noted = db.explain("SELECT v FROM Vehicle v WHERE v.weight >= 921").render()
        assert "cost: chose" in noted
        assert "scan(Vehicle): pages=1.0 rows=40.0" in noted
        after = sorted(h.oid for h in db.select(REPEATED))
        assert after == before
        db.close()


# -- Prometheus rendering ----------------------------------------------------


class TestPrometheusRendering:
    def test_registry_histogram_series(self):
        registry = MetricsRegistry()
        h = registry.histogram("op.seconds", bounds=(1.0, 10.0))
        for v in (0.5, 0.5, 5.0, 500.0):
            h.observe(v)
        text = render_prometheus(registry)
        lines = text.splitlines()
        assert "# TYPE kimdb_op_seconds histogram" in lines
        # Buckets are cumulative; +Inf carries the full count.
        assert 'kimdb_op_seconds_bucket{le="1"} 2' in lines
        assert 'kimdb_op_seconds_bucket{le="10"} 3' in lines
        assert 'kimdb_op_seconds_bucket{le="+Inf"} 4' in lines
        assert "kimdb_op_seconds_sum 506.0" in lines
        assert "kimdb_op_seconds_count 4" in lines
        assert text.endswith("\n")

    def test_querystats_render_as_labeled_family(self):
        registry = MetricsRegistry()
        qs = QueryStats(_fixed_epoch, bounds=(0.1, 1.0))
        qs.record("abc123", "Vehicle", None, 0.05, 1, 1, 0, False)
        qs.record("abc123", "Vehicle", None, 0.5, 1, 1, 0, True, False)
        text = render_prometheus(registry, querystats=qs)
        lines = text.splitlines()
        assert "# TYPE kimdb_query_latency_seconds histogram" in lines
        prefix = 'kimdb_query_latency_seconds_bucket{fingerprint="abc123",target="Vehicle"'
        assert '%s,le="0.1"} 1' % prefix in lines
        assert '%s,le="1"} 2' % prefix in lines
        assert '%s,le="+Inf"} 2' % prefix in lines
        assert (
            'kimdb_query_latency_seconds_count{fingerprint="abc123",target="Vehicle"} 2'
            in lines
        )

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        qs = QueryStats(_fixed_epoch)
        qs.record('fp"\\x\n', "Veh\"icle", None, 0.01, 1, 1, 0, False)
        text = render_prometheus(registry, querystats=qs)
        assert 'fingerprint="fp\\"\\\\x\\n"' in text
        assert 'target="Veh\\"icle"' in text

    def test_empty_querystats_emits_no_family(self):
        text = render_prometheus(MetricsRegistry(), querystats=QueryStats(_fixed_epoch))
        assert "query_latency_seconds" not in text

    def test_monitor_demo_exports_querystat_family(self):
        from repro.tools.monitor import build_demo_database

        db = build_demo_database()
        try:
            text = render_prometheus(db.metrics, querystats=db.query_stats)
            assert "# TYPE kimdb_query_latency_seconds histogram" in text
            assert "kimdb_query_stats_recorded_total" in text
            assert "kimdb_query_cost_decisions_total" in text
        finally:
            db.close()


# -- trace context and propagation -------------------------------------------


class TestTraceContext:
    def test_trace_stamps_spans_and_restores(self):
        tracer = Tracer()
        assert tracer.current_trace is None
        with tracer.trace("t-outer"):
            assert tracer.current_trace == "t-outer"
            with tracer.span("work"):
                pass
            with tracer.trace("t-inner"):
                assert tracer.current_trace == "t-inner"
            assert tracer.current_trace == "t-outer"
        assert tracer.current_trace is None
        (span,) = tracer.spans("work")
        assert span.tags["trace"] == "t-outer"

    def test_trace_none_is_a_no_op(self):
        tracer = Tracer()
        with tracer.trace(None):
            assert tracer.current_trace is None
            with tracer.span("work"):
                pass
        (span,) = tracer.spans("work")
        assert "trace" not in span.tags

    def test_explicit_trace_tag_wins(self):
        tracer = Tracer()
        with tracer.trace("ambient"):
            with tracer.span("work", trace="explicit"):
                pass
        (span,) = tracer.spans("work")
        assert span.tags["trace"] == "explicit"

    def test_slow_op_carries_trace(self):
        db = _vehicle_db()
        db.configure_observability(slow_threshold=0.0)
        with db.tracer.trace("trace-xyz"):
            db.execute(REPEATED)
        rows = db.select("SysSlowOp where trace = 'trace-xyz'")
        assert rows and all(row["trace"] == "trace-xyz" for row in rows)
        db.close()

    def test_wait_rows_carry_last_trace_column(self):
        db = _vehicle_db()
        rows = db.select("SysWaitEvent order by total_wait desc limit 5")
        for row in rows:
            assert "last_trace" in row
        db.close()


class TestSessionTraceParsing:
    def test_valid_trace_adopted(self):
        assert Session._trace_id({"id": "abc123", "span": 7}) == "abc123"

    def test_bare_string_trace_accepted(self):
        assert Session._trace_id("abc123") == "abc123"

    @pytest.mark.parametrize(
        "trace",
        [None, 42, [], {}, {"id": 7}, {"id": ""}, {"id": "x" * 65}, "x" * 65],
    )
    def test_malformed_trace_dropped(self, trace):
        assert Session._trace_id(trace) is None


class TestWireTracePropagation:
    @pytest.fixture
    def served(self):
        db = _vehicle_db()
        db.configure_observability(slow_threshold=0.0)
        server = Server(db, port=0, workers=2, lock_timeout=0.5)
        server.start()
        yield db, server
        server.stop()
        db.close()

    def test_client_trace_id_lands_in_sysslowop(self, served):
        db, server = served
        client = Client(*server.address, trace_id="cafe0123deadbeef")
        try:
            rows = client.query("Vehicle where weight >= 930")
            assert len(rows) == 10
        finally:
            client.close()
        slow = db.select("SysSlowOp where trace = 'cafe0123deadbeef'")
        assert slow, "client trace id must appear verbatim in SysSlowOp"
        assert any(row["name"] == "server.request" for row in slow)

    def test_default_client_generates_a_trace_id(self, served):
        db, server = served
        client = Client(*server.address)
        try:
            assert isinstance(client.trace_id, str) and len(client.trace_id) == 16
            client.query("Vehicle limit 1")
        finally:
            client.close()
        traces = {row["trace"] for row in db.select("SysSlowOp")}
        assert client.trace_id in traces

    def test_malformed_wire_trace_is_ignored_not_an_error(self, served):
        _db, server = served
        client = Client(*server.address)
        try:
            protocol.send_frame(
                client._sock,
                {
                    "id": 99,
                    "op": "query",
                    "params": {"q": "Vehicle limit 1"},
                    "trace": [1, 2, 3],
                },
            )
            payload, _n = protocol.recv_frame(client._sock)
            assert payload["ok"] is True
            assert payload["id"] == 99
        finally:
            client.close()
