"""The observability subsystem: metrics, tracing, slow-op log,
EXPLAIN ANALYZE, and the engine wiring that feeds them."""

import json
import sys
import threading

import pytest

from repro import AttributeDef, Database
from repro.errors import KimDBError
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    observability_payload,
    write_bench_artifact,
)


class TestCounterGaugeHistogram:
    def test_counter_semantics(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.reset()
        assert c.value == 0

    def test_gauge_semantics(self):
        g = Gauge("g")
        g.set(7)
        g.inc(3)
        g.dec()
        assert g.value == 9
        g.reset()
        assert g.value == 0

    def test_histogram_buckets_and_summary(self):
        h = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 5
        assert h.total == pytest.approx(556.0)
        assert h.min == 0.5
        assert h.max == 500.0
        assert h.mean == pytest.approx(111.2)
        # Two <=1.0, one <=10.0, one <=100.0, one overflow.
        assert h.bucket_counts == [2, 1, 1, 1]
        snap = h.snapshot()
        assert snap["buckets"] == {"le_1": 2, "le_10": 1, "le_100": 1}
        assert snap["overflow"] == 1
        # Quantiles report the covering bucket's upper bound.
        assert h.quantile(0.4) == 1.0
        assert h.quantile(1.0) == 500.0
        h.reset()
        assert h.count == 0 and h.min is None

    def test_histogram_timer(self):
        h = Histogram("h")
        with h.time():
            pass
        assert h.count == 1
        assert h.total >= 0.0

    def test_registry_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        with pytest.raises(KimDBError):
            reg.gauge("a.b")  # same name, different kind

    def test_registry_snapshot_value_reset(self):
        reg = MetricsRegistry()
        reg.counter("buffer.hits").inc(3)
        reg.counter("wal.appends").inc()
        reg.histogram("query.seconds").observe(0.002)
        reg.derived("buffer.hit_rate", lambda: 0.75)
        snap = reg.snapshot()
        assert snap["buffer.hits"] == 3
        assert snap["buffer.hit_rate"] == 0.75
        assert snap["query.seconds"]["count"] == 1
        assert reg.value("buffer.hits") == 3
        assert reg.value("query.seconds") == 1  # histograms report count
        assert reg.value("missing", default=None) is None
        # Prefixed snapshot/reset touch only the matching namespace.
        assert set(reg.snapshot(prefix="buffer.")) == {
            "buffer.hits",
            "buffer.hit_rate",
        }
        reg.reset(prefix="buffer.")
        assert reg.value("buffer.hits") == 0
        assert reg.value("wal.appends") == 1

    def test_snapshot_while_another_thread_registers(self):
        # A server thread lazily registering an instrument must not break
        # a concurrent snapshot ("dictionary changed size during iteration").
        reg = MetricsRegistry()
        for i in range(500):
            reg.counter("seed.%d" % i)
        errors = []
        done = threading.Event()

        def snapshots():
            try:
                while not done.is_set():
                    reg.snapshot()
            except RuntimeError as exc:
                errors.append(exc)

        reader = threading.Thread(target=snapshots)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over mid-iteration, often
        try:
            reader.start()
            for i in range(3000):
                reg.counter("lazy.%d" % i)
                reg.derived("lazy.rate.%d" % i, lambda: 0.0)
        finally:
            done.set()
            reader.join()
            sys.setswitchinterval(interval)
        assert errors == []


class TestTracer:
    def test_span_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert outer.finished and inner.finished
        assert inner in outer.children
        assert outer.children == [inner]
        assert inner.depth == 1
        assert tracer.roots() == [outer]
        # Children finish (and enter the ring buffer) before parents.
        assert [s.name for s in tracer.spans()] == ["inner", "outer"]
        assert "inner" in outer.render()

    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(capacity=8)
        for i in range(20):
            with tracer.span("op%d" % i):
                pass
        assert len(tracer) == 8
        assert [s.name for s in tracer.spans()] == ["op%d" % i for i in range(12, 20)]
        assert tracer.last().name == "op19"

    def test_span_caps_stored_children(self):
        tracer = Tracer(capacity=4096)
        with tracer.span("parent") as parent:
            for _ in range(Span.MAX_CHILDREN + 7):
                with tracer.span("child"):
                    pass
        assert len(parent.children) == Span.MAX_CHILDREN
        assert parent.dropped_children == 7
        assert parent.to_dict()["dropped_children"] == 7

    def test_error_is_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        assert tracer.last("boom").error == "ValueError"

    def test_slow_op_threshold(self):
        ticks = iter([0.0, 1.0, 2.0, 2.0001])
        tracer = Tracer(slow_threshold=0.5, clock=lambda: next(ticks))
        with tracer.span("slow", n=1):
            pass  # 1.0s on the fake clock
        with tracer.span("fast"):
            pass  # 0.0001s
        slow = tracer.slow_ops()
        assert [op.name for op in slow] == ["slow"]
        assert slow[0].elapsed == pytest.approx(1.0)
        assert slow[0].tags == {"n": 1}

    def test_tracer_feeds_registry_counters(self):
        reg = MetricsRegistry()
        ticks = iter([0.0, 1.0])
        tracer = Tracer(slow_threshold=0.5, registry=reg, clock=lambda: next(ticks))
        with tracer.span("op"):
            pass
        assert reg.value("trace.spans") == 1
        assert reg.value("trace.slow_ops") == 1

    def test_slow_log_is_bounded_oldest_evicted(self):
        tracer = Tracer(slow_threshold=0.0, slow_capacity=4)
        for i in range(10):
            with tracer.span("op%d" % i):
                pass
        slow = tracer.slow_ops()
        assert [op.name for op in slow] == ["op%d" % i for i in range(6, 10)]

    def test_slow_ops_capture_in_finish_order(self):
        # A slow child finishes (and is captured) before its slow parent,
        # matching the ring buffer's child-before-parent ordering.
        tracer = Tracer(slow_threshold=0.0)
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        assert [op.name for op in tracer.slow_ops()] == ["child", "parent"]
        assert [s.name for s in tracer.spans()] == ["child", "parent"]

    def test_set_slow_threshold_at_runtime(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 4.5])
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("before"):
            pass  # no threshold yet: not captured
        tracer.set_slow_threshold(0.9)
        with tracer.span("after"):
            pass  # 1.0s >= 0.9: captured
        tracer.set_slow_threshold(None)
        with tracer.span("disabled"):
            pass
        assert [op.name for op in tracer.slow_ops()] == ["after"]
        assert tracer.slow_ops()[0].threshold == 0.9
        with pytest.raises(ValueError):
            tracer.set_slow_threshold(-0.1)

    def test_disabled_tracer_yields_none(self):
        tracer = Tracer()
        tracer.enabled = False
        with tracer.span("ghost") as span:
            assert span is None
        assert len(tracer) == 0

    def test_scopes_are_slotted_objects(self):
        tracer = Tracer()
        for scope in (tracer.span("x"), tracer.trace("t-1"), tracer.trace(None)):
            assert not hasattr(scope, "__dict__")
            assert hasattr(scope, "__enter__") and hasattr(scope, "__exit__")

    def test_trace_restores_the_previous_id_after_an_exception(self):
        tracer = Tracer()
        with tracer.trace("outer"):
            with pytest.raises(KeyError):
                with tracer.trace("inner"):
                    with tracer.span("op") as span:
                        raise KeyError("x")
            assert tracer.current_trace == "outer"
        assert tracer.current_trace is None
        assert span.tags == {"trace": "inner"} and span.error == "KeyError"
        assert tracer.current is None

    def test_trace_none_is_a_no_op(self):
        tracer = Tracer()
        with tracer.trace("kept"):
            with tracer.trace(None) as entered:
                assert entered is None
                assert tracer.current_trace == "kept"
                with tracer.span("op") as span:
                    pass
            assert tracer.current_trace == "kept"
        assert span.tags == {"trace": "kept"}


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
        db.new("Vehicle", {"weight": 1000 + i, "color": "red" if i % 4 else "blue"})
    return db


class TestExplainAnalyze:
    def test_full_scan_plan_tree(self):
        db = _vehicle_db()
        result = db.explain("SELECT v FROM Vehicle v WHERE v.weight > 1030")
        tree = result.tree
        assert tree["op"] == "query"
        assert tree["actual_rows"] == 9
        assert tree["actual_seconds"] > 0.0
        ops = [child["op"] for child in tree["children"]]
        assert ops == ["extent-scan", "filter", "sort"]
        scan = tree["children"][0]
        assert scan["meta"]["access"] == "scan"
        assert scan["actual_rows"] == 40  # every object examined
        rendered = result.render()
        assert "-- plan --" in rendered and "extent-scan" in rendered

    def test_indexed_plan_tree(self):
        db = _vehicle_db()
        db.create_class_index("Vehicle", "weight")
        result = db.explain("SELECT v FROM Vehicle v WHERE v.weight = 1005")
        access = result.tree["children"][0]
        assert access["op"] == "index-eq-probe"
        assert access["meta"]["access"] == "index"
        assert access["actual_rows"] == 1
        assert result.result.stats.index_probes == 1
        assert "index-eq-probe" in str(result)

    def test_project_and_limit_nodes(self):
        db = _vehicle_db()
        result = db.explain(
            "SELECT v.color FROM Vehicle v WHERE v.weight >= 1000 LIMIT 5"
        )
        ops = {child["op"]: child for child in result.tree["children"]}
        assert ops["limit"]["actual_rows"] == 5
        assert ops["project"]["actual_rows"] == 5

    def test_plain_execute_skips_analysis(self):
        db = _vehicle_db()
        result = db.execute("SELECT v FROM Vehicle v WHERE v.weight > 1030")
        assert result.analysis is None


class TestEngineWiring:
    def test_single_snapshot_covers_the_engine(self):
        db = _vehicle_db()
        db.create_class_index("Vehicle", "weight")
        db.execute("SELECT v FROM Vehicle v WHERE v.weight = 1005")
        snap = db.metrics.snapshot()
        assert snap["buffer.hits"] > 0
        assert 0.0 <= snap["buffer.hit_rate"] <= 1.0
        assert snap["wal.appends"] > 0
        assert snap["wal.flushes"] > 0
        assert snap["locks.acquisitions"] > 0
        assert snap["locks.waits"] == 0
        assert snap["index.sc_Vehicle_weight.probes"] == 1
        assert snap["query.executes"] == 1
        assert snap["query.seconds"]["count"] == 1

    def test_query_spans_nest_under_execute(self):
        db = _vehicle_db()
        db.execute("SELECT v FROM Vehicle v WHERE v.weight > 1030")
        root = db.tracer.last("query.execute")
        assert root is not None
        assert {child.name for child in root.children} >= {"query.parse", "query.plan", "query.run"}

    def test_slow_op_threshold_plumbed_through(self):
        db = Database()
        db.configure_observability(slow_threshold=0.0)  # everything is "slow"
        db.define_class("Thing", attributes=[AttributeDef("n", "Integer")])
        db.new("Thing", {"n": 1})
        db.execute("SELECT t FROM Thing t WHERE t.n = 1")
        names = {op.name for op in db.tracer.slow_ops()}
        assert "query.execute" in names


class TestThreadLocals:
    def test_a_fresh_thread_sees_the_defaults_and_no_other_threads_values(self):
        """The current transaction, the rollback flag, the trace id, the
        span stack and the wait captures are per thread: a thread that
        never set them reads the defaults, and a value one thread sets
        is not seen on another."""
        db = _vehicle_db()
        seen = {}

        def probe():
            seen["current"] = db.txns.current
            seen["rolling_back"] = db.txns.rolling_back
            seen["trace"] = db.tracer.current_trace
            seen["span"] = db.tracer.current
            with db.waits.capture() as bucket:
                db.waits.record("Lock", 0.5)
            seen["bucket"] = bucket
            with db.tracer.trace("probe"):
                seen["own_trace"] = db.tracer.current_trace
                with db.txns.begin() as txn:
                    seen["own_txn"] = db.txns.current is txn

        txn = db.txns.begin()
        with db.tracer.trace("main"), db.tracer.span("outer"), db.waits.capture() as main_bucket:
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(10)
            assert db.txns.current is txn
            assert db.tracer.current_trace == "main"
        txn.commit()
        assert seen == {
            "current": None,
            "rolling_back": False,
            "trace": None,
            "span": None,
            "bucket": {"Lock": 0.5},
            "own_trace": "probe",
            "own_txn": True,
        }
        assert main_bucket == {}  # the probe's wait was not this thread's
        assert db.txns.current is None and db.tracer.current_trace is None


class TestMetricNameContract:
    """The registry's names are an interface: benchgate baselines, the
    ledger's counter deltas, SysStat and the Prometheus export all key
    on them.  A rename or a dropped instrument fails here, in tier-1."""

    #: sorted(db.metrics.names()) over the workload below, captured at
    #: the commit before the ``*Stats`` façades were deleted.
    NAMES = [
        "buffer.evictions", "buffer.faults", "buffer.flushes",
        "buffer.hit_rate", "buffer.hits", "fault.page_corruptions",
        "fault.wal_torn_tail", "index.sc_P_a.inserts", "index.sc_P_a.probes",
        "index.sc_P_a.recomputes", "index.sc_P_a.removes", "locks.acquisitions",
        "locks.deadlocks", "locks.upgrades", "locks.wait_seconds",
        "locks.waits", "pager.allocations", "pager.reads", "pager.writes",
        "query.checks", "query.cost.actual_rows", "query.cost.candidates",
        "query.cost.decisions", "query.cost.estimated_rows",
        "query.executes", "query.index_probes", "query.parses",
        "query.plan_cache.evictions", "query.plan_cache.hits",
        "query.plan_cache.invalidations", "query.plan_cache.misses",
        "query.plans", "query.rows", "query.rows_examined",
        "query.rows_matched", "query.seconds", "query.stats.evictions",
        "query.stats.fingerprints", "query.stats.invalidations",
        "query.stats.recorded", "recovery.pages_reallocated",
        "recovery.pages_reimaged", "recovery.redone", "recovery.runs",
        "recovery.undone", "rewrite.contradictions", "rewrite.queries",
        "rewrite.rules_applied", "storage.decodes", "storage.object_buffer_states",
        "trace.slow_ops", "trace.spans", "txn.aborts",
        "txn.active", "txn.commits", "txn.snapshot.closed",
        "txn.snapshot.gc_reclaimed", "txn.snapshot.live", "txn.snapshot.opened",
        "txn.snapshot.reads",
        "txn.snapshot.version_entries", "waits.buffer_read.count",
        "waits.buffer_read.seconds", "waits.page_read.count",
        "waits.page_read.seconds", "waits.w_a_l_flush.count",
        "waits.w_a_l_flush.seconds", "waits.w_a_l_sync.count",
        "waits.w_a_l_sync.seconds", "wal.append_bytes", "wal.appends",
        "wal.flushes", "wal.group_commit.batch_size",
        "wal.group_commit.batches", "wal.group_commit.commits",
        "wal.page_image_bytes", "wal.page_images", "wal.syncs", "wal.truncates",
    ]

    def test_fixed_workload_registers_exactly_these_names(self, tmp_path):
        path = str(tmp_path / "contract.db")
        db = Database(path)
        db.define_class(
            "P", attributes=[AttributeDef("a", "Integer"), AttributeDef("b", "Integer")]
        )
        db.create_class_index("P", "a")
        for i in range(50):
            db.new("P", {"a": i, "b": i % 5})
        db.select("select p from P p where p.a = 7")  # indexed
        db.select("select p from P p where p.b = 3")  # scanned
        txn = db.transaction()
        db.new("P", {"a": 100, "b": 0})
        txn.abort()
        with db.transaction():
            db.new("P", {"a": 101, "b": 1})
        names = set(db.metrics.names())
        db.close()
        db = Database(path)  # a fresh registry: recovery + cold reads
        db.select("select p from P p where p.a = 7")
        names |= set(db.metrics.names())
        db.close()
        assert sorted(names) == self.NAMES


class TestExport:
    def test_observability_payload_and_bench_artifact(self, tmp_path):
        db = _vehicle_db()
        db.execute("SELECT v FROM Vehicle v WHERE v.weight > 1030")
        payload = observability_payload(db.metrics, db.tracer, extra={"k": 1})
        assert payload["k"] == 1
        assert payload["metrics"]["query.executes"] == 1
        assert any(s["name"] == "query.execute" for s in payload["spans"])
        path = write_bench_artifact(
            "fig1 query", {"elapsed": 0.5}, db.metrics, db.tracer, directory=str(tmp_path)
        )
        assert path.endswith("BENCH_fig1_query.json")
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded["bench"] == "fig1 query"
        assert loaded["elapsed"] == 0.5
        assert loaded["metrics"]["query.executes"] == 1
