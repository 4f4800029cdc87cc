"""MVCC snapshot reads and group-commit WAL batching.

The snapshot contract: a read-only query sees exactly the database as of
its begin timestamp — repeatable across concurrent commits, lock-free
(zero scan locks), read-your-own-writes inside a transaction — and the
version store reclaims before-images once the last snapshot that could
need them closes.  The group-commit contract: concurrent committers
share WAL fsyncs without ever surfacing a commit whose covering fsync
did not complete.
"""

import os
import threading

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import AttributeDef, Database
from repro.core.obj import ObjectState
from repro.errors import ObjectNotFoundError
from repro.evolution import SchemaEvolution
from repro.query.operators.base import BATCH_SIZE
from repro.query.parser import parse_query
from repro.query.planner import IndexEqProbe, IndexOrderScan, IndexRangeProbe
from repro.txn import wal as wal_module
from repro.versions.store import SnapshotView


def _vehicle_db(**kwargs):
    db = Database(**kwargs)
    db.define_class(
        "Vehicle",
        attributes=[
            AttributeDef("weight", "Integer"),
            AttributeDef("color", "String", default="white"),
        ],
    )
    for i in range(12):
        db.new("Vehicle", {"weight": 1000 + i, "color": ("red", "blue")[i % 2]})
    return db


def _weights(db):
    result = db.execute("select v.weight from Vehicle v where v.weight >= 0")
    return sorted(row["weight"] for row in result.rows)


def _in_thread(fn):
    """Run ``fn`` on a fresh thread (its own thread-local transaction)."""
    errors = []

    def runner():
        try:
            fn()
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    thread = threading.Thread(target=runner)
    thread.start()
    thread.join()
    if errors:
        raise errors[0]


class TestSnapshotReads:
    def test_read_your_own_writes(self):
        db = _vehicle_db()
        try:
            with db.transaction():
                handle = db.new("Vehicle", {"weight": 5000})
                db.update(handle.oid, {"weight": 6000})
                result = db.execute("Vehicle where weight = 6000")
                assert result.oids == [handle.oid]
                # The pre-update value is the txn's own history, not a
                # visible version.
                assert db.execute("Vehicle where weight = 5000").oids == []
        finally:
            db.close()

    def test_repeatable_reads_across_concurrent_commit(self):
        db = _vehicle_db()
        try:
            with db.transaction():
                before = _weights(db)

                def writer():
                    db.new("Vehicle", {"weight": 9999})
                    victim = db.select("Vehicle where weight = 1000")[0]
                    db.update(victim.oid, {"weight": 8888})
                    gone = db.select("Vehicle where weight = 1001")[0]
                    db.delete(gone.oid)

                _in_thread(writer)
                # Same transaction, same snapshot: the concurrent
                # insert, update and delete are all invisible.
                assert _weights(db) == before
            # A fresh query after the transaction sees the new world.
            after = _weights(db)
            assert 9999 in after and 8888 in after
            assert 1000 not in after and 1001 not in after
        finally:
            db.close()

    def test_snapshot_reads_take_zero_scan_locks(self):
        db = _vehicle_db()
        try:
            baseline = db.metrics.value("locks.acquisitions")
            result = db.execute("Vehicle where weight > 1003")
            assert len(result) == 8
            assert db.metrics.value("locks.acquisitions") == baseline
            with db.select_iter("Vehicle where color = 'red'") as stream:
                assert sum(1 for _ in stream) == 6
            assert db.metrics.value("locks.acquisitions") == baseline
        finally:
            db.close()

    def test_snapshot_vs_lock_parity_oracle(self):
        """Single-threaded, snapshot reads equal a plain-Python oracle
        computed from the stored instances."""
        db = _vehicle_db()
        try:
            victim = db.select("Vehicle where weight = 1002")[0]
            db.update(victim.oid, {"color": "green"})
            gone = db.select("Vehicle where weight = 1007")[0]
            db.delete(gone.oid)
            db.new("Vehicle", {"weight": 1042, "color": "red"})
            stored = sorted(
                (db.get_state(h.oid) for h in db.instances("Vehicle")),
                key=lambda s: s.oid.value,
            )

            def oids(keep):
                return [s.oid for s in stored if keep(s.values)]

            assert len(stored) == 12
            assert db.execute("Vehicle where weight > 1004").oids == oids(
                lambda v: v["weight"] > 1004
            )
            assert db.execute(
                "Vehicle where color = 'blue' and weight < 1010"
            ).oids == oids(lambda v: v["color"] == "blue" and v["weight"] < 1010)
            assert db.execute(
                "select v.weight from Vehicle v where v.weight >= 1000"
            ).rows == [{"weight": s.values["weight"]} for s in stored]
            by_weight = sorted(stored, key=lambda s: s.values["weight"])
            assert db.execute(
                "SELECT v FROM Vehicle v ORDER BY v.weight LIMIT 5"
            ).oids == [s.oid for s in by_weight[:5]]
        finally:
            db.close()

    def test_open_stream_shields_reader_from_delete(self):
        db = _vehicle_db()
        try:
            stream = db.select_iter("Vehicle where weight >= 1000")
            first = next(stream)
            victim = db.select("Vehicle where weight = 1011")[0]
            db.delete(victim.oid)
            remaining = {h.oid for h in stream}
            # The deleted object is resurrected from its before-image.
            assert victim.oid in remaining | {first.oid}
            assert len(remaining) == 11
        finally:
            db.close()

    def test_gc_reclaims_after_last_snapshot_closes(self):
        db = _vehicle_db()
        try:
            reclaimed = db.metrics.counter("txn.snapshot.gc_reclaimed")
            stream = db.select_iter("Vehicle where weight >= 1000")
            next(stream)
            victim = db.select("Vehicle where weight = 1005")[0]
            db.update(victim.oid, {"weight": 7777})
            # The live stream snapshot pins the before-image.
            assert db.version_store.entry_count > 0
            before = reclaimed.value
            stream.close()
            assert db.version_store.entry_count == 0
            assert reclaimed.value > before
        finally:
            db.close()

    def test_index_probe_answers_snapshot_when_versions_live(self):
        db = _vehicle_db()
        db.create_class_index("Vehicle", "weight")
        try:
            with db.transaction():
                assert db.execute("Vehicle where weight = 1003").oids

                def writer():
                    victim = db.select("Vehicle where weight = 1003")[0]
                    db.update(victim.oid, {"weight": 4444})

                _in_thread(writer)
                # The index now points 1003 -> nothing; the probe adds
                # the object the snapshot reads differently and the
                # filter keeps it on its snapshot image.
                result = db.execute("Vehicle where weight = 1003")
                assert result.plan.access.description.startswith("index-eq")
                assert len(result.oids) == 1
                assert result.stats.examined == result.stats.matched == 1
        finally:
            db.close()

    @staticmethod
    def _fleet():
        """500 vehicles over 50 companies C0..C49 (10 each), with a
        nested-attribute index on ``manufacturer.name``."""
        db = Database()
        db.define_class("Company", attributes=[AttributeDef("name", "String")])
        db.define_class(
            "Vehicle", attributes=[AttributeDef("manufacturer", "Company")]
        )
        companies = [db.new("Company", {"name": "C%d" % n}) for n in range(50)]
        for n in range(500):
            db.new("Vehicle", {"manufacturer": companies[n % 50].oid})
        db.create_nested_index("Vehicle", ["manufacturer", "name"])
        return db, companies[7]

    @pytest.mark.parametrize(
        "change",
        [
            lambda db, company: db.update(company.oid, {"name": "renamed"}),
            lambda db, company: db.delete(company.oid),
        ],
        ids=["intermediate-renamed", "intermediate-deleted"],
    )
    def test_nested_index_sees_intermediates_as_of_the_snapshot(self, change):
        """The index holds the *current* path terminal; a target whose
        intermediate changed after the snapshot must still be found."""
        db, company = self._fleet()
        text = "Vehicle where manufacturer.name = 'C7'"
        try:
            with db.transaction():
                before = db.execute(text)
                assert before.plan.access.description.startswith("index-eq(nx_")
                assert len(before.oids) == 10
                _in_thread(lambda: change(db, company))
                after = db.execute(text)
                assert after.plan.access.description.startswith("index-eq(nx_")
                assert after.oids == before.oids
                assert after.stats.examined == after.stats.matched == 10
            assert db.execute(text).oids == []
        finally:
            db.close()

    def test_syssnapshot_view_reports_live_snapshots(self):
        db = _vehicle_db()
        try:
            with db.transaction():
                db.execute("Vehicle where weight > 1000")  # opens the snapshot
                rows = db.select("SysSnapshot")
                assert len(rows) == 1
                assert rows[0]["txn"] is not None
                assert rows[0]["ts"] >= 0
            assert db.select("SysSnapshot") == []
        finally:
            db.close()


class TestSnapshotReadRacingAbort:
    """A reader loads a writer's in-place image, the writer aborts, then
    the reader resolves what it loaded: it must see the restored image."""

    @staticmethod
    def _writer():
        db = Database()
        db.define_class("T", attributes=[AttributeDef("w", "Integer")])
        obj = db.new("T", {"w": 1})
        txn = db.transaction()
        db.update(obj.oid, {"w": 999})
        return db, obj, txn

    @staticmethod
    def _view(db, load, scan_pages):
        store = db.version_store
        return SnapshotView(
            store, store.open_snapshot(None), load, scan_pages,
            db.schema.coerce, db.storage, ephemeral=True,
        )

    @staticmethod
    def _closed_and_reclaimed(db, view):
        entries = db.version_store.entry_count
        view.store.close_snapshot(view.snapshot)
        return entries == 1 and db.metrics.value("txn.snapshot.version_entries") == 0

    def test_deref_resolves_after_the_abort(self):
        db, obj, txn = self._writer()

        def load(oid):
            state = db.storage.load(oid)  # the writer's in-place image
            txn.abort()
            return state

        view = self._view(db, load, db.storage.scan_pages)
        assert view.deref(obj.oid).values["w"] == 1
        assert db.get_state(obj.oid).values["w"] == 1
        assert self._closed_and_reclaimed(db, view)

    def test_scan_resolves_after_the_abort(self):
        db, obj, txn = self._writer()

        def scan_pages(class_name):
            pages = list(db.storage.scan_pages(class_name))
            txn.abort()
            yield from pages

        view = self._view(db, db.storage.load, scan_pages)
        assert [(s.oid, s.values["w"]) for s in view.scan("T")] == [(obj.oid, 1)]
        assert self._closed_and_reclaimed(db, view)

    def test_abort_without_live_snapshots_unlinks_at_once(self):
        db, _obj, txn = self._writer()
        txn.abort()
        assert db.version_store.entry_count == 0


class TestPageVerdict:
    """A kept page state tuple holds states coerced when they were
    decoded: a schema change drops it, a live version chain on its page
    does not, and a page holding a long-object stub never keeps one
    (storage/page.py)."""

    @staticmethod
    def _db(n=6):
        db = Database()
        db.define_class("T", attributes=[AttributeDef("x", "Integer")])
        db.define_class("U", attributes=[AttributeDef("x", "Integer")])
        oids = [db.new(cls, {"x": i}).oid for i in range(n) for cls in "TU"]
        return db, oids

    @staticmethod
    def _rows(db, cls):
        return sorted(
            (state.oid.value, state.values)
            for state in db.execute("SELECT t FROM %s t" % cls).states
        )

    @staticmethod
    def _decodes(db, scan):
        """The records ``scan()`` decoded."""
        before = db.metrics.value("storage.decodes")
        scan()
        return db.metrics.value("storage.decodes") - before

    def test_add_attribute_between_scans_of_a_kept_page_coerces(self):
        db, _oids = self._db()
        for _ in range(2):  # kept from the second scan on
            assert all(values == {"x": values["x"]} for _oid, values in self._rows(db, "T"))
        assert self._decodes(db, lambda: self._rows(db, "T")) == 0
        SchemaEvolution(db).add_attribute("T", AttributeDef("y", "Integer", default=7))
        for _ in range(2):
            rows = self._rows(db, "T")
            assert len(rows) == 6 and all(values["y"] == 7 for _oid, values in rows)

    def test_a_dropped_attribute_between_scans_of_a_kept_page_coerces(self):
        db, _oids = self._db()
        SchemaEvolution(db).add_attribute("T", AttributeDef("y", "Integer", default=7))
        for oid in db.execute("SELECT t FROM T t").oids:
            db.update(oid, {"y": 8})  # stored with y, under the wider schema
        for _ in range(3):
            assert all(values["y"] == 8 for _oid, values in self._rows(db, "T"))
        SchemaEvolution(db).drop_attribute("T", "y")
        for _ in range(2):
            rows = self._rows(db, "T")
            assert len(rows) == 6 and all(set(values) == {"x"} for _oid, values in rows)

    def test_a_live_version_entry_on_a_kept_page_resolves_and_filters_per_row(self):
        db, oids = self._db()
        moved = oids[0]  # a T
        for _ in range(3):
            self._rows(db, "U")
        view = db._snapshot_view()  # opened before the move
        try:
            db.put_state(ObjectState(moved, "U", {"x": 100}))
            for _ in range(2):  # U's page is kept again, with a live chain on it
                assert (moved.value, {"x": 100}) in self._rows(db, "U")
            assert self._decodes(db, lambda: self._rows(db, "U")) == 0
            in_u = [state.oid for state in view.scan("U")]
            in_t = {state.oid: state.values for state in view.scan("T")}
        finally:
            db._read_close(view)
        assert moved not in in_u and len(in_u) == 6
        assert in_t[moved] == {"x": 0} and len(in_t) == 6

    def test_a_page_holding_a_long_object_stub_gets_no_verdict(self):
        db = Database(page_size=512)
        db.define_class("Doc", attributes=[AttributeDef("blob", "String")])
        db.new("Doc", {"blob": "x" * 2000})
        db.new("Doc", {"blob": "y"})
        for _ in range(3):
            rows = self._rows(db, "Doc")
            assert [len(values["blob"]) for _oid, values in rows] == [2000, 1]
        assert self._decodes(db, lambda: self._rows(db, "Doc")) == 2  # never kept

    def test_the_third_scan_of_an_unchanged_extent_compares_no_row_keys(self):
        db, _oids = self._db(n=40)
        counter, real = [0], db.schema.coerce

        def coerce(class_name, state):
            counter[0] += 1
            return real(class_name, state)

        db.storage.coerce = coerce  # a scan coerces only what it decodes
        store = db.version_store
        view = SnapshotView(
            store, store.open_snapshot(None), db.storage.load, db.storage.scan_pages,
            coerce, db.storage, ephemeral=True,
        )
        compared = []
        try:
            for _ in range(4):
                counter[0] = 0
                assert len(list(view.scan("T"))) == 40
                compared.append(counter[0])
        finally:
            store.close_snapshot(view.snapshot)
        assert compared == [40, 40, 0, 0]


class TestGroupCommit:
    def test_concurrent_commits_share_fsyncs(self, tmp_path):
        db = Database(str(tmp_path / "gc.pages"))
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        started = threading.Event()
        release = threading.Event()
        real_fsync = wal_module.fsync_file

        def gated_fsync(handle):
            started.set()
            release.wait(5.0)
            real_fsync(handle)

        n_writers = 6
        batches = db.metrics.counter("wal.group_commit.batches")
        commits = db.metrics.counter("wal.group_commit.commits")
        batches_before, commits_before = batches.value, commits.value
        wal_module.fsync_file = gated_fsync
        try:
            threads = [
                threading.Thread(target=db.new, args=("Item", {"n": i}))
                for i in range(n_writers)
            ]
            for t in threads:
                t.start()
                started.wait(5.0)
            # All writers are appended (leader stuck in fsync, the rest
            # parked on the group-commit condition) before any sync
            # completes; release and let one fsync cover the stragglers.
            deadline = [t for t in threads]
            for _ in range(500):
                if len(db.wal._pending) >= n_writers:
                    break
                threading.Event().wait(0.01)
            release.set()
            for t in deadline:
                t.join(10.0)
        finally:
            wal_module.fsync_file = real_fsync
        assert commits.value - commits_before == n_writers
        assert 0 < batches.value - batches_before < n_writers
        assert db.count("Item") == n_writers
        db.close()

    def test_serial_commits_are_batches_of_one(self, tmp_path):
        """A lone committer takes the same barrier as a batch: one
        flush+fsync per commit, recorded as a batch of size one."""
        db = Database(str(tmp_path / "serial.pages"))
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        syncs = db.metrics.counter("wal.syncs")
        batches = db.metrics.counter("wal.group_commit.batches")
        commits = db.metrics.counter("wal.group_commit.commits")
        sizes = db.metrics.histogram("wal.group_commit.batch_size")
        before = (syncs.value, batches.value, commits.value, sizes.count)
        for i in range(4):
            db.new("Item", {"n": i})
        assert syncs.value == before[0] + 4
        assert batches.value == before[1] + 4
        assert commits.value == before[2] + 4
        assert sizes.count == before[3] + 4
        assert sizes.max == 1
        db.close()

    def test_sync_on_commit_off_flushes_without_fsync(self, tmp_path):
        db = Database(str(tmp_path / "nosync.pages"), sync_on_commit=False)
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        syncs = db.metrics.counter("wal.syncs")
        flushes = db.metrics.counter("wal.flushes")
        syncs_before, flushes_before = syncs.value, flushes.value
        for i in range(4):
            db.new("Item", {"n": i})
        assert flushes.value == flushes_before + 4
        assert syncs.value == syncs_before
        assert db.wal._pending == []
        db.close()

    def test_commit_not_durable_until_covering_fsync(self, tmp_path):
        """Crash between batch append and batch fsync: none of the
        batched transactions may replay as committed."""
        path = str(tmp_path / "batchcrash.pages")
        db = Database(path)
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        db.new("Item", {"n": 1})
        db.checkpoint()
        wal_path = path + ".wal"
        durable_size = os.path.getsize(wal_path)

        started = threading.Event()

        def failing_fsync(handle):
            started.set()
            raise OSError("injected: power lost before fsync")

        real_fsync = wal_module.fsync_file
        failures = []

        def writer(n):
            try:
                db.new("Item", {"n": n})
            except Exception as exc:
                failures.append(exc)

        wal_module.fsync_file = failing_fsync
        try:
            threads = [
                threading.Thread(target=writer, args=(100 + i,))
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
        finally:
            wal_module.fsync_file = real_fsync
        # Every batched committer saw the failure — no false durability.
        assert len(failures) == 2
        # Crash without flushing dirty pages; whatever the WAL buffered
        # past the last completed fsync is lost with the page cache.
        db.storage.pager.close()
        db.wal.close()
        with open(wal_path, "r+b") as fh:
            fh.truncate(durable_size)

        reopened = Database(path)
        values = sorted(
            state.values["n"] for state in reopened.storage.scan_class("Item")
        )
        assert values == [1]
        reopened.close()


class TestHandleSnapshotReads:
    """Handle attribute reads (``h["attr"]``) follow the txn snapshot.

    PR-8 follow-up: queries inside a transaction read the begin
    snapshot, but ``h["attr"]`` used to chase current stored state — a
    read inside one transaction could watch a concurrent commit change
    an attribute between two accesses.  ``Database.read_state`` routes
    handle reads through ``Snapshot.resolve`` so both paths agree.
    """

    def test_handle_read_is_repeatable_across_concurrent_commit(self):
        db = _vehicle_db()
        try:
            handle = db.select("Vehicle where weight = 1000")[0]
            with db.transaction():
                assert handle["weight"] == 1000  # opens the txn snapshot

                def writer():
                    db.update(handle.oid, {"weight": 4444})

                _in_thread(writer)
                # The committed update is invisible to the handle read,
                # exactly as it is to a query in this transaction.
                assert handle["weight"] == 1000
                assert handle.state().values["weight"] == 1000
                assert handle.to_dict()["weight"] == 1000
                assert db.execute(
                    "Vehicle where weight = 4444"
                ).oids == []
            # Transaction over: the handle sees the new world.
            assert handle["weight"] == 4444
        finally:
            db.close()

    def test_handle_read_sees_own_writes(self):
        db = _vehicle_db()
        try:
            with db.transaction():
                handle = db.new("Vehicle", {"weight": 7000})
                assert handle["weight"] == 7000
                db.update(handle.oid, {"weight": 7001})
                assert handle["weight"] == 7001
        finally:
            db.close()

    def test_handle_read_survives_concurrent_delete(self):
        db = _vehicle_db()
        try:
            handle = db.select("Vehicle where weight = 1002")[0]
            with db.transaction():
                assert handle["weight"] == 1002

                def writer():
                    db.delete(handle.oid)

                _in_thread(writer)
                # Deleted under our feet, but our snapshot still has it.
                assert handle["weight"] == 1002
        finally:
            db.close()

    def test_instances_scans_the_transactions_snapshot(self):
        """``instances()`` inside a transaction is the snapshot scan the
        queries run: every handle it yields is readable, its extent
        agrees with ``execute``, and it takes no lock."""
        db = _vehicle_db()
        try:
            with db.transaction():
                before = _weights(db)  # binds the snapshot
                _in_thread(lambda: db.new("Vehicle", {"weight": 9999}))
                _in_thread(
                    lambda: db.delete(db.select("Vehicle where weight = 1001")[0].oid)
                )
                locks_before = db.metrics.value("locks.acquisitions")
                seen = sorted(h["weight"] for h in db.instances("Vehicle"))
                assert seen == before == _weights(db)
                assert db.metrics.value("locks.acquisitions") == locks_before
            assert 9999 in sorted(h["weight"] for h in db.instances("Vehicle"))
        finally:
            db.close()

    def test_instances_outside_a_transaction_scans_a_snapshot(self):
        """Outside a transaction ``instances()`` reads an ephemeral
        snapshot, as ``execute`` does: a detached transaction's
        uncommitted insert is not yielded, and the snapshot closes when
        the generator ends or is closed."""
        db = _vehicle_db()
        try:
            txn = db.transaction()
            db.new("Vehicle", {"weight": 9999})
            db.txns.detach()
            assert 9999 not in _weights(db)
            assert 9999 not in [h.state().values["weight"] for h in db.instances("Vehicle")]
            assert db.version_store.live_snapshots() == []
            scan = db.instances("Vehicle")
            next(scan)
            assert len(db.version_store.live_snapshots()) == 1
            scan.close()
            assert db.version_store.live_snapshots() == []
            db.txns.attach(txn)
            txn.abort()
        finally:
            db.close()

    def test_count_answers_from_the_callers_snapshot(self):
        """``count()`` equals what ``instances()`` yields beside another
        transaction's uncommitted inserts and delete, outside a
        transaction and inside one (whose own insert it counts)."""
        db = _vehicle_db()
        try:
            victim = db.select("Vehicle where weight = 1003")[0].oid
            other = db.transaction()
            db.new("Vehicle", {"weight": 9998})
            db.new("Vehicle", {"weight": 9999})
            db.delete(victim)
            db.txns.detach()

            def counted():
                count = db.count("Vehicle")
                assert count == len(list(db.instances("Vehicle")))
                return count

            assert counted() == 12
            with db.transaction():
                assert counted() == 12
                db.new("Vehicle", {"weight": 7777})
                assert counted() == 13
            assert counted() == 13
            db.txns.attach(other)
            other.commit()
            assert counted() == 14
            assert db.version_store.live_snapshots() == []
        finally:
            db.close()

    def test_get_state_still_reads_current_state(self):
        # The locking read path is unchanged: inside the same
        # transaction whose handle read sees the snapshot, get_state
        # returns the concurrently committed current state (and takes
        # its read lock).  The lock-conflict tests elsewhere depend on
        # this blocking behavior.
        db = _vehicle_db()
        try:
            handle = db.select("Vehicle where weight = 1004")[0]
            with db.transaction():
                assert handle["weight"] == 1004

                def writer():
                    db.update(handle.oid, {"weight": 5555})

                _in_thread(writer)
                assert handle["weight"] == 1004
                assert db.get_state(handle.oid).values["weight"] == 5555
        finally:
            db.close()

    def test_handle_read_outside_transaction_is_current(self):
        db = _vehicle_db()
        try:
            handle = db.select("Vehicle where weight = 1006")[0]
            db.update(handle.oid, {"weight": 3333})
            assert handle["weight"] == 3333
            assert db.read_state(handle.oid).values["weight"] == 3333
        finally:
            db.close()


def _car_db(n_cars=1):
    db = Database()
    db.define_class("Maker", attributes=[AttributeDef("location", "String")])
    db.define_class(
        "Car",
        attributes=[AttributeDef("weight", "Integer"), AttributeDef("maker", "Maker")],
    )
    db.define_class(
        "Truck", superclasses=("Car",), attributes=[AttributeDef("payload", "Integer", default=7)]
    )
    maker = db.new("Maker", {"location": "Detroit"}).oid
    with db.transaction():
        cars = [db.new("Car", {"weight": i, "maker": maker}).oid for i in range(n_cars)]
    return db, maker, cars


def _put_weight(db, oid, weight):
    state = db.get_state(oid)
    state.values["weight"] = weight
    db.put_state(state)


class TestTransactionView:
    """A transaction reads through one :class:`SnapshotView` whose deref
    memo lives as long as the transaction; its own writes and DDL must
    still show, and nobody else's commits may."""

    def test_one_view_per_transaction_and_one_per_ephemeral_read(self):
        db, _maker, _cars = _car_db()
        with db.transaction() as txn:
            view = db._snapshot_view()
            assert db._snapshot_view() is view is txn.view
            assert view.snapshot is txn.snapshot and not view.ephemeral
        assert txn.view is None and txn.snapshot is None
        first, second = db._snapshot_view(), db._snapshot_view()
        assert first is not second and first.ephemeral
        for ephemeral in (first, second):
            db._read_close(ephemeral)
        assert db.version_store.live_snapshots() == []

    def test_a_stream_sees_its_own_write_to_a_referenced_object(self):
        """The company moves between two fetches of a lazily filtered
        stream: rows filtered after the move see the new location."""
        db, maker, cars = _car_db(n_cars=4000)
        db.create_hierarchy_index("Car", "weight")
        query = (
            "SELECT c FROM Car c WHERE c.maker.location = 'Detroit' "
            "ORDER BY c.weight LIMIT %d" % (BATCH_SIZE + 50)
        )
        assert isinstance(db.plan(query).access, IndexOrderScan)
        with db.transaction():
            stream = db.select_iter(query)
            first = next(stream)
            db.update(maker, {"location": "Tokyo"})
            rest = [handle.oid for handle in stream]
        # Only the first batch was filtered before the move.
        assert [first.oid] + rest == cars[:BATCH_SIZE]

    @pytest.mark.parametrize(
        "write, attr, value",
        [
            (lambda db, oid: db.update(oid, {"weight": 2}), "weight", 2),
            (lambda db, oid: _put_weight(db, oid, 3), "weight", 3),
            # Only a Truck has a payload: reading it proves the reclass.
            (lambda db, oid: SchemaEvolution(db).migrate_instance(oid, "Truck"), "payload", 7),
            (lambda db, oid: db.delete(oid), "weight", None),
        ],
        ids=["update", "put_state", "migrate_instance", "delete"],
    )
    def test_a_handle_reads_its_own_write(self, write, attr, value):
        db, _maker, (car,) = _car_db()
        handle = db.get(car)
        with db.transaction():
            assert handle["weight"] == 0
            assert handle["weight"] == 0  # from the view's memo
            write(db, car)
            if value is None:
                with pytest.raises(ObjectNotFoundError):
                    handle[attr]
            else:
                assert handle[attr] == value

    def test_ddl_inside_the_transaction_shows_in_the_next_read(self):
        db, maker, (car,) = _car_db()
        with db.transaction():
            assert db.read_state(car).values == {"weight": 0, "maker": maker}
            SchemaEvolution(db).add_attribute("Car", AttributeDef("color", "String", default="grey"))
            assert db.read_state(car).values["color"] == "grey"

    def test_another_commit_is_invisible_to_the_view_and_visible_after(self):
        db, _maker, (car,) = _car_db()
        handle = db.get(car)
        with db.transaction():
            assert handle["weight"] == 0
            _in_thread(lambda: db.update(car, {"weight": 5}))
            assert handle["weight"] == 0
            assert db.execute("SELECT c FROM Car c WHERE c.weight = 0").oids == [car]
        with db.transaction():
            # A newer snapshot, and with it a fresh memo.
            assert handle["weight"] == 5
        assert handle["weight"] == 5


# -- snapshot-exact index leaves: a stateful model check ----------------------

#: Examples per run; CI's weekly-full job raises it (500), tier-1 keeps
#: the slice short — the same knob pattern as FAULT_TORTURE_SEED_COUNT.
SNAPSHOT_INDEX_EXAMPLES = int(os.environ.get("SNAPSHOT_INDEX_EXAMPLES", "8"))

_HIERARCHY = ("Vehicle", "Car", "Truck")
_WEIGHTS = (0, 1, 2)


class SnapshotIndexMachine(RuleBasedStateMachine):
    """Interleaved writers against held snapshots; every index leaf must
    answer each snapshot exactly as a plain-Python model frozen at it.

    Writers autocommit (plus one uncommitted writer that may commit or
    abort later); up to four transactions hold their begin snapshot,
    detached between steps.  After every step the same queries run at
    every held snapshot and at a fresh one, each through a forced access
    path: the single-class index, the class-hierarchy index (eq and
    range), the nested-attribute index and the ordered walk (ASC and
    DESC under LIMIT).
    """

    def __init__(self):
        super().__init__()
        db = self.db = Database()
        db.define_class("Company", attributes=[AttributeDef("name", "String")])
        attrs = [
            AttributeDef("weight", "Integer"),
            AttributeDef("manufacturer", "Company"),
        ]
        db.define_class("Vehicle", attributes=attrs)
        db.define_class("Car", superclasses=("Vehicle",))
        db.define_class("Truck", superclasses=("Vehicle",))
        db.define_class("Boat", attributes=attrs)
        self.car_index = db.create_class_index("Car", "weight")
        self.weight_index = db.create_hierarchy_index("Vehicle", "weight")
        self.name_index = db.create_nested_index("Vehicle", ["manufacturer", "name"])
        #: The committed world: company oid -> name, object oid ->
        #: (class, weight, manufacturer oid).
        self.companies = {}
        self.objects = {}
        for n in range(3):
            self.companies[db.new("Company", {"name": "C%d" % n}).oid] = "C%d" % n
        for n in range(6):
            self._insert(_HIERARCHY[n % 3], n % 3, n % 3)
        #: Held snapshots: (transaction, frozen companies, frozen objects).
        self.held = []
        #: The uncommitted writer: (transaction, oid, new weight) or None.
        self.pending = None

    def teardown(self):
        for txn, _companies, _objects in self.held:
            self.db.txns.attach(txn)
            txn.commit()
        if self.pending is not None:
            self.db.txns.attach(self.pending[0])
            self.pending[0].abort()
        self.db.close()

    # -- helpers -----------------------------------------------------------

    def _pick(self, pool, index):
        pool = sorted(pool, key=lambda oid: oid.value)
        return pool[index % len(pool)] if pool else None

    def _free(self):
        """Objects an autocommit writer may touch (the pending writer's
        object is X-locked)."""
        locked = self.pending[1] if self.pending is not None else None
        return [oid for oid in self.objects if oid != locked]

    def _insert(self, class_name, weight, company):
        manufacturer = self._pick(self.companies, company)
        handle = self.db.new(
            class_name, {"weight": weight, "manufacturer": manufacturer}
        )
        self.objects[handle.oid] = (class_name, weight, manufacturer)

    # -- writers -----------------------------------------------------------

    @rule(
        class_name=st.sampled_from(_HIERARCHY + ("Boat",)),
        weight=st.sampled_from(_WEIGHTS + (None,)),
        company=st.integers(0, 50),
    )
    def insert(self, class_name, weight, company):
        self._insert(class_name, weight, company)

    @rule(pick=st.integers(0, 50), weight=st.sampled_from(_WEIGHTS + (None,)))
    def update_weight(self, pick, weight):
        oid = self._pick(self._free(), pick)
        if oid is not None:
            self.db.update(oid, {"weight": weight})
            cls, _old, manufacturer = self.objects[oid]
            self.objects[oid] = (cls, weight, manufacturer)

    @rule(pick=st.integers(0, 50), company=st.integers(0, 50))
    def update_manufacturer(self, pick, company):
        oid = self._pick(self._free(), pick)
        manufacturer = self._pick(self.companies, company)
        if oid is not None:
            self.db.update(oid, {"manufacturer": manufacturer})
            cls, weight, _old = self.objects[oid]
            self.objects[oid] = (cls, weight, manufacturer)

    @rule(pick=st.integers(0, 50))
    def delete(self, pick):
        oid = self._pick(self._free(), pick)
        if oid is not None:
            self.db.delete(oid)
            del self.objects[oid]

    @rule(pick=st.integers(0, 50), class_name=st.sampled_from(_HIERARCHY + ("Boat",)))
    def reclass(self, pick, class_name):
        oid = self._pick(self._free(), pick)
        if oid is not None:
            state = self.db.get_state(oid).copy()
            state.class_name = class_name
            _cls, weight, manufacturer = self.objects[oid]
            if manufacturer not in self.companies:
                # A full-state write re-validates references.
                manufacturer = state.values["manufacturer"] = None
            self.db.put_state(state)
            self.objects[oid] = (class_name, weight, manufacturer)

    @rule(pick=st.integers(0, 50), name=st.sampled_from(("C0", "C1", "C2", "C3")))
    def rename_company(self, pick, name):
        oid = self._pick(self.companies, pick)
        if oid is not None:
            self.db.update(oid, {"name": name})
            self.companies[oid] = name

    @rule(pick=st.integers(0, 50))
    def delete_company(self, pick):
        oid = self._pick(self.companies, pick)
        if oid is not None:
            self.db.delete(oid)
            del self.companies[oid]

    @rule(name=st.sampled_from(("C0", "C1", "C2", "C3")))
    def add_company(self, name):
        self.companies[self.db.new("Company", {"name": name}).oid] = name

    @precondition(lambda self: self.pending is None and self.objects)
    @rule(pick=st.integers(0, 50), weight=st.sampled_from(_WEIGHTS))
    def begin_pending_update(self, pick, weight):
        oid = self._pick(self.objects, pick)
        txn = self.db.transaction()
        self.db.update(oid, {"weight": weight})
        self.db.txns.detach()
        self.pending = (txn, oid, weight)

    @precondition(lambda self: self.pending is not None)
    @rule(commit=st.booleans())
    def finish_pending_update(self, commit):
        txn, oid, weight = self.pending
        self.pending = None
        self.db.txns.attach(txn)
        if commit:
            txn.commit()
            cls, _old, manufacturer = self.objects[oid]
            self.objects[oid] = (cls, weight, manufacturer)
        else:
            txn.abort()

    # -- snapshots -----------------------------------------------------------

    @precondition(lambda self: len(self.held) < 4)
    @rule()
    def open_snapshot(self):
        txn = self.db.transaction()
        self.db.execute("SELECT c FROM Company c")  # binds the snapshot
        self.db.txns.detach()
        self.held.append((txn, dict(self.companies), dict(self.objects)))

    @precondition(lambda self: self.held)
    @rule(pick=st.integers(0, 50))
    def close_snapshot(self, pick):
        txn, _companies, _objects = self.held.pop(pick % len(self.held))
        self.db.txns.attach(txn)
        txn.commit()

    # -- the check -------------------------------------------------------------

    def _run(self, text, access):
        plan = self.db.planner.plan(parse_query(text))
        plan.access = access
        view = self.db._snapshot_view()
        try:
            return self.db._executor.execute(plan, snapshot=view).oids
        finally:
            self.db._read_close(view)

    def _check(self, companies, objects):
        def oids(keep):
            return sorted(
                (oid for oid, row in objects.items() if keep(*row)),
                key=lambda oid: oid.value,
            )

        for w in _WEIGHTS:
            assert self._run(
                "Car where weight = %d" % w, IndexEqProbe(self.car_index, w)
            ) == oids(lambda cls, weight, _m: cls == "Car" and weight == w)
            assert self._run(
                "Vehicle where weight = %d" % w, IndexEqProbe(self.weight_index, w)
            ) == oids(lambda cls, weight, _m: cls in _HIERARCHY and weight == w)
        assert self._run(
            "Vehicle where weight >= 1",
            IndexRangeProbe(self.weight_index, 1, None, True, True),
        ) == oids(lambda cls, weight, _m: cls in _HIERARCHY and weight is not None and weight >= 1)
        for name in ("C0", "C1", "C2", "C3"):
            assert self._run(
                "Vehicle where manufacturer.name = '%s'" % name,
                IndexEqProbe(self.name_index, name),
            ) == oids(lambda cls, _w, m: cls in _HIERARCHY and companies.get(m) == name)
        rows = [(oid, weight) for oid, (cls, weight, _m) in objects.items() if cls in _HIERARCHY]
        for descending in (False, True):
            present = sorted(
                ((weight, oid.value, oid) for oid, weight in rows if weight is not None),
                reverse=descending,
            )
            missing = sorted(
                (oid for oid, weight in rows if weight is None),
                key=lambda oid: oid.value,
                reverse=descending,
            )
            expected = ([oid for _w, _v, oid in present] + missing)[:4]
            text = "SELECT v FROM Vehicle v ORDER BY v.weight%s LIMIT 4" % (
                " DESC" if descending else ""
            )
            assert self._run(
                text, IndexOrderScan(self.weight_index, descending)
            ) == expected, text

    @invariant()
    def every_snapshot_matches_its_model(self):
        for txn, companies, objects in self.held:
            with self.db.txns.bound(txn):
                self._check(companies, objects)
        self._check(self.companies, self.objects)


TestSnapshotIndexMachine = SnapshotIndexMachine.TestCase
TestSnapshotIndexMachine.settings = settings(
    max_examples=SNAPSHOT_INDEX_EXAMPLES,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
