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

from repro import AttributeDef, Database
from repro.txn import wal as wal_module


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

    def test_index_probe_downgrades_when_versions_live(self):
        db = _vehicle_db()
        db.create_class_index("Vehicle", "weight")
        try:
            downgrades = db.metrics.counter("txn.snapshot.plan_downgrades")
            with db.transaction():
                assert db.execute("Vehicle where weight = 1003").oids
                before = downgrades.value

                def writer():
                    victim = db.select("Vehicle where weight = 1003")[0]
                    db.update(victim.oid, {"weight": 4444})

                _in_thread(writer)
                # The index now points 1003 -> nothing; the snapshot
                # must still find the row via the downgraded scan.
                result = db.execute("Vehicle where weight = 1003")
                assert len(result.oids) == 1
                assert downgrades.value > before
                assert any("downgraded" in note for note in result.plan.notes)
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
