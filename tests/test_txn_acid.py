"""Transactions: atomicity, rollback, WAL, recovery, durability."""

import threading
import time

import pytest

from repro import AttributeDef, Database
from repro.core.obj import ObjectState
from repro.core.oid import OID
from repro.errors import RecoveryError, TransactionError
from repro.evolution import SchemaEvolution
from repro.storage.manager import StorageManager
from repro.txn.recovery import checkpoint, recover
from repro.txn.wal import BEGIN, COMMIT, INSERT, UPDATE, LogRecord, WriteAheadLog


@pytest.fixture
def adb():
    db = Database()
    db.define_class("Account", attributes=[AttributeDef("balance", "Integer")])
    return db


class TestTransactionLifecycle:
    def test_commit_persists(self, adb):
        with adb.transaction():
            account = adb.new("Account", {"balance": 100})
        assert adb.get(account.oid)["balance"] == 100

    def test_abort_rolls_back_insert(self, adb):
        txn = adb.transaction()
        account = adb.new("Account", {"balance": 100})
        txn.abort()
        assert not adb.exists(account.oid)

    def test_abort_rolls_back_update(self, adb):
        account = adb.new("Account", {"balance": 100})
        txn = adb.transaction()
        adb.update(account.oid, {"balance": 50})
        txn.abort()
        assert adb.get(account.oid)["balance"] == 100

    def test_abort_rolls_back_delete(self, adb):
        account = adb.new("Account", {"balance": 100})
        txn = adb.transaction()
        adb.delete(account.oid)
        txn.abort()
        assert adb.get(account.oid)["balance"] == 100

    def test_abort_restores_indexes(self, adb):
        index = adb.create_hierarchy_index("Account", "balance")
        account = adb.new("Account", {"balance": 100})
        txn = adb.transaction()
        adb.update(account.oid, {"balance": 50})
        adb.new("Account", {"balance": 75})
        txn.abort()
        assert account.oid in index.lookup_eq(100)
        assert index.lookup_eq(50) == []
        assert index.lookup_eq(75) == []

    def test_multi_operation_atomicity(self, adb):
        a = adb.new("Account", {"balance": 100})
        b = adb.new("Account", {"balance": 0})
        txn = adb.transaction()
        adb.update(a.oid, {"balance": 0})
        adb.update(b.oid, {"balance": 100})
        txn.abort()
        assert adb.get(a.oid)["balance"] == 100
        assert adb.get(b.oid)["balance"] == 0

    def test_context_manager_commits(self, adb):
        with adb.transaction():
            account = adb.new("Account", {"balance": 1})
        assert adb.exists(account.oid)

    def test_context_manager_aborts_on_exception(self, adb):
        with pytest.raises(RuntimeError):
            with adb.transaction():
                account = adb.new("Account", {"balance": 1})
                raise RuntimeError("boom")
        assert not adb.exists(account.oid)

    def test_nested_begin_rejected(self, adb):
        with adb.transaction():
            with pytest.raises(TransactionError):
                adb.transaction()

    def test_commit_twice_rejected(self, adb):
        txn = adb.transaction()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_autocommit_single_op(self, adb):
        account = adb.new("Account", {"balance": 5})
        assert adb.metrics.value("txn.commits") >= 1
        assert adb.exists(account.oid)

    def test_an_autocommitted_write_that_fails_aborts_only_its_own_txn(self, adb):
        """A write outside a transaction runs in its own, which a failure
        aborts; inside one, the failure leaves the caller's open."""
        def veto(kind, old, new):
            if new is not None and new.values["balance"] < 0:
                raise ValueError("negative balance")

        adb.add_pre_hook(veto)
        with pytest.raises(ValueError):
            adb.new("Account", {"balance": -1})
        assert adb.txns.current is None and adb.txns.active_transactions() == []
        assert adb.metrics.value("txn.aborts") == 1
        with adb.transaction() as txn:
            kept = adb.new("Account", {"balance": 2})
            with pytest.raises(ValueError):
                adb.update(kept.oid, {"balance": -3})
            assert adb.txns.current is txn and txn.status == "active"
        assert adb.get_state(kept.oid).values["balance"] == 2
        assert adb.metrics.value("txn.aborts") == 1

    def test_locks_released_after_commit(self, adb):
        with adb.transaction():
            adb.new("Account", {"balance": 5})
        assert adb.locks.lock_count() == 0

    def test_abort_all_active(self, adb):
        adb.txns.begin()
        account = adb.new("Account", {"balance": 9})
        adb.txns.abort_all_active()
        assert not adb.exists(account.oid)
        assert adb.txns.active_transactions() == []


class TestWriterReadsItsBeforeImageUnderTheLock:
    """Strict 2PL: a writer parked on an X lock builds on what the
    holder left behind, never on an image it read before waiting."""

    @staticmethod
    def _race(t1_rest, t2_finish, t1_first=lambda db, oid: db.update(oid, {"a": 5})):
        """T1 writes the object (``t1_first``); T2's ``update(b=7)``
        parks on T1's X lock; ``t1_rest(db, t1, oid)`` ends T1; T2 then
        runs ``t2_finish(db, t2)``.  Returns the stored values."""
        db = Database()
        attributes = [AttributeDef("a", "Integer"), AttributeDef("b", "Integer")]
        db.define_class("P", attributes=attributes)
        db.define_class("Q", attributes=attributes)
        oid = db.new("P", {"a": 1, "b": 1}).oid
        t1 = db.transaction()
        t1_first(db, oid)
        errors = []

        def writer():
            try:
                t2 = db.transaction()
                db.update(oid, {"b": 7})
                t2_finish(db, t2)
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        deadline = time.monotonic() + 10
        while not db.locks.waiting_edges():
            assert time.monotonic() < deadline, "T2 never parked on T1's lock"
        t1_rest(db, t1, oid)
        thread.join(10)
        assert not thread.is_alive() and errors == []
        return db.get_state(oid).values

    @staticmethod
    def _update_again_and_commit(db, t1, oid):
        db.update(oid, {"a": 6})
        t1.commit()

    def test_aborted_value_is_not_resurrected(self):
        values = self._race(
            lambda db, t1, oid: t1.abort(), lambda db, t2: t2.commit()
        )
        assert values == {"a": 1, "b": 7}

    def test_holders_later_update_is_not_lost(self):
        values = self._race(
            self._update_again_and_commit, lambda db, t2: t2.commit()
        )
        assert values == {"a": 6, "b": 7}

    def test_undo_restores_the_committed_image(self):
        values = self._race(
            self._update_again_and_commit, lambda db, t2: t2.abort()
        )
        assert values == {"a": 6, "b": 1}

    def test_class_lock_follows_a_reclass_rolled_back_while_waiting(self):
        """T2 read the directory while T1's uncommitted migration said
        ``Q``; once T1 aborts the object is a ``P`` again and T2's write
        must hold the intention lock on *that* class."""
        held = []

        def finish(db, t2):
            held.extend(
                row["resource"]
                for row in db.locks.held_snapshot()
                if row["txn"] == t2.txn_id
            )
            t2.commit()

        values = self._race(
            lambda db, t1, oid: t1.abort(),
            finish,
            t1_first=lambda db, oid: SchemaEvolution(db).migrate_instance(oid, "Q"),
        )
        assert values == {"a": 1, "b": 7}
        assert "class:P" in held


class TestWalFraming:
    def test_memory_log_roundtrip(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        state = ObjectState(OID(1), "A", {"x": 1})
        wal.log_insert(1, state)
        wal.log_commit(1)
        records = list(wal.replay())
        assert [r.record_type for r in records] == [1, INSERT, COMMIT]
        assert records[1].after.values == {"x": 1}

    def test_file_log_roundtrip(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        wal.log_begin(1)
        wal.log_insert(1, ObjectState(OID(1), "A", {"x": 1}))
        wal.log_commit(1)
        wal.close()
        reopened = WriteAheadLog(path)
        assert reopened.record_count == 3
        reopened.close()

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        wal.log_begin(1)
        wal.log_insert(1, ObjectState(OID(1), "A", {"x": 1}))
        wal.log_commit(1)
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b"\x00\x01\x02")  # torn frame
        reopened = WriteAheadLog(path)
        assert reopened.record_count == 3
        reopened.close()

    def test_mid_log_corruption_detected(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        wal.log_begin(1)
        wal.log_insert(1, ObjectState(OID(1), "A", {"x": "payload"}))
        wal.log_commit(1)
        wal.close()
        data = bytearray(open(path, "rb").read())
        data[20] ^= 0xFF  # flip a byte inside the first frames
        with open(path, "wb") as handle:
            handle.write(data)
        reopened = WriteAheadLog(path)
        with pytest.raises(RecoveryError):
            list(reopened.replay())
        reopened.close()

    def test_truncate(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        wal.truncate()
        assert wal.record_count == 0


class TestRecovery:
    def _storage_and_wal(self):
        return StorageManager(), WriteAheadLog()

    def test_committed_insert_redone(self):
        storage, wal = self._storage_and_wal()
        state = ObjectState(OID(1), "A", {"x": 1})
        wal.log_begin(1)
        wal.log_insert(1, state)
        wal.log_commit(1)
        report = recover(wal, storage)
        assert report.winners == {1}
        assert storage.load(OID(1)).values == {"x": 1}

    def test_standalone_recover_counts_into_the_wal_registry(self):
        storage, wal = self._storage_and_wal()
        wal.log_begin(1)
        wal.log_insert(1, ObjectState(OID(1), "A", {"x": 1}))
        wal.log_commit(1)
        recover(wal, storage)
        assert wal.metrics.value("recovery.runs") == 1
        assert wal.metrics.value("recovery.redone") == 1

    def test_loser_insert_undone(self):
        storage, wal = self._storage_and_wal()
        wal.log_begin(1)
        wal.log_insert(1, ObjectState(OID(1), "A", {"x": 1}))
        # no commit: loser
        report = recover(wal, storage)
        assert report.losers == {1}
        assert not storage.contains(OID(1))

    def test_loser_update_restores_before_image(self):
        storage, wal = self._storage_and_wal()
        before = ObjectState(OID(1), "A", {"x": 1})
        after = ObjectState(OID(1), "A", {"x": 2})
        wal.log_begin(1)
        wal.log_insert(1, before)
        wal.log_commit(1)
        wal.log_begin(2)
        wal.log_update(2, before, after)
        report = recover(wal, storage)
        assert report.losers == {2}
        assert storage.load(OID(1)).values == {"x": 1}

    def test_aborted_txn_with_logged_compensation_nets_out(self):
        storage, wal = self._storage_and_wal()
        state = ObjectState(OID(1), "A", {"x": 1})
        wal.log_begin(1)
        wal.log_insert(1, state)
        wal.log_delete(1, state)  # compensation logged by the abort path
        wal.log_abort(1)
        recover(wal, storage)
        assert not storage.contains(OID(1))

    def test_checkpoint_truncates(self):
        storage, wal = self._storage_and_wal()
        wal.log_begin(1)
        wal.log_insert(1, ObjectState(OID(1), "A", {"x": 1}))
        wal.log_commit(1)
        recover(wal, storage)
        checkpoint(wal, storage)
        assert wal.record_count == 0
        # Recovery over the empty log must keep the checkpointed data.
        recover(wal, storage)
        assert storage.contains(OID(1))

    def test_interleaved_winner_and_loser(self):
        storage, wal = self._storage_and_wal()
        wal.log_begin(1)
        wal.log_begin(2)
        wal.log_insert(1, ObjectState(OID(1), "A", {"who": "winner"}))
        wal.log_insert(2, ObjectState(OID(2), "A", {"who": "loser"}))
        wal.log_commit(1)
        report = recover(wal, storage)
        assert storage.contains(OID(1))
        assert not storage.contains(OID(2))
        assert report.redone == 2 and report.undone == 1


class TestReadOnlyTransactionsLogNothing:
    """BEGIN goes out just before a transaction's first write, so a
    transaction that writes nothing appends no record and waits for no
    sync; it still releases its locks and closes its snapshot."""

    @staticmethod
    def _durable(path):
        db = Database(path)
        db.define_class("Account", attributes=[AttributeDef("balance", "Integer")])
        return db, db.new("Account", {"balance": 1}).oid

    def test_a_read_only_commit_appends_and_syncs_nothing(self, durable_path):
        db, oid = self._durable(durable_path)
        before = db.metrics.snapshot("wal.")
        commits = db.metrics.value("txn.commits")
        with db.transaction() as txn:
            db.get_state(oid)
            db.read_state(oid)  # opens the transaction's snapshot
        assert db.metrics.snapshot("wal.") == before
        assert db.metrics.value("txn.commits") == commits + 1
        assert db.metrics.value("txn.snapshot.live") == 0
        assert all(row["txn"] != txn.txn_id for row in db.locks.held_snapshot())
        db.close()

    def test_a_read_only_abort_appends_nothing(self, adb):
        oid = adb.new("Account", {"balance": 1}).oid
        records = adb.wal.record_count
        txn = adb.transaction()
        adb.get_state(oid)
        txn.abort()
        assert adb.wal.record_count == records

    def test_a_conflicting_checkin_moves_no_wal_counter(self, durable_path):
        db, oid = self._durable(durable_path)
        workspace = db.workspace()
        workspace.checkout([oid])
        workspace.update(oid, {"balance": 2})
        db.update(oid, {"balance": 3})
        before = db.metrics.snapshot("wal.")
        assert [c.oid for c in workspace.checkin().conflicts] == [oid]
        assert db.metrics.snapshot("wal.") == before
        db.close()

    def test_begin_goes_out_just_before_the_first_write(self, adb):
        first, second = (adb.new("Account", {"balance": n}).oid for n in (1, 2))
        adb.wal.truncate()
        reader = adb.transaction()  # begins first, writes last
        adb.get_state(first)
        adb.txns.detach()
        with adb.transaction() as writer:
            adb.get_state(second)
            adb.update(second, {"balance": 3})
            adb.new("Account", {"balance": 4})
        adb.txns.attach(reader)
        adb.update(first, {"balance": 5})
        reader.commit()
        assert [(r.record_type, r.txn_id) for r in adb.wal.replay()] == [
            (BEGIN, writer.txn_id), (UPDATE, writer.txn_id), (INSERT, writer.txn_id),
            (COMMIT, writer.txn_id),
            (BEGIN, reader.txn_id), (UPDATE, reader.txn_id), (COMMIT, reader.txn_id),
        ]

    def test_a_checkpoint_before_the_first_write_keeps_the_writer_a_loser(
        self, durable_path
    ):
        """The checkpoint truncates the log; a transaction that had not
        written yet logs its BEGIN after it, so recovery undoes it."""
        db, oid = self._durable(durable_path)
        txn = db.transaction()
        db.get_state(oid)
        db.txns.detach()
        db.checkpoint()
        db.txns.attach(txn)
        db.update(oid, {"balance": 2})
        db.storage.buffer.flush_all()  # the uncommitted page reaches disk
        db.storage.save_metadata()
        db.storage.pager.close()
        db.wal.close()
        reopened = Database(durable_path)
        assert reopened.get_state(oid).values["balance"] == 1
        reopened.close()


class TestDurability:
    def test_reopen_preserves_committed_data(self, durable_path):
        db = Database(durable_path)
        db.define_class("Account", attributes=[AttributeDef("balance", "Integer")])
        with db.transaction():
            account = db.new("Account", {"balance": 77})
        oid = account.oid
        db.close()

        reopened = Database(durable_path)
        assert reopened.get(oid)["balance"] == 77
        assert reopened.class_of(oid) == "Account"
        reopened.close()

    def test_crash_before_checkpoint_recovers_from_wal(self, durable_path):
        db = Database(durable_path)
        db.define_class("Account", attributes=[AttributeDef("balance", "Integer")])
        db.checkpoint()  # persist schema catalog
        with db.transaction():
            account = db.new("Account", {"balance": 123})
        oid = account.oid
        # Simulate crash: no close/checkpoint, just drop the handles.
        db.storage.pager.close()
        db.wal.close()

        reopened = Database(durable_path)
        assert reopened.get(oid)["balance"] == 123
        reopened.close()

    def test_uncommitted_work_lost_on_crash(self, durable_path):
        db = Database(durable_path)
        db.define_class("Account", attributes=[AttributeDef("balance", "Integer")])
        db.checkpoint()
        committed = db.new("Account", {"balance": 1})
        txn = db.transaction()
        uncommitted = db.new("Account", {"balance": 2})
        # Force uncommitted data pages to disk (steal), then crash.
        db.storage.buffer.flush_all()
        db.storage.save_metadata({"schema": db.schema.to_dict()})
        db.storage.pager.close()
        db.wal.close()
        del txn

        reopened = Database(durable_path)
        assert reopened.exists(committed.oid)
        assert not reopened.exists(uncommitted.oid)
        reopened.close()

    @staticmethod
    def _crash_mid_move(path, commit):
        """Move @1 from A to B, write back B's page only, and crash: the
        record is then on both classes' pages on disk."""
        db = Database(path)
        for name in "AB":
            db.define_class(name, attributes=[AttributeDef("v", "Integer")])
        oid = db.new("A", {"v": 5}).oid
        db.new("B", {"v": 0})  # B's heap is cataloged, with room on its page
        db.checkpoint()
        txn = db.transaction()
        SchemaEvolution(db).migrate_instance(oid, "B")
        if commit:
            txn.commit()
        db.storage.buffer.flush_page(db.storage.heap_for("B").page_ids[-1])
        db.storage.pager.close()
        db.wal.close()
        return oid

    def test_crash_after_a_half_flushed_committed_move_reopens_moved(self, durable_path):
        oid = self._crash_mid_move(durable_path, commit=True)
        reopened = Database(durable_path)
        assert reopened.class_of(oid) == "B"
        assert reopened.get_state(oid).values == {"v": 5}
        assert (reopened.count("A"), reopened.count("B")) == (0, 2)
        reopened.close()

    def test_crash_after_a_half_flushed_loser_move_reopens_unmoved(self, durable_path):
        oid = self._crash_mid_move(durable_path, commit=False)
        reopened = Database(durable_path)
        assert reopened.class_of(oid) == "A"
        assert reopened.get_state(oid).values == {"v": 5}
        assert (reopened.count("A"), reopened.count("B")) == (1, 1)
        reopened.close()

    def test_oid_generator_resumes_past_stored(self, durable_path):
        db = Database(durable_path)
        db.define_class("Account", attributes=[AttributeDef("balance", "Integer")])
        first = db.new("Account", {"balance": 1})
        db.close()
        reopened = Database(durable_path)
        second = reopened.new("Account", {"balance": 2})
        assert second.oid.value > first.oid.value
        reopened.close()

    def test_schema_survives_reopen(self, durable_path):
        db = Database(durable_path)
        db.define_class("Base", attributes=[AttributeDef("x", "Integer")])
        db.define_class("Derived", superclasses=("Base",))
        db.close()
        reopened = Database(durable_path)
        assert reopened.schema.is_subclass("Derived", "Base")
        assert "x" in reopened.schema.attributes("Derived")
        reopened.close()
