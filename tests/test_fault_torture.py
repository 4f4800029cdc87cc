"""Deterministic fault-injection torture: seeded crashes, exact recovery.

Every test drives a random workload through a :class:`FaultPlan` that
crashes the simulated process at an injected I/O operation — tearing the
in-flight write, dropping a random suffix of unsynced writes — then
recovers and asserts the surviving state is *exactly* a legal committed
state.  All randomness derives from the seed, so any failure replays
with::

    FAULT_TORTURE_SEED=<seed> python -m pytest tests/test_fault_torture.py

The one legal ambiguity: a crash during the commit append/fsync itself
may persist or lose that commit (both are correct crash outcomes), so
the acceptable states are "everything confirmed committed" and, when the
crash hit mid-commit, that plus the in-flight transaction.
"""

import os
import random

import pytest

from repro import AttributeDef, Database
from repro.errors import KimDBError, PageCorruptError
from repro.faults import FaultPlan, FaultyFile, InjectedCrash, wrap_file
from repro.storage.page import SlottedPage

#: The fixed seed matrix CI always runs, plus an optional extra seed
#: derived from the CI run number (FAULT_TORTURE_SEED) so every CI run
#: explores one new point of the space.  FAULT_TORTURE_SEED_COUNT widens
#: the fixed matrix (the weekly CI sweep runs 64 seeds instead of 24).
TORTURE_SEEDS = list(range(int(os.environ.get("FAULT_TORTURE_SEED_COUNT", "24"))))
_extra = os.environ.get("FAULT_TORTURE_SEED")
if _extra is not None:
    TORTURE_SEEDS.append(int(_extra))


def _fresh_db(path, **kwargs):
    db = Database(path, **kwargs)
    if "Item" not in {c.name for c in db.schema.user_classes()}:
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
    return db


def _setup(path):
    """Create the database and durably checkpoint the schema, unfaulted."""
    db = _fresh_db(path)
    db.checkpoint()
    db.close()


def current_state(db):
    return {
        state.oid: state.values["n"] for state in db.storage.scan_class("Item")
    }


def run_workload_until_crash(db, rng, n_txns, out):
    """Random inserts/updates/deletes; maintains ``out["acceptable"]``.

    ``out["acceptable"]`` always holds the list of state dicts a
    post-crash recovery may legally show, kept current because the
    injected crash unwinds straight through this function: the
    confirmed-committed state, plus (only while inside a commit call)
    that state with the in-flight transaction applied.
    """
    confirmed = current_state(db)
    live = list(confirmed)
    out["acceptable"] = [dict(confirmed)]
    for _ in range(n_txns):
        commit = rng.random() < 0.8
        txn = db.txns.begin()
        local = {}
        local_deletes = set()
        for _ in range(rng.randrange(1, 5)):
            action = rng.random()
            if action < 0.55 or not live:
                handle = db.new("Item", {"n": rng.randrange(1000)})
                local[handle.oid] = handle["n"]
            elif action < 0.85:
                oid = rng.choice(live)
                if oid in local_deletes or not db.exists(oid):
                    continue
                value = rng.randrange(1000)
                db.update(oid, {"n": value})
                local[oid] = value
            else:
                oid = rng.choice(live)
                if oid in local_deletes or not db.exists(oid):
                    continue
                db.delete(oid)
                local_deletes.add(oid)
                local.pop(oid, None)
        if not commit:
            txn.abort()
            continue
        with_inflight = dict(confirmed)
        with_inflight.update(local)
        for oid in local_deletes:
            with_inflight.pop(oid, None)
        # A crash inside commit() may land on either side of the
        # durability point; afterwards the commit is a fact.
        out["acceptable"] = [dict(confirmed), with_inflight]
        txn.commit()
        confirmed = with_inflight
        out["acceptable"] = [dict(confirmed)]
        live = list(confirmed)


class TestCrashTortureMatrix:
    @pytest.mark.parametrize("seed", TORTURE_SEEDS)
    def test_injected_crash_recovers_exactly_committed_state(self, tmp_path, seed):
        path = str(tmp_path / ("fault-%d.pages" % seed))
        _setup(path)
        rng = random.Random(seed ^ 0xD1CE)
        # Crash points sweep the whole workload: early (schema barely
        # touched), mid-stream, and deep into page write-back territory.
        crash_after = 5 + (seed * 13) % 220
        plan = FaultPlan(seed, crash_after=crash_after)
        out = {"acceptable": [{}]}
        with plan:
            try:
                db = _fresh_db(path, buffer_capacity=4)
                run_workload_until_crash(db, rng, n_txns=40, out=out)
                db.close()
            except InjectedCrash:
                pass
        assert plan.crashed, "crash point %d never fired (seed %d)" % (
            crash_after,
            seed,
        )
        recovered = Database(path)
        survived = current_state(recovered)
        recovered.close()
        assert survived in out["acceptable"], (
            "seed %d crash@%d: recovered %d objects, not a legal committed "
            "state (acceptable sizes %r)"
            % (seed, crash_after, len(survived), [len(a) for a in out["acceptable"]])
        )
        # Second recovery sees the same state: recovery is idempotent.
        again = Database(path)
        assert current_state(again) == survived
        again.close()


# -- relocation mix ------------------------------------------------------------

#: Small pages, so a record outgrows its page after a few appends.
RELOCATION_PAGE_SIZE = 512


def _relocation_db(path, **kwargs):
    db = Database(path, page_size=RELOCATION_PAGE_SIZE, **kwargs)
    if "Note" not in {c.name for c in db.schema.user_classes()}:
        db.define_class(
            "Note", attributes=[AttributeDef("n", "Integer"), AttributeDef("s", "String")]
        )
    return db


def note_state(db):
    return {
        state.oid: (state.values["n"], state.values["s"])
        for state in db.storage.scan_class("Note")
    }


def grow_until_moved(db, oid, rng):
    """Append to ``oid``'s string until its record leaves its page (or
    reaches a bound); returns the final ``(n, s)``."""
    state = db.get_state(oid)
    n, text = state.values["n"], state.values["s"]
    page = db.storage.directory.lookup(oid)[1]
    for _ in range(6):
        text += rng.choice("abc") * rng.randrange(30, 90)
        db.update(oid, {"s": text})
        if db.storage.directory.lookup(oid)[1] != page:
            break
    return n, text


def run_relocation_mix_until_crash(db, rng, n_txns, out):
    """:func:`run_workload_until_crash` over ``Note``, where each
    transaction opens with a growing update that moves its record (the
    first one the oldest note's, on a full page: it moves at once), and
    strings reset to short from time to time so pages keep refilling."""
    confirmed = note_state(db)
    out["acceptable"] = [dict(confirmed)]
    for txn_no in range(n_txns):
        commit = rng.random() < 0.8
        txn = db.txns.begin()
        live = sorted(confirmed)
        local, local_deletes = {}, set()
        if live:
            oid = live[0] if txn_no == 0 else rng.choice(live)
            local[oid] = grow_until_moved(db, oid, rng)
        for _ in range(rng.randrange(0, 4)):
            action = rng.random()
            candidates = [oid for oid in live if oid not in local_deletes]
            if action < 0.4 or not candidates:
                value = (rng.randrange(1000), "s" * rng.randrange(40))
                handle = db.new("Note", {"n": value[0], "s": value[1]})
                local[handle.oid] = value
                continue
            oid = rng.choice(candidates)
            if action < 0.6:
                local[oid] = grow_until_moved(db, oid, rng)
            elif action < 0.85:
                n = rng.randrange(1000)
                db.update(oid, {"n": n, "s": ""})
                local[oid] = (n, "")
            else:
                db.delete(oid)
                local_deletes.add(oid)
                local.pop(oid, None)
        if not commit:
            txn.abort()
            continue
        with_inflight = dict(confirmed)
        with_inflight.update(local)
        for oid in local_deletes:
            with_inflight.pop(oid, None)
        out["acceptable"] = [dict(confirmed), with_inflight]
        txn.commit()
        confirmed = with_inflight
        out["acceptable"] = [dict(confirmed)]


class TestRelocationTorture:
    @pytest.mark.parametrize("seed", TORTURE_SEEDS)
    def test_relocating_updates_recover_exactly_committed_state(
        self, tmp_path, seed, relocations
    ):
        path = str(tmp_path / ("relocate-%d.pages" % seed))
        db = _relocation_db(path)
        for i in range(24):  # three full pages: the first growth moves
            db.new("Note", {"n": i, "s": "s" * 30})
        db.checkpoint()
        db.close()
        del relocations[:]
        rng = random.Random(seed ^ 0xF00D)
        crash_after = 5 + (seed * 13) % 220
        plan = FaultPlan(seed, crash_after=crash_after)
        out = {"acceptable": [{}]}
        with plan:
            try:
                db = _relocation_db(path, buffer_capacity=4)
                run_relocation_mix_until_crash(db, rng, n_txns=40, out=out)
                db.close()
            except InjectedCrash:
                pass
        replay = "seed %d crash@%d (replay with FAULT_TORTURE_SEED=%d)" % (
            seed, crash_after, seed,
        )
        assert plan.crashed, "crash point never fired: " + replay
        assert relocations, "no update moved its record before the crash: " + replay
        recovered = _relocation_db(path)
        survived = note_state(recovered)
        recovered.close()
        assert survived in out["acceptable"], (
            "%s: recovered %d objects, not a legal committed state" % (replay, len(survived))
        )
        again = _relocation_db(path)
        assert note_state(again) == survived
        again.close()


class TestCrashDuringRecovery:
    @pytest.mark.parametrize("seed", [3, 11, 17, 29])
    def test_crash_during_recovery_then_clean_recovery(self, tmp_path, seed):
        path = str(tmp_path / ("rec-crash-%d.pages" % seed))
        _setup(path)
        rng = random.Random(seed)
        first = FaultPlan(seed, crash_after=40 + seed)
        out = {"acceptable": [{}]}
        with first:
            try:
                db = _fresh_db(path, buffer_capacity=4)
                run_workload_until_crash(db, rng, n_txns=40, out=out)
                db.close()
            except InjectedCrash:
                pass
        assert first.crashed

        # Crash again, mid-recovery this time.
        second = FaultPlan(seed + 1000, crash_after=3)
        with second:
            try:
                Database(path)
            except InjectedCrash:
                pass
        # Whether or not the second crash fired before recovery finished,
        # a clean recovery must still land on a legal committed state:
        # recovery is restartable from any interruption point.
        recovered = Database(path)
        survived = current_state(recovered)
        recovered.close()
        assert survived in out["acceptable"]


class TestChecksumAndRepair:
    def test_flipped_byte_raises_naming_the_page(self):
        page = SlottedPage.empty(512)
        page.insert(b"hello world")
        data = bytearray(page.to_bytes())
        data[100] ^= 0x41
        with pytest.raises(PageCorruptError) as exc_info:
            SlottedPage.from_bytes(bytes(data), page_id=7)
        assert exc_info.value.page_id == 7
        assert "page 7" in str(exc_info.value)

    def test_round_trip_verifies_clean(self):
        page = SlottedPage.empty(512)
        slot = page.insert(b"payload")
        restored = SlottedPage.from_bytes(page.to_bytes(), page_id=3)
        assert restored.read(slot) == b"payload"

    def test_all_zero_page_is_checksum_exempt(self):
        SlottedPage.verify_bytes(bytes(512), page_id=1)  # must not raise

    def test_torn_page_repaired_from_image_log(self, tmp_path):
        path = str(tmp_path / "repair.pages")
        _setup(path)
        db = _fresh_db(path)
        with db.transaction():
            for i in range(30):
                db.new("Item", {"n": i})
        expected = current_state(db)
        # Flush pages (logging durable images) but do NOT checkpoint:
        # the image log must survive for repair.
        db.storage.buffer.flush_all()
        db.storage.save_metadata()
        db.storage.pager.close()
        db.wal.close()

        # Tear a data page on disk: keep its first half, zero the rest.
        from repro.storage.pager import FilePager

        with open(path, "r+b") as handle:
            offset = FilePager.HEADER_SIZE  # page 0: the Item heap page
            handle.seek(offset)
            good = handle.read(4096)
            assert len(good) == 4096, "page 0 missing from the file"
            torn = good[:2048] + bytes(2048)
            assert torn != good, "page 0 back half was already empty"
            handle.seek(offset)
            handle.write(torn)

        recovered = Database(path)
        assert current_state(recovered) == expected
        reimaged = [
            row["value"]
            for row in recovered.select(
                "SysStat where name = 'recovery.pages_reimaged'"
            )
        ]
        assert reimaged == [1]
        recovered.close()

    def test_fault_metric_family_visible_via_sysstat(self):
        db = Database()
        names = {row["name"] for row in db.select("SysStat")}
        assert "fault.page_corruptions" in names
        assert "fault.wal_torn_tail" in names
        db.close()


class TestFaultPrimitives:
    def test_transient_errors_are_bounded_and_counted(self, tmp_path):
        path = str(tmp_path / "transient.pages")
        _setup(path)
        plan = FaultPlan(7, os_error_rate=0.2, os_error_budget=3)
        with plan:
            db = _fresh_db(path)
            stored = 0
            for i in range(40):
                try:
                    txn = db.txns.begin()
                    db.new("Item", {"n": i})
                    txn.commit()
                    stored += 1
                except OSError:
                    # A transient EIO anywhere in the transaction aborts
                    # it; the abort itself may hit another injected
                    # error, but the budget bounds the retries.
                    current = db.txns.current
                    while current is not None and current.is_active:
                        try:
                            current.abort()
                        except OSError:
                            continue
                        break
            while True:
                try:
                    db.close()
                    break
                except OSError:
                    continue
        assert plan.os_error_budget == 0, "error budget never exhausted"
        assert stored >= 37  # at most 3 transactions lost to EIO
        survived = Database(path)
        assert len(current_state(survived)) == stored
        survived.close()

    def test_lying_fsync_failures_are_detected_not_silent(self, tmp_path):
        """With lying fsyncs all durability bets are off; what remains
        guaranteed is that recovery either reaches *some* consistent
        state or fails with a typed error — never silent garbage."""
        path = str(tmp_path / "liar.pages")
        _setup(path)
        plan = FaultPlan(99, crash_after=120, lying_fsync_rate=1.0)
        out = {"acceptable": [{}]}
        with plan:
            try:
                db = _fresh_db(path, buffer_capacity=4)
                run_workload_until_crash(db, random.Random(99), n_txns=40, out=out)
                db.close()
            except InjectedCrash:
                pass
        assert plan.crashed
        try:
            recovered = Database(path)
            for state in recovered.storage.scan_class("Item"):
                assert isinstance(state.values["n"], int)
            recovered.close()
        except KimDBError:
            pass  # detected corruption is an acceptable outcome

    def test_wrap_file_is_identity_without_plan(self, tmp_path):
        handle = open(str(tmp_path / "plain"), "wb")
        assert wrap_file(handle, "x") is handle
        handle.close()

    def test_same_seed_same_fault_schedule(self, tmp_path):
        ops = []
        for round_no in range(2):
            path = str(tmp_path / ("det-%d.pages" % round_no))
            _setup(path)
            plan = FaultPlan(1234, crash_after=30)
            with plan:
                try:
                    db = _fresh_db(path)
                    with db.transaction():
                        for i in range(100):
                            db.new("Item", {"n": i})
                    db.close()
                except InjectedCrash:
                    pass
            ops.append(plan.io_ops)
        assert ops[0] == ops[1]

    def test_injected_crash_is_not_an_exception(self):
        assert not issubclass(InjectedCrash, Exception)
        assert issubclass(InjectedCrash, BaseException)

    def test_faulty_file_undo_restores_overwrites(self, tmp_path):
        path = str(tmp_path / "undo.bin")
        with open(path, "wb") as handle:
            handle.write(b"A" * 64)
        plan = FaultPlan(5)
        raw = open(path, "r+b")
        proxy = FaultyFile(raw, "undo-test", plan)
        proxy.seek(16)
        proxy.write(b"B" * 8)

        class _DropAll:
            """rng stub: keep a zero-length prefix of unsynced writes."""

            @staticmethod
            def randrange(_n):
                return 0

        proxy._rewind_unsynced(_DropAll())
        raw.close()
        with open(path, "rb") as handle:
            assert handle.read() == b"A" * 64
