"""Concurrency stress: invariants under interleaved transactions."""

import random
import sys
import threading

import pytest

from repro import AttributeDef, Database
from repro.errors import DeadlockError, LockTimeoutError

N_ACCOUNTS = 12
INITIAL = 100


@pytest.fixture
def bank():
    db = Database()
    db.define_class("Account", attributes=[AttributeDef("balance", "Integer")])
    oids = [db.new("Account", {"balance": INITIAL}).oid for _ in range(N_ACCOUNTS)]
    return db, oids


def total_balance(db, oids):
    return sum(db.get(oid)["balance"] for oid in oids)


class TestTransfers:
    def test_concurrent_transfers_conserve_total(self, bank):
        db, oids = bank
        errors = []
        retries = [0]

        def worker(seed):
            rng = random.Random(seed)
            done = 0
            while done < 20:
                src, dst = rng.sample(oids, 2)
                # Lock in OID order to avoid deadlocks; amounts random.
                first, second = (src, dst) if src < dst else (dst, src)
                amount = rng.randrange(1, 10)
                txn = db.transaction()
                try:
                    a = db.get_state(first)
                    b = db.get_state(second)
                    db.update(first, {"balance": a.values["balance"] - amount})
                    db.update(second, {"balance": b.values["balance"] + amount})
                    txn.commit()
                    done += 1
                except (DeadlockError, LockTimeoutError):
                    retries[0] += 1
                    if txn.is_active:
                        txn.abort()
                except Exception as exc:  # pragma: no cover - report real bugs
                    errors.append(exc)
                    if txn.is_active:
                        txn.abort()
                    return

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert total_balance(db, oids) == N_ACCOUNTS * INITIAL
        assert db.locks.lock_count() == 0

    def test_deadlock_victims_abort_cleanly(self, bank):
        db, oids = bank
        outcomes = []
        barrier = threading.Barrier(2)

        def worker(order):
            first, second = (oids[0], oids[1]) if order else (oids[1], oids[0])
            txn = db.transaction()
            try:
                db.update(first, {"balance": 1})
                barrier.wait(timeout=10)
                db.update(second, {"balance": 2})
                txn.commit()
                outcomes.append("committed")
            except (DeadlockError, LockTimeoutError):
                if txn.is_active:
                    txn.abort()
                outcomes.append("aborted")

        threads = [threading.Thread(target=worker, args=(o,)) for o in (True, False)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        # At least one side survives; nobody hangs; locks all released.
        assert "committed" in outcomes or outcomes == ["aborted", "aborted"]
        assert len(outcomes) == 2
        assert db.locks.lock_count() == 0
        # Atomicity: each account holds a committed value, never a torn one.
        for oid in oids[:2]:
            assert db.get(oid)["balance"] in (1, 2, INITIAL)

    def test_readers_see_consistent_snapshots_under_writers(self, bank):
        db, oids = bank
        stop = threading.Event()
        violations = []

        def writer():
            rng = random.Random(1)
            while not stop.is_set():
                src, dst = rng.sample(oids, 2)
                first, second = (src, dst) if src < dst else (dst, src)
                try:
                    with db.transaction():
                        a = db.get_state(first)
                        b = db.get_state(second)
                        db.update(first, {"balance": a.values["balance"] - 1})
                        db.update(second, {"balance": b.values["balance"] + 1})
                except (DeadlockError, LockTimeoutError):
                    pass

        def reader():
            for _ in range(15):
                try:
                    with db.transaction():
                        # Class-level S lock: a full consistent scan.
                        total = sum(
                            h["balance"] for h in db.instances("Account")
                        )
                    if total != N_ACCOUNTS * INITIAL:
                        violations.append(total)
                except (DeadlockError, LockTimeoutError):
                    pass

        writer_thread = threading.Thread(target=writer)
        reader_thread = threading.Thread(target=reader)
        writer_thread.start()
        reader_thread.start()
        reader_thread.join(timeout=60)
        stop.set()
        writer_thread.join(timeout=60)
        assert violations == [], "readers observed torn transfer totals"

    def test_kept_page_lists_stay_exact_under_racing_writers(self, bank):
        """Scanners keep and reuse the accounts page's state list while
        writers rewrite records on that page: every snapshot scan sums to
        the conserved total, and once the writers stop, repeated scans
        (served from a kept list) read exactly what storage holds."""
        db, oids = bank
        query = "SELECT a.balance FROM Account a"
        stop = threading.Event()
        errors, totals = [], []

        def balances():
            result = db.execute(query)
            return dict(zip(result.oids, (row["balance"] for row in result.rows)))

        def writer(seed):
            rng = random.Random(seed)
            done = 0
            while done < 300:
                first, second = sorted(rng.sample(oids, 2))
                try:
                    with db.transaction():
                        a, b = db.get_state(first), db.get_state(second)
                        db.update(first, {"balance": a.values["balance"] - 1})
                        db.update(second, {"balance": b.values["balance"] + 1})
                    done += 1
                except (DeadlockError, LockTimeoutError):
                    pass
                except Exception as exc:  # pragma: no cover - report real bugs
                    errors.append(exc)
                    return

        def scanner():
            while not stop.is_set():
                try:
                    totals.append(sum(balances().values()))
                except Exception as exc:  # pragma: no cover - report real bugs
                    errors.append(exc)
                    return

        writers = [threading.Thread(target=writer, args=(seed,)) for seed in (1, 2)]
        scanners = [threading.Thread(target=scanner) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in writers + scanners:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            stop.set()
            for thread in scanners:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers + scanners)
        assert errors == []
        assert totals and set(totals) == {N_ACCOUNTS * INITIAL}
        stored = {oid: db.get_state(oid).values["balance"] for oid in oids}
        for _ in range(3):
            assert balances() == stored
