"""E13: durability cost and recovery correctness.

Commit throughput across durability settings (in-memory log, file log
without fsync, file log with fsync-on-commit), plus a measured crash
recovery replaying committed work and discarding losers.  The group
commit comparison measures fsyncs and WALSync waits per commit when
concurrent committers share one covering sync.
"""

import os
import threading

import pytest
from conftest import print_table, timed

from repro import AttributeDef, Database

BATCH = 100


def insert_batch(db, count=BATCH, offset=0):
    with db.transaction():
        for position in range(count):
            db.new("Entry", {"n": offset + position})


def make_db(tmp_path, name, sync):
    path = str(tmp_path / name) if name else None
    db = Database(path, sync_on_commit=sync)
    db.define_class("Entry", attributes=[AttributeDef("n", "Integer")])
    return db


def test_commit_memory_log(tmp_path, benchmark):
    db = make_db(tmp_path, None, sync=False)
    counter = [0]

    def run():
        insert_batch(db, offset=counter[0])
        counter[0] += BATCH

    benchmark(run)


def test_commit_file_log_nosync(tmp_path, benchmark):
    db = make_db(tmp_path, "nosync.pages", sync=False)
    counter = [0]

    def run():
        insert_batch(db, offset=counter[0])
        counter[0] += BATCH

    benchmark(run)
    db.close()


def test_commit_file_log_fsync(tmp_path, benchmark):
    db = make_db(tmp_path, "sync.pages", sync=True)
    counter = [0]

    def run():
        insert_batch(db, offset=counter[0])
        counter[0] += BATCH

    benchmark(run)
    db.close()


def test_durability_cost_summary(tmp_path):
    rows = []
    times = {}
    for label, name, sync in (
        ("memory log", None, False),
        ("file log, no fsync", "a.pages", False),
        ("file log, fsync on commit", "b.pages", True),
    ):
        db = make_db(tmp_path, name, sync)
        t, _ = timed(lambda: [insert_batch(db, 20, offset=i * 20) for i in range(5)])
        times[label] = t
        rows.append((label, round(t * 1e3, 2)))
        if name:
            db.close()
    print_table("E13a: 5 transactions x 20 inserts", ("configuration", "ms"), rows)
    assert times["memory log"] <= times["file log, fsync on commit"] * 1.5


def _concurrent_commits(db, n_threads, txns_per_thread):
    def worker(base):
        for i in range(txns_per_thread):
            db.new("Entry", {"n": base + i})

    threads = [
        threading.Thread(target=worker, args=(t * txns_per_thread,))
        for t in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)


def test_group_commit_shares_fsyncs(tmp_path):
    """E13c: one commit barrier — concurrent committers share WAL syncs.

    The same 96 durable commits, issued serially (every batch is a
    batch of one: N commits cost N fsyncs and N WALSync waits) and by 8
    concurrent writers (one leader's fsync covers every commit whose
    record it flushed, so syncs per commit drop below 1 under load).
    """
    results = {}
    commits = 8 * 12
    for label, n_threads in (("1 writer (serial)", 1), ("8 writers", 8)):
        db = Database(str(tmp_path / ("gc-%d.pages" % n_threads)))
        db.define_class("Entry", attributes=[AttributeDef("n", "Integer")])
        syncs0 = db.metrics.counter("wal.syncs").value
        t, _ = timed(_concurrent_commits, db, n_threads, commits // n_threads)
        syncs = db.metrics.counter("wal.syncs").value - syncs0
        wal_waits = [
            row
            for row in db.select("SysWaitEvent where kind = 'WALSync'")
        ]
        sync_waits = sum(row["count"] for row in wal_waits)
        batches = db.metrics.counter("wal.group_commit.batches").value
        results[label] = {
            "seconds": t,
            "syncs": syncs,
            "sync_waits": sync_waits,
            "batches": batches,
            "syncs_per_commit": syncs / commits,
        }
        assert db.count("Entry") == commits
        db.close()
    print_table(
        "E13c: 96 durable commits",
        ("configuration", "fsyncs", "WALSync waits", "batches", "syncs/commit", "ms"),
        [
            (
                label,
                r["syncs"],
                r["sync_waits"],
                r["batches"],
                round(r["syncs_per_commit"], 3),
                round(r["seconds"] * 1e3, 1),
            )
            for label, r in results.items()
        ],
    )
    # Serial commits pay one fsync each; concurrent committers must
    # collapse fsyncs (and the waits they cause) below one per commit.
    assert results["1 writer (serial)"]["syncs"] >= commits
    assert results["8 writers"]["syncs"] < results["1 writer (serial)"]["syncs"]
    assert results["8 writers"]["batches"] >= 1


def test_recovery_time_and_correctness(tmp_path):
    path = str(tmp_path / "crashme.pages")
    db = Database(path, sync_on_commit=False)
    db.define_class("Entry", attributes=[AttributeDef("n", "Integer")])
    db.checkpoint()
    for batch in range(5):
        insert_batch(db, 50, offset=batch * 50)
    committed = db.count("Entry")
    txn = db.transaction()
    for position in range(25):
        db.new("Entry", {"n": 10_000 + position})
    # Crash with an open transaction: close files without checkpoint.
    db.storage.buffer.flush_all()
    db.storage.save_metadata()
    db.storage.pager.close()
    db.wal.close()
    del txn

    t_recover, reopened = timed(Database, path)
    survived = reopened.count("Entry")
    print_table(
        "E13b: crash recovery",
        ("metric", "value"),
        [
            ("committed before crash", committed),
            ("uncommitted in-flight", 25),
            ("entries after recovery", survived),
            ("recovery ms", round(t_recover * 1e3, 1)),
            ("wal bytes", os.path.getsize(path + ".wal")),
        ],
    )
    assert survived == committed
    reopened.close()
