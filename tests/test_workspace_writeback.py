"""Workspace write-back (``flush`` / ``checkin``) against a plain-Python model.

Each example interleaves checkouts, plain loads, local edits and local
deletes in one workspace with committed updates and deletes from
outside it, NaN values included, then writes back.  The model predicts
the conflicting OIDs: an object checked out, edited or deleted whose
stored values are no longer those it was loaded with (a NaN equals a
NaN), or which is gone.  A write-back must report exactly those, and
then write nothing; without conflicts it writes every edit and delete.

``WRITEBACK_EXAMPLES`` sets the number of seeded examples.
"""

import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AttributeDef, Database
from repro.errors import LockTimeoutError, TransactionError

WRITEBACK_EXAMPLES = int(os.environ.get("WRITEBACK_EXAMPLES", "50"))

NAN = float("nan")
VALUES = (0.0, 1.0, 2.5, NAN)


def _db():
    db = Database()
    db.define_class(
        "Item",
        attributes=[AttributeDef("x", "Float"), AttributeDef("tag", "String")],
    )
    return db


def _same(a, b):
    """Values equal, a NaN equal to a NaN."""
    if a is None or b is None:
        return a is b
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (isinstance(a[k], float) and math.isnan(a[k]) and math.isnan(b[k]))
        for k in a
    )


def _assert_stored(db, committed):
    for oid, values in committed.items():
        stored = db.get_state(oid).values if db.exists(oid) else None
        assert _same(stored, values), (oid, stored, values)


@settings(max_examples=WRITEBACK_EXAMPLES, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_write_back_matches_the_model(seed):
    rng = random.Random(seed)
    db = _db()
    oids = [
        db.new("Item", {"x": rng.choice(VALUES), "tag": "t%d" % i}).oid
        for i in range(rng.randint(2, 6))
    ]
    committed = {oid: dict(db.get_state(oid).values) for oid in oids}
    workspace = db.workspace()
    baseline, changes, deleted, checked_out = {}, {}, set(), set()

    for _step in range(rng.randint(4, 24)):
        oid = rng.choice(oids)
        roll = rng.random()
        if roll < 0.15 and oid not in baseline and committed[oid] is not None:
            workspace.checkout([oid])
            checked_out.add(oid)
            baseline[oid] = dict(committed[oid])
        elif roll < 0.25 and oid not in baseline and committed[oid] is not None:
            workspace.load(oid)
            baseline[oid] = dict(committed[oid])
        elif roll < 0.45 and oid in baseline and oid not in deleted:
            edit = {"x": rng.choice(VALUES)} if rng.random() < 0.7 else {"tag": "mine"}
            workspace.update(oid, edit)
            changes.setdefault(oid, {}).update(edit)
        elif roll < 0.5 and oid in baseline and oid not in deleted:
            workspace.delete(oid)
            deleted.add(oid)
        elif roll < 0.7 and committed[oid] is not None:
            edit = {"x": rng.choice(VALUES)}
            db.update(oid, edit)
            committed[oid].update(edit)
        elif roll < 0.75 and committed[oid] is not None:
            db.delete(oid)
            committed[oid] = None
        elif roll >= 0.75:
            force = rng.random() < 0.2
            checkin = force or rng.random() < 0.3
            checked = sorted(o for o in baseline if o in changes or o in deleted or o in checked_out)
            expected = [
                o for o in checked
                if not force and not _same(committed[o], baseline[o])
            ]
            assert workspace.edited() == sorted(set(changes) | deleted)
            if checkin:
                report = workspace.checkin(force=force)
                assert [c.oid for c in report.conflicts] == expected
            elif expected:
                with pytest.raises(TransactionError) as raised:
                    workspace.flush()
                for o in expected:
                    assert repr(o) in str(raised.value)
            else:
                written = workspace.flush()
                assert written == sum(
                    1 for o in checked
                    if committed[o] is not None and (o in deleted or o in changes)
                )
            if not expected:  # the model writes, all of it
                for o in checked:
                    if committed[o] is None:
                        baseline.pop(o)
                    elif o in deleted:
                        committed[o] = None
                        baseline.pop(o)
                    elif o in changes:
                        committed[o].update(changes[o])
                        baseline[o] = dict(committed[o])
                changes = {o: c for o, c in changes.items() if o in baseline and o not in checked}
                deleted &= set(baseline)
                deleted -= set(checked)
                checked_out &= set(baseline)
                if checkin:
                    baseline, changes, deleted, checked_out = {}, {}, set(), set()
                    workspace = db.workspace()
            _assert_stored(db, committed)
    _assert_stored(db, committed)


class TestWriteBack:
    def test_a_nan_read_twice_is_no_conflict(self):
        db = _db()
        item = db.new("Item", {"x": NAN, "tag": "a"})
        workspace = db.workspace()
        workspace.checkout([item.oid])
        workspace.update(item.oid, {"tag": "b"})
        db.update(item.oid, {"x": NAN})  # stored again: an equal, re-read value
        assert db.storage.load(item.oid).values is not workspace.load(item.oid).baseline
        assert workspace.flush() == 1
        assert db.get_state(item.oid).values["tag"] == "b"

    def test_a_written_state_is_the_new_baseline(self):
        db = _db()
        item = db.new("Item", {"x": 1.0, "tag": "a"})
        workspace = db.workspace()
        memory_object = workspace.load(item.oid)
        memory_object.set("x", 2.0)
        workspace.flush()
        assert memory_object.baseline == {"x": 2.0, "tag": "a"}
        assert not memory_object.dirty and memory_object["x"] == 2.0
        memory_object.set("tag", "b")
        assert workspace.flush() == 1  # its own write is not a conflict

    def test_a_loaded_object_is_checked_only_when_edited(self):
        db = _db()
        read = db.new("Item", {"x": 1.0})
        edited = db.new("Item", {"x": 1.0})
        workspace = db.workspace()
        workspace.load(read.oid)
        workspace.load(edited.oid).set("x", 3.0)
        db.update(read.oid, {"x": 9.0})
        assert workspace.flush() == 1
        assert db.get_state(read.oid).values["x"] == 9.0

    def test_a_local_delete_is_flushed(self):
        db = _db()
        item = db.new("Item", {"x": 1.0})
        workspace = db.workspace()
        workspace.load(item.oid)
        workspace.delete(item.oid)
        assert workspace.edited() == [item.oid]
        assert workspace.flush() == 1
        assert not db.exists(item.oid) and item.oid not in workspace

    def test_a_forced_checkin_skips_a_vanished_object(self):
        db = _db()
        gone = db.new("Item", {"x": 1.0})
        kept = db.new("Item", {"x": 1.0})
        workspace = db.workspace()
        workspace.checkout([gone.oid, kept.oid])
        workspace.update(gone.oid, {"x": 2.0})
        workspace.update(kept.oid, {"x": 2.0})
        db.delete(gone.oid)
        assert [c.oid for c in workspace.checkin().conflicts] == [gone.oid]
        report = workspace.checkin(force=True)
        assert report.ok and report.written == [kept.oid]
        assert not db.exists(gone.oid)

    def test_a_pessimistic_flush_keeps_the_persistent_locks(self):
        db = _db()
        item = db.new("Item", {"x": 1.0})
        workspace = db.workspace(pessimistic=True)
        workspace.checkout([item.oid])
        workspace.update(item.oid, {"x": 2.0})
        assert workspace.flush() == 1
        txn = db.transaction()
        with pytest.raises(LockTimeoutError):
            db.locks.acquire(txn.txn_id, ("object", item.oid), "X", timeout=0.05)
        txn.abort()
        workspace.release()
        db.update(item.oid, {"x": 3.0})
        assert db.get_state(item.oid).values["x"] == 3.0
