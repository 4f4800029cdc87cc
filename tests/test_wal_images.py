"""Write images: each write encodes its object once, and the log's
images are the record bytes the heap stored and replaced.

* **Encode count.**  Through every ``encode_object`` binding the write
  path uses: one encode per insert or update, none per delete.
* **Log parity.**  A seeded DML mix on a file-backed database — inserts,
  updates, deletes, aborts, a long object, a reclass, and updates of
  records written before an ``add_attribute`` — then the log read back
  frame by frame: every before-image is exactly the bytes the previous
  write left in the object's slot (or the checkpointed record), and the
  last after-image of each object is exactly what the heap holds.  An
  abort, and recovery after a crash in the middle of a loser, restore
  the original record bytes, and reads see the added attribute's
  default.
* **Frames.**  The CRC of a frame is computed without copying the
  payload, and one fixed record frames to a golden byte string.

``WAL_PARITY_EXAMPLES`` sets how many fixed seeds the mix runs (CI's
weekly job runs 500); ``WAL_PARITY_SEED`` adds one more seed (CI's
crash-torture job sets it from the run number).
"""

import os
import random
import struct
import zlib

import pytest

from repro import AttributeDef, Database
from repro.core.obj import ObjectState
from repro.core.oid import OID
from repro.evolution import SchemaEvolution
from repro.storage import manager as manager_module
from repro.storage.manager import OVERFLOW_HEAP
from repro.storage.serializer import decode_object, encode_object
from repro.txn import wal as wal_module
from repro.txn.wal import DELETE, INSERT, UPDATE, LogRecord, WriteAheadLog

WAL_PARITY_EXAMPLES = int(os.environ.get("WAL_PARITY_EXAMPLES", "6"))
_EXTRA_SEED = os.environ.get("WAL_PARITY_SEED")
PARITY_SEEDS = list(range(WAL_PARITY_EXAMPLES)) + (
    [int(_EXTRA_SEED)] if _EXTRA_SEED else []
)

#: Bigger than a 1 KiB page: stored as a chain of overflow chunks.
LONG_TEXT = "long-object " * 150
DEFAULT_EXTRA = 7


# -- encode count ------------------------------------------------------------


class TestEncodeCount:
    @pytest.fixture
    def counted(self, tmp_path, monkeypatch):
        """A file-backed database and a list that records every encode,
        at each binding the write path could call."""
        db = Database(str(tmp_path / "count.pages"))
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        calls = []
        for module in (manager_module, wal_module):
            real = module.encode_object

            def counting(state, _real=real, _where=module.__name__):
                calls.append(_where)
                return _real(state)

            monkeypatch.setattr(module, "encode_object", counting)
        yield db, calls
        db.close()

    def test_an_insert_encodes_once(self, counted):
        db, calls = counted
        db.new("Item", {"n": 1})
        assert calls == ["repro.storage.manager"]

    def test_an_update_encodes_once(self, counted):
        db, calls = counted
        oid = db.new("Item", {"n": 1}).oid
        del calls[:]
        db.update(oid, {"n": 2})
        assert calls == ["repro.storage.manager"]

    def test_a_delete_encodes_nothing(self, counted):
        db, calls = counted
        oid = db.new("Item", {"n": 1}).oid
        del calls[:]
        db.delete(oid)
        assert calls == []

    def test_a_transaction_of_two_updates_and_an_insert_encodes_three_times(self, counted):
        db, calls = counted
        first, second = db.new("Item", {"n": 1}).oid, db.new("Item", {"n": 2}).oid
        del calls[:]
        with db.transaction():
            db.update(first, {"n": 3})
            db.update(second, {"n": 4})
            db.new("Item", {"n": 5})
        assert len(calls) == 3


# -- log parity ----------------------------------------------------------------


def stored_images(db):
    """OID value -> the encoding its heap record stores (a long
    object's chunks assembled)."""
    storage = db.storage
    images = {}
    for name in storage.heap_names():
        if name == OVERFLOW_HEAP:
            continue
        for _rid, body in storage.heap_for(name).scan():
            if body.startswith(manager_module._LONG_MAGIC):
                chunks = storage._read_stub(body)[2]
                overflow = storage.heap_for(OVERFLOW_HEAP)
                body = b"".join(overflow.read(rid) for rid in chunks)
            images[decode_object(body).oid.value] = body
    return images


def logged_writes(wal):
    """``(type, before bytes or None, after bytes or None)`` of every
    insert, update and delete frame in the log file, in order."""
    wal._file.flush()
    out = []
    for record_type, _txn, payload in wal._frames(wal.path, "log", wal_module._TYPE_NAMES):
        if record_type not in (INSERT, UPDATE, DELETE):
            continue
        images, pos = [], 0
        for _ in range(2):
            (length,) = struct.unpack_from(">I", payload, pos)
            pos += 4
            images.append(payload[pos : pos + length] if length else None)
            pos += length
        assert pos == len(payload)
        out.append((record_type, images[0], images[1]))
    return out


def check_log_parity(baseline, writes, final):
    """Every before-image is the bytes its slot held, and the chain of
    after-images ends in what the heap holds."""
    chain = dict(baseline)
    for record_type, before, after in writes:
        image = after if before is None else before
        oid = decode_object(image).oid.value
        if record_type == INSERT:
            assert before is None and oid not in chain
        else:
            assert before == chain[oid], "before-image is not the replaced record"
        if record_type == DELETE:
            assert after is None
            del chain[oid]
        else:
            assert encode_object(decode_object(after)) == after
            chain[oid] = after
    assert chain == final, "after-images do not end in the stored records"


def _schema(db):
    db.define_class(
        "Part",
        attributes=[AttributeDef("n", "Integer"), AttributeDef("s", "String")],
    )
    db.define_class("Special", superclasses=("Part",))


def _room(db, oid):
    """The free space on the page holding ``oid``'s record."""
    class_name, page_id, _slot = db.storage.directory.lookup(oid)
    return db.storage.heap_for(class_name).page(page_id).free_space


def _grow(db, oid, rng):
    """Append more to ``oid``'s string than its page has room for: the
    record moves, unless the append makes it a long object instead."""
    text = db.get_state(oid).values["s"] + "g" * (_room(db, oid) + rng.randrange(1, 40))
    db.update(oid, {"s": text})


def _mix(db, rng, old_oids, n_txns):
    """A random mix of committed and aborted transactions.  Returns the
    live OIDs.  An abort must leave every record's bytes as they were."""
    evolution = SchemaEvolution(db)
    live = list(old_oids)
    for _ in range(n_txns):
        commit = rng.random() < 0.65
        before_txn = stored_images(db)
        txn = db.transaction()
        deleted = set()
        created = []
        for _ in range(rng.randrange(1, 6)):
            action = rng.random()
            candidates = [oid for oid in live if oid not in deleted]
            if action < 0.3 or not candidates:
                text = LONG_TEXT if rng.random() < 0.15 else "s%d" % rng.randrange(99)
                created.append(db.new("Part", {"n": rng.randrange(1000), "s": text}).oid)
                continue
            oid = rng.choice(candidates)
            if action < 0.6:
                changes = {"n": rng.randrange(1000)}
                if rng.random() < 0.2:
                    changes["s"] = LONG_TEXT if rng.random() < 0.5 else "short"
                db.update(oid, changes)
            elif action < 0.7:
                _grow(db, oid, rng)
            elif action < 0.8:
                target = "Part" if db.class_of(oid) == "Special" else "Special"
                evolution.migrate_instance(oid, target)
            else:
                db.delete(oid)
                deleted.add(oid)
        if commit:
            txn.commit()
            live = [oid for oid in live if oid not in deleted] + created
        else:
            txn.abort()
            assert stored_images(db) == before_txn, "abort changed a record's bytes"
    return live


def _check_defaults(db, old_oids):
    for oid in old_oids:
        if db.exists(oid):
            assert db.get_state(oid).values["extra"] == DEFAULT_EXTRA


def _crash(db):
    """Write every dirty page back (a steal) and close the files, with
    no commit and no checkpoint."""
    db.storage.buffer.flush_all()
    db.storage.save_metadata()
    db.storage.pager.close()
    db.wal.close()


@pytest.mark.parametrize("seed", PARITY_SEEDS)
def test_logged_images_are_the_stored_and_replaced_records(tmp_path, seed, relocations):
    try:
        _run_parity(str(tmp_path / ("parity-%d.pages" % seed)), seed)
        assert relocations, "no update moved its record"
    except AssertionError as exc:
        raise AssertionError("%s (replay with WAL_PARITY_SEED=%d)" % (exc, seed)) from exc


def _run_parity(path, seed):
    rng = random.Random(seed)
    db = Database(path, page_size=1024, buffer_capacity=8, sync_on_commit=False)
    _schema(db)
    old_oids = [
        db.new("Part", {"n": i, "s": LONG_TEXT if i == 0 else "old-%d" % i}).oid
        for i in range(24)  # page 0 full: a grown record there has to move
    ]
    SchemaEvolution(db).add_attribute(
        "Part", AttributeDef("extra", "Integer", default=DEFAULT_EXTRA)
    )
    db.checkpoint()  # the records above predate ``extra`` and the log
    baseline = stored_images(db)
    assert all(
        "extra" not in decode_object(baseline[oid.value]).values for oid in old_oids
    )
    live = _mix(db, rng, old_oids, n_txns=12)
    check_log_parity(baseline, logged_writes(db.wal), stored_images(db))
    _check_defaults(db, old_oids)

    # A loser touching an old record and the long object, growing one
    # until it moves, then a crash.
    db.checkpoint()
    before_loser = stored_images(db)
    db.transaction()
    for oid in [oid for oid in old_oids if oid in live][:2]:
        db.update(oid, {"n": -1, "s": "loser"})
    if live:
        _grow(db, min(live, key=lambda oid: _room(db, oid)), rng)
    db.new("Part", {"n": -2, "s": LONG_TEXT})
    if len(live) > 2:
        db.delete(live[-1])
    _crash(db)
    reopened = Database(path, page_size=1024, buffer_capacity=8, sync_on_commit=False)
    try:
        assert stored_images(reopened) == before_loser, "recovery changed a record's bytes"
        _check_defaults(reopened, old_oids)
    finally:
        reopened.close()


def test_an_aborted_update_of_an_old_record_restores_its_bytes(tmp_path):
    db = Database(str(tmp_path / "abort.pages"))
    _schema(db)
    oid = db.new("Part", {"n": 1, "s": "x"}).oid
    SchemaEvolution(db).add_attribute(
        "Part", AttributeDef("extra", "Integer", default=DEFAULT_EXTRA)
    )
    original = stored_images(db)[oid.value]
    txn = db.transaction()
    db.update(oid, {"n": 2})
    assert db.get_state(oid).values == {"n": 2, "s": "x", "extra": DEFAULT_EXTRA}
    txn.abort()
    assert stored_images(db)[oid.value] == original
    assert db.get_state(oid).values == {"n": 1, "s": "x", "extra": DEFAULT_EXTRA}
    db.close()


# -- frames ----------------------------------------------------------------------


def test_the_frame_crc_equals_the_crc_of_payload_then_type():
    rng = random.Random(2024)
    for _ in range(300):
        record_type = rng.randrange(256)
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
        assert wal_module._frame_crc(record_type, payload) == zlib.crc32(
            payload + bytes([record_type])
        )


#: The frame of ``_golden_record()``, as the log has always written it.
GOLDEN_FRAME = bytes.fromhex(
    "4044c5b200000064030000000000000007000000320000000000000005000450617274"
    "000300016e4901010001735300000002c3a90002746f4c000000014f000000000000"
    "00090000002a0000000000000005000450617274000300016e4902fed40001735300"
    "000002c3a90002746f4c00000000"
)


def _golden_record(images=(None, None)):
    return LogRecord(
        UPDATE,
        7,
        before=ObjectState(OID(5), "Part", {"n": 1, "s": "é", "to": [OID(9)]}),
        after=ObjectState(OID(5), "Part", {"n": -300, "s": "é", "to": []}),
        images=images,
    )


def test_a_fixed_record_frames_to_the_golden_bytes():
    assert WriteAheadLog._frame(_golden_record()) == GOLDEN_FRAME


def test_a_record_with_its_images_frames_the_same_bytes():
    record = _golden_record()
    images = (encode_object(record.before), encode_object(record.after))
    assert WriteAheadLog._frame(_golden_record(images)) == GOLDEN_FRAME
