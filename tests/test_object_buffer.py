"""Race stress for the object buffer's one invalidation rule.

Seeded writer threads update (growing and shrinking records, so some
move), delete, reinsert and reclass their own objects while reader
threads dereference any object through a snapshot view, read it with
``get_state`` or scan a class with a snapshot ``execute`` (which builds
and keeps page state lists); updates read through ``_load_for_write``.
A four-frame pool of 512-byte pages drops frames all the time, and a
tiny GIL switch interval interleaves the threads finely.  The pool and
the pages carry no latches of their own (two threads faulting one page,
or inserting into one page, can race outside the object buffer), so the
stress makes each page fetch and each heap change atomic with a test
latch; every step of the object buffer's own protocol still interleaves
freely.  Each write sleeps between its page change and its pop, the
window in which a scan sees the new record while the buffer still holds
the old state.  After each scan, under the latch, and after the threads
join, every kept page state list equals a fresh decode of its page.
After the threads join also: no read returned another object's state,
no scan returned an object twice, at least one update moved its record,
the buffer holds no more states than its bound, and every buffered
state equals a fresh decode of its object's current record, on a frame
fetched again when it was evicted: a state outlives its page's frame.
A second run bounds the buffer to a few states, so its own evictions
race the readers and the writers; there the readers also sample the
``storage.object_buffer_states`` gauge.  A failure names its seed;
replay with::

    OBJECT_BUFFER_SEED=<seed> python -m pytest tests/test_object_buffer.py

``OBJECT_BUFFER_ROUNDS`` sets the writes per writer thread (the weekly
CI sweep runs 500).
"""

import os
import random
import sys
import threading
import time

import pytest

from repro import AttributeDef, Database
from repro.core.obj import ObjectState
from repro.core.oid import OID
from repro.errors import ObjectNotFoundError
from repro.storage import manager as manager_module
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.manager import StorageManager
from repro.storage.serializer import decode_object

ROUNDS = int(os.environ.get("OBJECT_BUFFER_ROUNDS", "60"))
SEEDS = [1, 2, 3]
_extra = os.environ.get("OBJECT_BUFFER_SEED")
if _extra is not None:
    SEEDS.append(int(_extra))

WRITERS, READERS, OBJECTS_PER_WRITER = 2, 2, 10


def _values(rng):
    return {"x": rng.randrange(1000), "pad": "p" * rng.choice((0, 0, 20, 150))}


def _writer(db, rng, mine, every):
    # The first object sits on a full page: outgrowing it, it moves.
    db.update(mine[0], {"x": 0, "pad": "p" * 300})
    for _ in range(ROUNDS):
        oid = rng.choice(mine)
        roll = rng.random()
        if roll < 0.55:
            db.update(oid, _values(rng))
        elif roll < 0.75:
            db.delete(oid)
            mine.remove(oid)
            new = db.new(rng.choice("TU"), _values(rng)).oid
            mine.append(new)
            every.append(new)
        else:
            state = db.get_state(oid)
            other = "U" if state.class_name == "T" else "T"
            db.put_state(ObjectState(oid, other, state.values))


def _read(db, rng, oid):
    kind = rng.randrange(3)
    if kind == 0:
        return db.get_state(oid)
    if kind == 1:
        with db.transaction():
            return db.read_state(oid)
    view = db._snapshot_view()
    try:
        return view.deref(oid)
    finally:
        db._read_close(view)


def _stale_kept_lists(storage):
    """Resident pages whose current kept state list differs from a fresh
    decode of the page; run with no heap change in flight."""
    stale = []
    for page_id in storage.buffer.resident_pages():
        page = storage.buffer.get_page(page_id)
        kept = page._states
        if kept is not None and kept[0] == page._writes and kept[1] is not None:
            if list(kept[1]) != [decode_object(body) for _slot, body in page.records()]:
                stale.append(page_id)
    return stale


def _scan(db, class_name, latch, wrong):
    result = db.execute("SELECT t.x FROM %s t" % class_name)
    if len(set(result.oids)) != len(result.oids):
        wrong.append((class_name, result.oids))
    with latch:
        stale = _stale_kept_lists(db.storage)
    if stale:
        wrong.append(("stale kept lists", stale))


def _reader(db, rng, every, latch, done, wrong, sizes):
    while not done.is_set():
        if rng.random() < 0.2:
            _scan(db, rng.choice("TU"), latch, wrong)
            continue
        oid = rng.choice(every)
        try:
            state = _read(db, rng, oid)
        except ObjectNotFoundError:
            continue
        if state is not None and state.oid != oid:
            wrong.append((oid, state))
        sizes.append(db.metrics.value("storage.object_buffer_states"))


def _guarded(target, errors, *args):
    try:
        target(*args)
    except BaseException as exc:  # reported by the test, with the seed
        errors.append(exc)


@pytest.fixture
def latched(monkeypatch):
    latch = threading.RLock()
    for owner, name in (
        (BufferPool, "get_page"),
        (HeapFile, "insert"),
        (HeapFile, "update"),
        (HeapFile, "delete"),
    ):
        def atomic(*args, _real=getattr(owner, name), **kwargs):
            with latch:
                return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, atomic)
    real_wrote = StorageManager._wrote

    def wrote(*args):
        time.sleep(2e-3)  # scans run between the write's page change and its pop
        real_wrote(*args)

    monkeypatch.setattr(StorageManager, "_wrote", wrote)
    return latch


@pytest.mark.parametrize("seed", SEEDS)
def test_the_buffer_agrees_with_the_records_after_racing_threads(seed, latched, relocations):
    _race(seed, latched, relocations)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_bounded_buffer_agrees_with_the_records_after_racing_threads(
    seed, latched, relocations, monkeypatch
):
    bound = 3
    monkeypatch.setattr(manager_module, "OBJECT_BUFFER_STATES", bound)
    sizes = _race(seed, latched, relocations)
    # An admission inserts before it evicts: each thread inside one may
    # hold one state over the bound, and none is left over once all are out.
    assert sizes and max(sizes) <= bound + WRITERS + READERS, seed
    assert len(sizes) > sizes.count(0), ("the buffer never held a state", seed)


def _race(seed, latch, relocations):
    """Run the writers and the readers on ``seed`` and check the buffer
    against the records; returns the gauge values the readers saw."""
    db = Database(page_size=512, buffer_capacity=4)
    for name in "TU":
        db.define_class(
            name, attributes=[AttributeDef("x", "Integer"), AttributeDef("pad", "String")]
        )
    rng = random.Random(seed)
    owned = [
        [db.new("T", _values(rng)).oid for _ in range(OBJECTS_PER_WRITER)]
        for _ in range(WRITERS)
    ]
    every = [oid for mine in owned for oid in mine]
    done = threading.Event()
    wrong, errors, sizes = [], [], []
    writers = [
        threading.Thread(
            target=_guarded,
            args=(_writer, errors, db, random.Random(seed * 31 + k), mine, every),
            daemon=True,
        )
        for k, mine in enumerate(owned)
    ]
    readers = [
        threading.Thread(
            target=_guarded,
            args=(
                _reader, errors, db, random.Random(seed * 37 + k), every, latch, done,
                wrong, sizes,
            ),
            daemon=True,
        )
        for k in range(READERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join(120)
    finally:
        done.set()
        for thread in readers:
            thread.join(120)
        sys.setswitchinterval(interval)
    replay = "replay with OBJECT_BUFFER_SEED=%d" % seed
    assert not any(thread.is_alive() for thread in writers + readers), replay
    assert errors == [], (replay, errors)
    assert wrong == [], replay
    assert relocations, ("no update moved its record", replay)

    storage = db.storage
    buffered = list(storage._objects.items())
    assert len(buffered) <= manager_module.OBJECT_BUFFER_STATES, replay
    for value, state in buffered:
        _class, page_id, slot = storage.directory.lookup(OID(value))
        page = storage.buffer.get_page(page_id)  # fetched again if evicted
        assert decode_object(page.read(slot)) == state, replay
    assert _stale_kept_lists(storage) == [], replay
    return sizes
