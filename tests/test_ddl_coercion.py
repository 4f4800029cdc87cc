"""Coerce once, where a state leaves storage — and DDL drops what was.

The storage manager coerces each record to its class's current
definition when it decodes it, so the object buffer and the pages' kept
state lists hold coerced states, and every schema change empties both
(``Schema.on_change`` → ``StorageManager.forget_states``), moving the
write stamp a path memo watches and each resident page's write count.

* **Renames keep their values.**  ``rename_attribute`` and
  ``rename_class`` on records that are buffered and on kept page
  tuples, one of them written before an ``add_attribute``: every value
  reads back under its new name.
* **DDL mid-build.**  An ``add_attribute`` that lands while a page's
  state list is being built: the next scan shows the new default, and
  no tuple built under the old definition is kept.
* **A snapshot across a class rename** reads the before-image of an
  object written since it opened, under the new name.
* **Seeded DDL mix.**  ``add_attribute``, ``drop_attribute`` and both
  renames between reads through every read source — snapshot deref,
  buffered load, kept page tuple, path memo, version-chain
  before-image, handle read and server ``get`` — and every row read has
  exactly its class's declared keys at read time.  One snapshot stays
  open across the whole mix, class renames included, and its scans
  return every object once.

``DDL_MIX_EXAMPLES`` sets how many seeds the mix runs (CI's weekly job
runs 500).  A failure names its seed.
"""

import os
import random

import pytest

from repro import AttributeDef, Database
from repro.errors import AttributeNotFoundError
from repro.evolution import SchemaEvolution
from repro.server import Client, Server
from repro.storage import manager as manager_module

DDL_MIX_EXAMPLES = int(os.environ.get("DDL_MIX_EXAMPLES", "4"))


def _values(db, oids):
    return [db.get_state(oid).values for oid in oids]


def _warm(db, class_name, oids):
    """Read every object and scan its extent three times: from the
    second read on each state is buffered, and each page keeps its list."""
    for _ in range(3):
        _values(db, oids)
        db.execute("SELECT p FROM %s p" % class_name)


# -- renames -----------------------------------------------------------------------


def test_renames_keep_every_value_of_buffered_and_kept_records():
    db = Database(page_size=1024)
    db.define_class(
        "P", attributes=[AttributeDef("a", "Integer"), AttributeDef("b", "String")]
    )
    db.define_class("Q", superclasses=("P",))
    evolution = SchemaEvolution(db)
    old = [db.new("P", {"a": i, "b": "old%d" % i}).oid for i in range(12)]
    evolution.add_attribute("P", AttributeDef("c", "Integer", default=5))
    new = [
        db.new(cls, {"a": 100 + i, "b": "new%d" % i, "c": i}).oid
        for i, cls in enumerate("PQPQ")
    ]
    oids = old + new
    expected = {oid: dict(db.get_state(oid).values) for oid in oids}
    assert all(expected[oid]["c"] == 5 for oid in old)  # stored without it
    for class_name in ("P", "Q"):
        _warm(db, class_name, oids)
    assert len(db.storage._objects) == len(oids)
    kept = [page._states for page in db.storage.buffer.frames()]
    assert all(states is not None and states[1] is not None for states in kept)

    evolution.rename_attribute("P", "a", "alpha")
    for values in expected.values():
        values["alpha"] = values.pop("a")
    assert _values(db, oids) == [expected[oid] for oid in oids]
    for class_name in ("P", "Q"):
        _warm(db, class_name, oids)

    evolution.rename_class("P", "R")
    assert _values(db, oids) == [expected[oid] for oid in oids]
    assert [db.class_of(oid) for oid in oids] == ["R"] * 12 + ["R", "Q", "R", "Q"]
    rows = {state.oid: state.values for state in db.execute("SELECT r FROM R r").states}
    assert rows == {oid: expected[oid] for oid in oids}


def test_a_snapshot_reads_its_before_image_across_a_class_rename():
    db = Database()
    db.define_class("A", attributes=[AttributeDef("n", "Integer")])
    oid = db.new("A", {"n": 1}).oid
    view = db._snapshot_view()
    try:
        db.update(oid, {"n": 2})
        SchemaEvolution(db).rename_class("A", "B")
        state = view.deref(oid)
        assert (state.class_name, state.values) == ("B", {"n": 1})
        assert [(s.oid, s.values) for s in view.scan("B")] == [(oid, {"n": 1})]
        assert list(view.scan("A")) == []
    finally:
        db._read_close(view)
    assert (db.class_of(oid), db.get_state(oid).values) == ("B", {"n": 2})


# -- a schema change while a page's state list is built ----------------------------


def test_an_add_attribute_while_a_page_list_is_built_keeps_no_old_tuple(monkeypatch):
    db = Database()
    db.define_class("T", attributes=[AttributeDef("x", "Integer")])
    oids = [db.new("T", {"x": x}).oid for x in range(10)]
    (page_id,) = db.storage.heap_for("T").page_ids
    db.execute("SELECT t FROM T t")  # the first build: nothing kept yet
    real, decodes = manager_module.decode_object, []

    def decode(data):
        decodes.append(data)
        if len(decodes) == 2:  # the first row is coerced under the old map
            SchemaEvolution(db).add_attribute("T", AttributeDef("y", "Integer", default=7))
        return real(data)

    monkeypatch.setattr(manager_module, "decode_object", decode)
    mixed = db.execute("SELECT t FROM T t").states  # the build the change lands in
    monkeypatch.setattr(manager_module, "decode_object", real)
    assert "y" not in mixed[0].values and mixed[-1].values["y"] == 7
    page = db.storage.buffer.get_page(page_id)
    assert page._states is None or page._states[0] != page._writes  # nothing kept
    for _ in range(3):
        rows = db.execute("SELECT t FROM T t").states
        assert sorted(state.oid for state in rows) == sorted(oids)
        assert all(state.values == {"x": state.values["x"], "y": 7} for state in rows)
    assert all(db.get_state(oid).values["y"] == 7 for oid in oids)


# -- the seeded DDL mix ------------------------------------------------------------


class _Mix:
    """One seed's database, its read sources and the DDL it runs."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.db = db = Database(page_size=1024)
        db.define_class(
            "Part", attributes=[AttributeDef("n", "Integer"), AttributeDef("s", "String")]
        )
        db.define_class(
            "Sub", superclasses=("Part",), attributes=[AttributeDef("k", "Integer")]
        )
        self.evolution = SchemaEvolution(db)
        self.oids = [
            db.new("Sub" if i % 3 == 0 else "Part", {"n": i, "s": "s%d" % i}).oid
            for i in range(30)
        ]
        self.sub = "Sub"  # renamed back and forth
        self.added = 0
        self.dropped = set()
        self.chain_reads = 0
        self.server = Server(db, port=0, workers=1)
        self.server.start()
        self.client = Client(*self.server.address)
        self._open_old_view()

    def _open_old_view(self) -> None:
        """A snapshot kept open across the mix, and a path memo over it:
        the objects written since it opened resolve to version-chain
        before-images through both."""
        self.old_view = self.db._snapshot_view()
        self.memo, self.memo_flush = self.old_view.path_memo()

    def close(self) -> None:
        self.client.close()
        self.server.stop()
        self.db._read_close(self.old_view)
        self.db.close()

    # -- checks --

    def check(self, state, source: str) -> None:
        declared = self.db.schema.attribute_map(state.class_name)
        assert set(state.values) == set(declared), (source, state, sorted(declared))

    def read_everything(self) -> None:
        db, oids = self.db, self.oids
        for _ in range(2):  # the second pass reads what the first kept
            for oid in oids:
                self.check(db.storage.load(oid), "buffered load")
                self.check(db.get_state(oid), "get_state")
            for cls in ("Part", self.sub):
                for state in db.storage.scan_class(cls):
                    self.check(state, "kept page tuple")
                for state in db.execute("SELECT p FROM ONLY %s p" % cls).states:
                    self.check(state, "query scan")
            view = db._snapshot_view()
            try:
                for oid in oids:
                    self.check(view.deref(oid), "snapshot deref")
            finally:
                db._read_close(view)
            for oid in self.rng.sample(oids, 10):
                self.check(self.memo(oid), "path memo")
            changed = self.old_view.changed()
            for oid in oids:
                state = self.old_view.deref(oid)
                if state is not None:
                    self.chain_reads += oid in changed
                    self.check(state, "version-chain before-image")
            seen = []
            for cls in ("Part", self.sub):
                for state in self.old_view.scan(cls):
                    self.check(state, "snapshot scan")
                    seen.append(state.oid)
            # Nothing is deleted: the old snapshot scans every object once.
            assert sorted(seen) == sorted(oids), ("snapshot scan", seen)
            for oid in self.rng.sample(oids, 5):
                handle = db.get(oid)
                declared = db.schema.attribute_map(db.class_of(oid))
                for name in declared:
                    handle[name]
                for name in self.dropped - set(declared):
                    with pytest.raises(AttributeNotFoundError):
                        handle[name]
                with db.transaction():
                    self.check(db.read_state(oid), "transaction read")
                row = self.client.get(oid)
                assert set(row["values"]) == set(declared), ("server get", row)
        self.memo_flush()

    # -- writes and DDL --

    def write(self) -> None:
        oid = self.rng.choice(self.oids)
        self.db.update(oid, {"n": self.rng.randrange(1000)})

    def ddl(self) -> None:
        rng, evolution = self.rng, self.evolution
        own = [
            name
            for name in self.db.schema.get_class("Part").own_attributes
            if name not in ("n", "s")
        ]
        action = rng.random()
        if action < 0.35 or not own:
            self.added += 1
            name = "a%d" % self.added
            evolution.add_attribute("Part", AttributeDef(name, "Integer", default=self.added))
        elif action < 0.6:
            name = rng.choice(own)
            evolution.drop_attribute("Part", name)
            self.dropped.add(name)
        elif action < 0.85:
            name = rng.choice(own)
            evolution.rename_attribute("Part", name, name + "r")
            self.dropped.add(name)
        else:
            # The open snapshot keeps reading across the rename: its
            # before-images are filed under the new name.
            renamed = "Sub2" if self.sub == "Sub" else "Sub"
            evolution.rename_class(self.sub, renamed)
            self.sub = renamed


@pytest.mark.parametrize("seed", range(DDL_MIX_EXAMPLES))
def test_every_read_source_has_the_declared_keys_across_ddl(seed):
    mix = _Mix(seed)
    try:
        mix.read_everything()
        for step in range(12):
            if step == 0 or mix.rng.random() < 0.5:
                mix.write()  # a chain for the open snapshot to read
            if step == 0 or mix.rng.random() < 0.5:
                mix.ddl()  # alone, the only move of the stamp the path memo watches
            mix.read_everything()
        assert mix.added and mix.chain_reads
    except AssertionError as exc:
        raise AssertionError("%s (DDL mix seed %d)" % (exc, seed)) from exc
    finally:
        mix.close()
