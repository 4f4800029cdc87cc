"""Rollback must restore every attached subsystem, not just storage."""

import pytest

from repro import AttributeDef, Database
from repro.adt import attach as attach_adt
from repro.adt import make_rect, register_rectangle_type, register_spatial_index
from repro.composite import attach as attach_composites
from repro.semantics import attach_temporal


class TestSpatialGridAfterAbort:
    @pytest.fixture
    def sdb(self):
        db = Database()
        registry = attach_adt(db)
        register_rectangle_type(registry)
        db.define_class("Cell", attributes=[AttributeDef("shape", "Rectangle")])
        register_spatial_index(registry, "Cell", "shape", cell_size=8)
        return db

    QUERY = "SELECT c FROM Cell c WHERE overlaps(c.shape, [0, 0, 10, 10])"

    def test_aborted_insert_leaves_grid_clean(self, sdb):
        txn = sdb.transaction()
        sdb.new("Cell", {"shape": make_rect(1, 1, 3, 3)})
        txn.abort()
        assert sdb.select(self.QUERY) == []

    def test_aborted_move_restores_old_cells(self, sdb):
        cell = sdb.new("Cell", {"shape": make_rect(1, 1, 3, 3)})
        txn = sdb.transaction()
        sdb.update(cell.oid, {"shape": make_rect(100, 100, 103, 103)})
        txn.abort()
        assert [h.oid for h in sdb.select(self.QUERY)] == [cell.oid]
        far = "SELECT c FROM Cell c WHERE overlaps(c.shape, [99, 99, 104, 104])"
        assert sdb.select(far) == []

    def test_aborted_delete_restores_grid_entry(self, sdb):
        cell = sdb.new("Cell", {"shape": make_rect(1, 1, 3, 3)})
        txn = sdb.transaction()
        sdb.delete(cell.oid)
        txn.abort()
        assert [h.oid for h in sdb.select(self.QUERY)] == [cell.oid]


class TestCompositeLinksAfterAbort:
    @pytest.fixture
    def cdb(self):
        db = Database()
        attach_composites(db)
        db.define_class(
            "Box",
            attributes=[
                AttributeDef(
                    "items", "Box", multi=True, composite=True,
                    exclusive=True, dependent=True,
                ),
            ],
        )
        return db

    def test_aborted_reparenting_restores_links(self, cdb):
        item = cdb.new("Box", {"items": []})
        parent = cdb.new("Box", {"items": [item.oid]})
        txn = cdb.transaction()
        cdb.update(parent.oid, {"items": []})
        other = cdb.new("Box", {"items": [item.oid]})
        txn.abort()
        assert not cdb.exists(other.oid)
        assert cdb.composites.parents_of(item.oid) == [(parent.oid, "items")]
        # Exclusivity is enforceable again against the restored owner.
        from repro.errors import CompositeError

        with pytest.raises(CompositeError):
            cdb.new("Box", {"items": [item.oid]})

    def test_aborted_cascade_delete_restores_parts(self, cdb):
        item = cdb.new("Box", {"items": []})
        parent = cdb.new("Box", {"items": [item.oid]})
        txn = cdb.transaction()
        cdb.delete(parent.oid)
        assert not cdb.exists(item.oid)  # cascade ran inside the txn
        txn.abort()
        assert cdb.exists(parent.oid)
        assert cdb.exists(item.oid)
        assert cdb.composites.parents_of(item.oid) == [(parent.oid, "items")]


class TestTemporalAfterAbort:
    """An aborted write never enters the history: its compensation
    removes the entry it undoes instead of appending the restored image."""

    @pytest.fixture
    def tdb(self):
        db = Database()
        attach_temporal(db)
        db.define_class("T", attributes=[AttributeDef("w", "Integer")])
        return db

    def test_aborted_update_leaves_no_history(self, tdb):
        obj = tdb.new("T", {"w": 1})
        born = tdb.temporal.now
        txn = tdb.transaction()
        tdb.update(obj.oid, {"w": 999})
        txn.abort()
        temporal = tdb.temporal
        assert [e.state.values["w"] for e in temporal.history_of(obj.oid)] == [1]
        assert {
            temporal.value_as_of(obj.oid, "w", tick)
            for tick in range(born, temporal.now + 1)
        } == {1}
        assert temporal.changed_between(born, temporal.now) == []
        # A committed write after the abort is recorded as usual.
        tdb.update(obj.oid, {"w": 5})
        assert [e.state.values["w"] for e in temporal.history_of(obj.oid)] == [1, 5]
        assert temporal.value_as_of(obj.oid, "w", temporal.now) == 5

    def test_aborted_insert_leaves_no_history(self, tdb):
        txn = tdb.transaction()
        obj = tdb.new("T", {"w": 7})
        txn.abort()
        temporal = tdb.temporal
        assert temporal.history_of(obj.oid) == []
        assert temporal.lifetime_of(obj.oid) == (None, None)
        assert temporal.extent_as_of("T", temporal.now) == []
        assert temporal.changed_between(0, temporal.now) == []

    def test_aborted_delete_leaves_object_alive(self, tdb):
        obj = tdb.new("T", {"w": 1})
        born = tdb.temporal.now
        txn = tdb.transaction()
        tdb.delete(obj.oid)
        txn.abort()
        assert tdb.temporal.lifetime_of(obj.oid) == (born, None)
        assert tdb.temporal.extent_as_of("T", tdb.temporal.now) == [obj.oid]
