"""Abstract data types: registry, rectangle ops, spatial access method."""

import random

import pytest

from repro import AttributeDef, Database
from repro.adt import (
    attach,
    is_rect,
    make_rect,
    rect_area,
    rect_contains_point,
    rect_overlaps,
    rect_within,
    register_rectangle_type,
    register_spatial_index,
)
from repro.errors import SchemaError, TypeCheckError
from repro.evolution import SchemaEvolution
from repro.query.planner import AdtIndexProbe, ExtentScan


@pytest.fixture
def sdb():
    db = Database()
    registry = attach(db)
    register_rectangle_type(registry)
    db.define_class(
        "Cell",
        attributes=[
            AttributeDef("layer", "Integer"),
            AttributeDef("shape", "Rectangle"),
        ],
    )
    return db


def populate_cells(db, count=300, seed=0, span=200):
    rng = random.Random(seed)
    for _ in range(count):
        x, y = rng.randrange(span), rng.randrange(span)
        db.new(
            "Cell",
            {
                "layer": rng.randrange(4),
                "shape": make_rect(x, y, x + rng.randrange(1, 8), y + rng.randrange(1, 8)),
            },
        )


class TestRectangleOps:
    def test_make_rect_normalizes(self):
        assert make_rect(5, 6, 1, 2) == [1.0, 2.0, 5.0, 6.0]

    def test_is_rect(self):
        assert is_rect([0.0, 0.0, 1.0, 1.0])
        assert not is_rect([1.0, 1.0, 0.0, 0.0])  # unnormalized
        assert not is_rect([0, 0, 1])
        assert not is_rect("rect")
        assert not is_rect([0, 0, 1, True])

    def test_overlaps(self):
        rect = make_rect(0, 0, 4, 4)
        assert rect_overlaps(rect, 2, 2, 6, 6)
        assert rect_overlaps(rect, 4, 4, 5, 5)  # touching counts
        assert not rect_overlaps(rect, 5, 5, 6, 6)

    def test_contains_point(self):
        rect = make_rect(0, 0, 4, 4)
        assert rect_contains_point(rect, 2, 2)
        assert not rect_contains_point(rect, 5, 2)

    def test_within(self):
        rect = make_rect(1, 1, 2, 2)
        assert rect_within(rect, 0, 0, 4, 4)
        assert not rect_within(rect, 0, 0, 1.5, 4)

    def test_area(self):
        assert rect_area(make_rect(0, 0, 3, 4)) == 12.0


class TestValueDomain:
    def test_rectangle_attribute_accepts_rect(self, sdb):
        cell = sdb.new("Cell", {"shape": make_rect(0, 0, 1, 1)})
        assert sdb.get(cell.oid)["shape"] == [0.0, 0.0, 1.0, 1.0]

    def test_rectangle_attribute_rejects_junk(self, sdb):
        with pytest.raises(TypeCheckError):
            sdb.new("Cell", {"shape": [3, 2, 1]})

    def test_duplicate_type_registration_rejected(self, sdb):
        with pytest.raises(SchemaError):
            sdb.adt.register_type("Rectangle", is_rect)

    def test_direct_operation_call(self, sdb):
        assert sdb.adt.call("overlaps", make_rect(0, 0, 2, 2), 1, 1, 3, 3)

    def test_unknown_operation_rejected(self, sdb):
        with pytest.raises(SchemaError):
            sdb.adt.call("teleports", make_rect(0, 0, 1, 1))


class TestAdtQueries:
    def test_predicate_without_index_scans(self, sdb):
        populate_cells(sdb, 50)
        query = "SELECT c FROM Cell c WHERE overlaps(c.shape, [0, 0, 50, 50])"
        plan = sdb.plan(query)
        assert isinstance(plan.access, ExtentScan)
        results = sdb.select(query)
        for handle in results:
            assert rect_overlaps(handle["shape"], 0, 0, 50, 50)

    def test_results_match_brute_force(self, sdb):
        populate_cells(sdb, 200)
        query = "SELECT c FROM Cell c WHERE overlaps(c.shape, [10, 10, 40, 40])"
        no_index = {h.oid for h in sdb.select(query)}
        register_spatial_index(sdb.adt, "Cell", "shape", cell_size=16)
        with_index = {h.oid for h in sdb.select(query)}
        assert no_index == with_index
        brute = {
            h.oid
            for h in sdb.instances("Cell")
            if rect_overlaps(h["shape"], 10, 10, 40, 40)
        }
        assert with_index == brute

    def test_adt_combined_with_ordinary_predicate(self, sdb):
        populate_cells(sdb, 150)
        results = sdb.select(
            "SELECT c FROM Cell c "
            "WHERE overlaps(c.shape, [0, 0, 100, 100]) AND c.layer = 2"
        )
        for handle in results:
            assert handle["layer"] == 2
            assert rect_overlaps(handle["shape"], 0, 0, 100, 100)


class TestSpatialIndex:
    def test_planner_uses_access_method(self, sdb):
        populate_cells(sdb, 100)
        register_spatial_index(sdb.adt, "Cell", "shape", cell_size=16)
        plan = sdb.plan("SELECT c FROM Cell c WHERE overlaps(c.shape, [0, 0, 10, 10])")
        assert isinstance(plan.access, AdtIndexProbe)

    def test_index_maintained_on_mutations(self, sdb):
        register_spatial_index(sdb.adt, "Cell", "shape", cell_size=16)
        cell = sdb.new("Cell", {"shape": make_rect(0, 0, 2, 2), "layer": 0})
        query = "SELECT c FROM Cell c WHERE overlaps(c.shape, [0, 0, 3, 3])"
        assert [h.oid for h in sdb.select(query)] == [cell.oid]
        sdb.update(cell.oid, {"shape": make_rect(100, 100, 102, 102)})
        assert sdb.select(query) == []
        far_query = "SELECT c FROM Cell c WHERE overlaps(c.shape, [99, 99, 103, 103])"
        assert [h.oid for h in sdb.select(far_query)] == [cell.oid]
        sdb.delete(cell.oid)
        assert sdb.select(far_query) == []

    def test_wrong_domain_rejected(self, sdb):
        with pytest.raises(SchemaError):
            register_spatial_index(sdb.adt, "Cell", "layer")

    def test_estimate_counts_candidates(self, sdb):
        grid = register_spatial_index(sdb.adt, "Cell", "shape", cell_size=16)
        populate_cells(sdb, 100, span=100)
        assert grid.estimate(0, 0, 100, 100) >= 100
        assert grid.estimate(1000, 1000, 1001, 1001) == 0

    def test_large_rectangle_spans_cells(self, sdb):
        grid = register_spatial_index(sdb.adt, "Cell", "shape", cell_size=8)
        cell = sdb.new("Cell", {"shape": make_rect(0, 0, 30, 4)})
        # A window touching only the far end of the rectangle finds it.
        assert cell.oid in grid.candidates(28, 0, 29, 2)


class TestGridInIndexRegistry:
    """The grid is an index-manager index: coerced build, epoch, drop."""

    QUERY = "SELECT c FROM Cell c WHERE overlaps(c.shape, [0, 0, 40, 40])"

    def test_grid_built_over_lazily_defaulted_attribute(self, sdb):
        populate_cells(sdb, 300)
        SchemaEvolution(sdb).add_attribute(
            "Cell", AttributeDef("box", "Rectangle", default=[0, 0, 4, 4])
        )
        far = make_rect(500, 500, 501, 501)
        for _ in range(300):
            sdb.new("Cell", {"box": far})
        query = "SELECT c FROM Cell c WHERE overlaps(c.box, [1, 1, 2, 2])"
        scanned = [h.oid for h in sdb.select(query)]
        assert len(scanned) == 300
        register_spatial_index(sdb.adt, "Cell", "box", cell_size=16)
        assert isinstance(sdb.plan(query).access, AdtIndexProbe)
        assert [h.oid for h in sdb.select(query)] == scanned

    def test_registering_a_grid_replans_a_cached_query(self, sdb):
        populate_cells(sdb, 100)
        sdb.select(self.QUERY)
        assert isinstance(sdb.plan(self.QUERY).access, ExtentScan)
        invalidations = sdb.metrics.value("query.plan_cache.invalidations")
        register_spatial_index(sdb.adt, "Cell", "shape", cell_size=16)
        assert isinstance(sdb.plan(self.QUERY).access, AdtIndexProbe)
        assert sdb.metrics.value("query.plan_cache.invalidations") > invalidations

    def test_dropped_grid_is_no_longer_planned(self, sdb):
        populate_cells(sdb, 100)
        grid = register_spatial_index(sdb.adt, "Cell", "shape", cell_size=16)
        indexed = [h.oid for h in sdb.select(self.QUERY)]
        sdb.indexes.drop_index(grid.name)
        assert isinstance(sdb.plan(self.QUERY).access, ExtentScan)
        assert [h.oid for h in sdb.select(self.QUERY)] == indexed

    def test_new_subclass_instances_feed_the_grid(self, sdb):
        grid = register_spatial_index(sdb.adt, "Cell", "shape", cell_size=16)
        sdb.define_class("Via", superclasses=("Cell",))
        via = sdb.new("Via", {"shape": make_rect(1, 1, 2, 2)})
        assert via.oid in grid.candidates(0, 0, 3, 3)
        assert [h.oid for h in sdb.select(self.QUERY)] == [via.oid]

    def test_analyze_skips_the_grid_and_keeps_using_it(self, sdb):
        populate_cells(sdb, 100)
        grid = register_spatial_index(sdb.adt, "Cell", "shape", cell_size=16)
        sdb.analyze()
        listed = {row["index"] for row in sdb.select("SELECT s FROM SysIndexStat s")}
        assert grid.name not in listed
        plan = sdb.plan(self.QUERY)
        assert isinstance(plan.access, AdtIndexProbe)
