"""Views: rewriting, stacking, renames, content-based authorization."""

import pytest

from repro import Database
from repro.authz import attach as attach_authz
from repro.bench.schemas import build_vehicle_schema, populate_vehicles
from repro.errors import AuthorizationError, ViewError
from repro.views import attach


@pytest.fixture
def vdb():
    db = Database()
    attach(db)
    build_vehicle_schema(db)
    populate_vehicles(db, n_vehicles=100, n_companies=8, seed=3)
    return db


class TestDefinition:
    def test_define_and_list(self, vdb):
        vdb.views.define_view("Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500")
        assert vdb.views.names() == ["Heavy"]
        assert vdb.views.is_view("Heavy")

    def test_duplicate_rejected(self, vdb):
        vdb.views.define_view("Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500")
        with pytest.raises(ViewError):
            vdb.views.define_view("Heavy", "SELECT v FROM Vehicle v")

    def test_shadowing_class_rejected(self, vdb):
        with pytest.raises(ViewError):
            vdb.views.define_view("Vehicle", "SELECT v FROM Truck v")

    def test_unknown_base_rejected(self, vdb):
        with pytest.raises(ViewError):
            vdb.views.define_view("X", "SELECT v FROM Ghost v")

    def test_projection_views_rejected(self, vdb):
        with pytest.raises(ViewError):
            vdb.views.define_view("X", "SELECT v.weight FROM Vehicle v")

    def test_drop_view(self, vdb):
        vdb.views.define_view("Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500")
        vdb.views.drop_view("Heavy")
        assert not vdb.views.is_view("Heavy")


class TestRewriting:
    def test_view_query_equals_conjoined_query(self, vdb):
        vdb.views.define_view("Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500")
        via_view = vdb.select("SELECT h FROM Heavy h WHERE h.color = 'red'")
        direct = vdb.select(
            "SELECT v FROM Vehicle v WHERE v.weight > 7500 AND v.color = 'red'"
        )
        assert [h.oid for h in via_view] == [h.oid for h in direct]

    def test_unfiltered_view_query(self, vdb):
        vdb.views.define_view("Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500")
        via_view = vdb.select("SELECT h FROM Heavy h")
        direct = vdb.select("SELECT v FROM Vehicle v WHERE v.weight > 7500")
        assert len(via_view) == len(direct) > 0

    def test_view_over_view(self, vdb):
        vdb.views.define_view("Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500")
        vdb.views.define_view("HeavyRed", "SELECT h FROM Heavy h WHERE h.color = 'red'")
        via_stack = vdb.select("SELECT x FROM HeavyRed x")
        direct = vdb.select(
            "SELECT v FROM Vehicle v WHERE v.weight > 7500 AND v.color = 'red'"
        )
        assert [h.oid for h in via_stack] == [h.oid for h in direct]

    def test_view_scope_follows_base_query(self, vdb):
        vdb.views.define_view("OnlyVehicles", "SELECT v FROM ONLY Vehicle v")
        via_view = vdb.select("SELECT x FROM OnlyVehicles x")
        assert len(via_view) == vdb.count("Vehicle", hierarchy=False)

    def test_view_uses_indexes(self, vdb):
        vdb.create_hierarchy_index("Vehicle", "weight")
        vdb.views.define_view("Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500")
        rewritten = vdb.views.rewrite(
            __import__("repro.query.parser", fromlist=["parse_query"]).parse_query(
                "SELECT h FROM Heavy h"
            )
        )
        plan = vdb.planner.plan(rewritten)
        assert "index" in plan.access.description

    def test_projection_through_view(self, vdb):
        vdb.views.define_view("Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500")
        result = vdb.execute("SELECT h.weight FROM Heavy h LIMIT 3")
        assert all(row["weight"] > 7500 for row in result.rows)

    def test_order_and_limit_through_view(self, vdb):
        vdb.views.define_view("Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500")
        result = vdb.execute("SELECT h FROM Heavy h ORDER BY h.weight DESC LIMIT 2")
        assert len(result.oids) == 2


class TestRenameMaps:
    def test_schema_versioning_rename(self, vdb):
        # Old applications see "maker"; the stored attribute is
        # "manufacturer" — a view gives the old name after the change.
        vdb.views.define_view(
            "VehicleV1",
            "SELECT v FROM Vehicle v",
            rename={"maker": "manufacturer"},
        )
        via_view = vdb.select(
            "SELECT x FROM VehicleV1 x WHERE x.maker.location = 'Detroit'"
        )
        direct = vdb.select(
            "SELECT v FROM Vehicle v WHERE v.manufacturer.location = 'Detroit'"
        )
        assert [h.oid for h in via_view] == [h.oid for h in direct]

    def test_rename_to_nested_path(self, vdb):
        vdb.views.define_view(
            "VehicleFlat",
            "SELECT v FROM Vehicle v",
            rename={"city": "manufacturer.location"},
        )
        via_view = vdb.select("SELECT x FROM VehicleFlat x WHERE x.city = 'Detroit'")
        direct = vdb.select(
            "SELECT v FROM Vehicle v WHERE v.manufacturer.location = 'Detroit'"
        )
        assert [h.oid for h in via_view] == [h.oid for h in direct]

    def test_rename_in_projection(self, vdb):
        vdb.views.define_view(
            "VehicleFlat",
            "SELECT v FROM Vehicle v",
            rename={"city": "manufacturer.location"},
        )
        result = vdb.execute("SELECT x.city FROM VehicleFlat x LIMIT 2")
        assert all("manufacturer.location" in row for row in result.rows)


class TestOneFrontDoor:
    """plan/check/explain/execute share one prepare path (regression:
    ``plan()`` was a hand-rolled copy that forgot the view rewrite and
    the authorization check on the named target)."""

    SOURCE = "SELECT h FROM Heavy h WHERE h.color = 'red'"

    def test_all_entry_points_agree_on_a_view(self, vdb):
        vdb.views.define_view("Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500")
        direct = vdb.execute(
            "SELECT v FROM Vehicle v WHERE v.weight > 7500 AND v.color = 'red'"
        )
        assert vdb.check(self.SOURCE).ok
        plan = vdb.plan(self.SOURCE)
        executed = vdb.execute(self.SOURCE)
        explained = vdb.explain(self.SOURCE)
        assert plan.query.target_class == "Vehicle"  # rewritten to the base
        assert plan.scope == executed.plan.scope == explained.plan.scope == direct.plan.scope
        assert executed.oids == explained.result.oids == direct.oids != []

    def test_plan_enforces_read_on_the_named_target(self, vdb):
        authz = attach_authz(vdb)
        authz.add_role("analyst")
        vdb.views.define_view("Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500")
        authz.grant("analyst", "read", "Heavy")
        authz.set_subject("analyst")
        for entry_point in (vdb.plan, vdb.execute, vdb.explain):
            with pytest.raises(AuthorizationError):
                entry_point("SELECT v FROM Vehicle v")
            entry_point(self.SOURCE)  # the view grant is enough


class TestContentBasedAuthorization:
    def test_view_grant_without_class_grant(self, vdb):
        authz = attach_authz(vdb)
        authz.add_role("analyst")
        vdb.views.define_view("Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500")
        authz.grant("analyst", "read", "Heavy")
        authz.set_subject("analyst")
        # Direct class access denied, view access allowed.
        with pytest.raises(AuthorizationError):
            vdb.select("SELECT v FROM Vehicle v")
        result = vdb.select("SELECT h FROM Heavy h")
        assert result  # only the heavy vehicles are visible
        for handle in result:
            authz.set_subject("system")
            assert vdb.get(handle.oid)["weight"] > 7500
            authz.set_subject("analyst")
