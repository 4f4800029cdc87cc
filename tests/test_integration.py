"""Cross-subsystem integration scenarios."""

import inspect

import pytest

from repro import AttributeDef, Database
from repro.authz import attach as attach_authz
from repro.bench.schemas import FIG1_QUERY, build_vehicle_schema, populate_vehicles
from repro.composite import attach as attach_composites
from repro.errors import CompositeError, VersionError
from repro.evolution import SchemaEvolution
from repro.rules import RuleEngine, rule
from repro.storage.clustering import CompositeClustering
from repro.versions import attach as attach_versions
from repro.versions import attach_notifications
from repro.views import attach as attach_views
from repro.workspace import ObjectWorkspace


@pytest.fixture
def full_db():
    """A database with every optional subsystem attached."""
    db = Database(clustering=CompositeClustering())
    attach_composites(db)
    attach_notifications(db)
    attach_versions(db)
    attach_views(db)
    build_vehicle_schema(db)
    populate_vehicles(db, n_vehicles=120, n_companies=10, seed=99)
    return db


class TestFullStack:
    def test_fig1_query_with_everything_attached(self, full_db):
        result = full_db.select(FIG1_QUERY)
        assert result
        for handle in result:
            assert handle["weight"] > 7500
            assert handle.fetch("manufacturer")["location"] == "Detroit"

    def test_composite_drivetrain_cascades(self, full_db):
        vehicle = full_db.select("SELECT v FROM Vehicle v LIMIT 1")[0]
        drivetrain = vehicle.fetch("drivetrain")
        full_db.delete(vehicle.oid)
        assert not full_db.exists(drivetrain.oid)

    def test_drivetrain_exclusive(self, full_db):
        vehicle = full_db.select("SELECT v FROM Vehicle v LIMIT 1")[0]
        with pytest.raises(CompositeError):
            full_db.new(
                "Vehicle",
                {"weight": 1, "drivetrain": vehicle["drivetrain"]},
            )

    def test_index_view_txn_interplay(self, full_db):
        full_db.create_hierarchy_index("Vehicle", "weight")
        full_db.views.define_view(
            "Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500"
        )
        before = len(full_db.select("SELECT h FROM Heavy h"))
        txn = full_db.transaction()
        added = full_db.new("Vehicle", {"weight": 9999})
        assert len(full_db.select("SELECT h FROM Heavy h")) == before + 1
        txn.abort()
        assert len(full_db.select("SELECT h FROM Heavy h")) == before
        assert not full_db.exists(added.oid)

    def test_workspace_edit_visible_to_queries_after_flush(self, full_db):
        full_db.create_hierarchy_index("Vehicle", "color")
        vehicle = full_db.select("SELECT v FROM Vehicle v LIMIT 1")[0]
        workspace = ObjectWorkspace(full_db)
        memory_object = workspace.load(vehicle.oid)
        memory_object.set("color", "chartreuse")
        assert full_db.select("SELECT v FROM Vehicle v WHERE v.color = 'chartreuse'") == []
        workspace.flush()
        result = full_db.select("SELECT v FROM Vehicle v WHERE v.color = 'chartreuse'")
        assert [h.oid for h in result] == [vehicle.oid]

    def test_version_freeze_blocks_workspace_writeback(self, full_db):
        oid = full_db.versions.create_versioned("Company", {"name": "vc"})
        full_db.versions.promote(oid)  # frozen
        workspace = ObjectWorkspace(full_db)
        memory_object = workspace.load(oid)
        memory_object.set("name", "renamed")
        with pytest.raises(VersionError):
            workspace.flush()

    def test_evolution_then_query_new_attribute(self, full_db):
        evolution = SchemaEvolution(full_db)
        evolution.add_attribute(
            "Vehicle", AttributeDef("recalled", "Boolean", default=False)
        )
        some = full_db.select("SELECT v FROM Vehicle v LIMIT 3")
        full_db.update(some[0].oid, {"recalled": True})
        recalled = full_db.select("SELECT v FROM Vehicle v WHERE v.recalled = true")
        assert [h.oid for h in recalled] == [some[0].oid]

    def test_rules_over_evolving_schema(self, full_db):
        engine = RuleEngine(full_db)
        engine.map_class("company", "Company", ["location"])
        engine.add_rule(rule("detroit", ["?c"], ("company", ["?c", "Detroit"])))
        count_before = len(engine.query("detroit", None))
        full_db.new("Company", {"name": "new", "location": "Detroit"})
        engine._fresh = False
        assert len(engine.query("detroit", None)) == count_before + 1

    def test_aggregate_over_hierarchy(self, full_db):
        rows = full_db.execute(
            "SELECT COUNT(v) FROM Vehicle v GROUP BY v.color"
        ).rows
        assert sum(row["count(*)"] for row in rows) == full_db.count("Vehicle")


class TestDurableFullStack:
    def test_reopen_with_subsystems_reattached(self, durable_path):
        db = Database(durable_path, clustering=CompositeClustering())
        attach_composites(db)
        build_vehicle_schema(db)
        oids = populate_vehicles(db, n_vehicles=40, n_companies=6, seed=5)
        db.create_hierarchy_index("Vehicle", "weight")
        expected = [h.oid for h in db.select(FIG1_QUERY)]
        db.close()

        reopened = Database(durable_path)
        composites = attach_composites(reopened)
        # Indexes are rebuilt by re-creating them (catalog holds schema).
        reopened.create_hierarchy_index("Vehicle", "weight")
        assert [h.oid for h in reopened.select(FIG1_QUERY)] == expected
        # Composite links were re-derived from storage.
        vehicle_oid = expected[0] if expected else oids["Vehicle"][0]
        drivetrain = reopened.get(vehicle_oid)["drivetrain"]
        assert composites.parents_of(drivetrain) == [(vehicle_oid, "drivetrain")]
        reopened.close()

    def test_crash_recovery_preserves_query_results(self, durable_path):
        db = Database(durable_path)
        build_vehicle_schema(db)
        db.checkpoint()
        populate_vehicles(db, n_vehicles=30, n_companies=5, seed=77)
        expected_count = db.count("Vehicle")
        # Crash without checkpoint.
        db.storage.buffer.flush_all()
        db.storage.save_metadata()
        db.storage.pager.close()
        db.wal.close()

        reopened = Database(durable_path)
        assert reopened.count("Vehicle") == expected_count
        result = reopened.select("SELECT v FROM Vehicle v WHERE v.weight > 7500")
        for handle in result:
            assert handle["weight"] > 7500
        reopened.close()


class TestAuthzIntegration:
    def test_view_authz_and_aggregates(self, full_db):
        authz = attach_authz(full_db)
        authz.add_role("analyst")
        full_db.views.define_view(
            "Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500"
        )
        authz.grant("analyst", "read", "Heavy")
        with authz.as_subject("analyst"):
            rows = full_db.execute("SELECT COUNT(h) FROM Heavy h").rows
            assert rows[0]["count(*)"] > 0


def test_database_constructor_options_are_pinned():
    """Every option doubles the configurations tests and benchmarks must
    cover, so adding one is a reviewed decision: change this list in the
    same commit and say which two callers need different values."""
    assert list(inspect.signature(Database.__init__).parameters)[1:] == [
        "path", "page_size", "buffer_capacity", "clustering",
        "sync_on_commit",
    ]
