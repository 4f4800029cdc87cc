"""Benchmark fixtures: determinism and structural properties."""

import pytest

from repro import Database
from repro.bench import (
    FIG1_QUERY,
    OO1Data,
    OO1KimDB,
    OO1Relational,
    build_assembly,
    build_vehicle_schema,
    define_assembly_schema,
    define_document_schema,
    populate_documents,
    populate_vehicles,
    selectivity_values,
)
from repro.relational import RelationalEngine
from repro.workspace import ObjectWorkspace


class TestVehicleFixture:
    def test_schema_matches_figure_1(self):
        db = Database()
        build_vehicle_schema(db)
        assert db.schema.is_subclass("DomesticAutomobile", "Automobile")
        assert db.schema.is_subclass("JapaneseAutoCompany", "AutoCompany")
        assert db.schema.attribute("Vehicle", "manufacturer").domain == "Company"
        assert db.schema.attribute("Vehicle", "drivetrain").domain == "VehicleDrivetrain"

    def test_population_deterministic(self):
        first = Database()
        build_vehicle_schema(first)
        oids_a = populate_vehicles(first, n_vehicles=50, n_companies=6, seed=42)
        second = Database()
        build_vehicle_schema(second)
        oids_b = populate_vehicles(second, n_vehicles=50, n_companies=6, seed=42)
        state_a = [s.values for s in first.storage.scan_class("Vehicle")]
        state_b = [s.values for s in second.storage.scan_class("Vehicle")]
        assert state_a == state_b
        assert {k: len(v) for k, v in oids_a.items()} == {
            k: len(v) for k, v in oids_b.items()
        }

    def test_population_counts(self):
        db = Database()
        build_vehicle_schema(db)
        oids = populate_vehicles(db, n_vehicles=40, n_companies=8, seed=1)
        assert db.count("Vehicle", hierarchy=True) == 40
        assert len(oids["Company"]) == 8
        assert db.count("VehicleDrivetrain") == 40

    def test_fig1_query_selective_but_nonempty(self):
        db = Database()
        build_vehicle_schema(db)
        populate_vehicles(db, n_vehicles=400, n_companies=20, seed=3)
        matches = db.select(FIG1_QUERY)
        assert 0 < len(matches) < 400


class TestOO1Fixture:
    def test_deterministic_generation(self):
        a = OO1Data(100, seed=5)
        b = OO1Data(100, seed=5)
        assert a.parts == b.parts
        assert a.connections == b.connections

    def test_connection_count(self):
        data = OO1Data(100, seed=5)
        assert len(data.connections) == 300

    def test_locality_rule(self):
        data = OO1Data(1000, seed=5)
        window = max(1, 1000 // 100)
        local = sum(
            1
            for from_id, to_id, _t, _l in data.connections
            if abs(from_id - to_id) <= window
        )
        # ~90% of connections are local by construction.
        assert local / len(data.connections) > 0.8

    def test_engines_agree_on_traversal(self):
        data = OO1Data(150, seed=6)
        kim = OO1KimDB(Database(), data)
        rel = OO1Relational(RelationalEngine(), data)
        for depth in (1, 2, 3, 4):
            assert kim.traverse(5, depth=depth) == rel.traverse(5, depth=depth)

    def test_traverse_uses_an_empty_caller_workspace(self):
        kim = OO1KimDB(Database(), OO1Data(60, seed=6))
        ws = ObjectWorkspace(kim.db)  # empty, hence falsy
        kim.traverse(5, depth=2, workspace=ws)
        assert len(ws) > 0

    def test_lookup_paths_agree(self):
        data = OO1Data(120, seed=6)
        kim = OO1KimDB(Database(), data)
        ids = data.random_part_ids(30, seed=1)
        assert kim.lookup(ids) == kim.lookup_oql(ids) == 30

    def test_insert_extends_graph(self):
        data = OO1Data(80, seed=6)
        kim = OO1KimDB(Database(), data)
        created = kim.insert(10)
        assert len(created) == 10
        assert kim.db.count("Part") == 90


class TestWorkloadFixtures:
    def test_assembly_tree_shape(self):
        db = Database()
        define_assembly_schema(db)
        root = build_assembly(db, depth=3, fanout=2, seed=1)
        # Full binary tree of depth 3: 2^4 - 1 nodes.
        assert db.count("Assembly") == 15
        state = db.get_state(root)
        assert len(state.values["subassemblies"]) == 2

    def test_documents_fixture(self):
        db = Database()
        define_document_schema(db)
        docs = populate_documents(db, n_documents=10, elements_per_doc=2, seed=9)
        assert len(docs) == 10
        assert db.count("MediaElement") == 20
        sample = db.get_state(docs[0])
        assert len(sample.values["elements"]) == 2

    def test_selectivity_values(self):
        values = selectivity_values(100, distinct=10, seed=2)
        assert len(values) == 100
        assert len(set(values)) == 10
        assert values.count(0) == 10
