"""Schema evolution: taxonomy operations, invariants, lazy coercion."""

import shutil

import pytest

from repro import AttributeDef, Database, MethodDef
from repro.errors import AttributeNotFoundError, SchemaEvolutionError
from repro.evolution import SchemaEvolution, check_all
from repro.evolution.invariants import check_domain_compatibility_invariant
from repro.storage.serializer import decode_object


@pytest.fixture
def edb():
    db = Database()
    db.define_class("Company", attributes=[AttributeDef("name", "String")])
    db.define_class("AutoCompany", superclasses=("Company",))
    db.define_class(
        "Vehicle",
        attributes=[
            AttributeDef("weight", "Integer"),
            AttributeDef("maker", "Company"),
        ],
    )
    db.define_class("Truck", superclasses=("Vehicle",))
    return db


@pytest.fixture
def evo(edb):
    return SchemaEvolution(edb)


def _stored(db, oid):
    """``oid``'s record as stored, decoded without coercion."""
    class_name, page_id, slot = db.storage.directory.lookup(oid)
    return decode_object(db.storage.heap_for(class_name).read((page_id, slot)))

class TestAttributeChanges:
    def test_attribute_map_is_read_only_and_dropped_by_a_change(self, edb, evo):
        vehicle = edb.new("Vehicle", {"weight": 1})
        declared = edb.schema.attribute_map("Vehicle")
        with pytest.raises(TypeError):
            declared["color"] = AttributeDef("color", "String")
        assert edb.schema.attribute_map("Vehicle") is declared  # no copy per call
        query = "SELECT v FROM Vehicle v WHERE v.weight = 1"
        assert edb.execute(query).states[0].values.keys() == declared.keys()
        with pytest.raises(AttributeNotFoundError):
            edb.get(vehicle.oid)["color"]
        evo.add_attribute("Vehicle", AttributeDef("color", "String", default="grey"))
        assert "color" in edb.schema.attribute_map("Vehicle")
        # The next scan and the next handle read both see the default.
        assert edb.execute(query).states[0].values["color"] == "grey"
        assert edb.get(vehicle.oid)["color"] == "grey"

    def test_add_attribute_metadata_only(self, edb, evo):
        vehicle = edb.new("Vehicle", {"weight": 1})
        stored_before = _stored(edb, vehicle.oid).values
        evo.add_attribute("Vehicle", AttributeDef("color", "String", default="grey"))
        # Stored record untouched; loaded view coerced with the default.
        assert "color" not in _stored(edb, vehicle.oid).values
        assert edb.storage.load(vehicle.oid).values["color"] == "grey"
        assert edb.get(vehicle.oid)["color"] == "grey"
        assert _stored(edb, vehicle.oid).values == stored_before

    def test_added_attribute_inherited_by_subclasses(self, edb, evo):
        truck = edb.new("Truck", {"weight": 5})
        evo.add_attribute("Vehicle", AttributeDef("color", "String", default="grey"))
        assert edb.get(truck.oid)["color"] == "grey"

    def test_add_attribute_writable_after(self, edb, evo):
        vehicle = edb.new("Vehicle", {"weight": 1})
        evo.add_attribute("Vehicle", AttributeDef("color", "String"))
        edb.update(vehicle.oid, {"color": "red"})
        assert edb.get(vehicle.oid)["color"] == "red"

    def test_drop_attribute_lazy(self, edb, evo):
        vehicle = edb.new("Vehicle", {"weight": 42})
        evo.drop_attribute("Vehicle", "weight")
        assert "weight" not in edb.schema.attributes("Vehicle")
        # Stored value remains but is invisible through the schema.
        assert "weight" in _stored(edb, vehicle.oid).values
        assert "weight" not in edb.storage.load(vehicle.oid).values
        assert "weight" not in edb.get_state(vehicle.oid).values

    def test_drop_inherited_attribute_rejected(self, evo):
        with pytest.raises(SchemaEvolutionError):
            evo.drop_attribute("Truck", "weight")

    def test_drop_indexed_attribute_rejected(self, edb, evo):
        edb.create_hierarchy_index("Vehicle", "weight")
        with pytest.raises(SchemaEvolutionError):
            evo.drop_attribute("Vehicle", "weight")

    def test_rename_attribute_rewrites_instances(self, edb, evo):
        vehicle = edb.new("Vehicle", {"weight": 42})
        count = evo.rename_attribute("Vehicle", "weight", "mass")
        assert count >= 1
        assert edb.get(vehicle.oid)["mass"] == 42
        assert "weight" not in edb.schema.attributes("Vehicle")
        assert "mass" in edb.schema.attributes("Truck")

    def test_change_default(self, edb, evo):
        evo.add_attribute("Vehicle", AttributeDef("color", "String", default="grey"))
        evo.change_default("Vehicle", "color", "black")
        vehicle = edb.new("Vehicle", {"weight": 1})
        assert vehicle["color"] == "black"

    def test_redefinition_must_specialize_domain(self, edb, evo):
        # Truck redefines maker with an unrelated domain: invariant violated.
        with pytest.raises(SchemaEvolutionError):
            evo.add_attribute("Truck", AttributeDef("maker", "Vehicle"))
        # The rollback leaves the schema unchanged.
        assert edb.schema.attribute("Truck", "maker").domain == "Company"
        check_all(edb.schema)

    def test_redefinition_with_subdomain_allowed(self, edb, evo):
        evo.add_attribute("Truck", AttributeDef("maker", "AutoCompany"))
        assert edb.schema.attribute("Truck", "maker").domain == "AutoCompany"
        check_domain_compatibility_invariant(edb.schema)


class TestMethodChanges:
    def test_add_and_drop_method(self, edb, evo):
        evo.add_method("Vehicle", MethodDef("honk", lambda recv: "beep"))
        vehicle = edb.new("Vehicle", {"weight": 1})
        assert vehicle.send("honk") == "beep"
        evo.drop_method("Vehicle", "honk")
        with pytest.raises(Exception):
            vehicle.send("honk")

    def test_drop_missing_method_rejected(self, evo):
        with pytest.raises(SchemaEvolutionError):
            evo.drop_method("Vehicle", "ghost")


class TestEdgeChanges:
    def test_add_superclass_brings_attributes(self, edb, evo):
        edb.define_class("Electric", attributes=[AttributeDef("range_km", "Integer", default=300)])
        evo.add_superclass("Truck", "Electric")
        truck = edb.new("Truck", {"weight": 1})
        assert truck["range_km"] == 300

    def test_add_superclass_cycle_rejected(self, evo):
        with pytest.raises(Exception):
            evo.add_superclass("Vehicle", "Truck")

    def test_drop_superclass_reroots_at_object(self, edb, evo):
        evo.drop_superclass("Truck", "Vehicle")
        assert edb.schema.get_class("Truck").superclasses == ["Object"]
        assert "weight" not in edb.schema.attributes("Truck")

    def test_drop_superclass_keeps_other_edges(self, edb, evo):
        edb.define_class("Toy")
        evo.add_superclass("Truck", "Toy")
        evo.drop_superclass("Truck", "Toy")
        assert edb.schema.is_subclass("Truck", "Vehicle")

    def test_hierarchy_index_follows_edge_change(self, edb, evo):
        index = edb.create_hierarchy_index("Vehicle", "weight")
        truck = edb.new("Truck", {"weight": 9})
        assert truck.oid in index.lookup_eq(9)
        evo.drop_superclass("Truck", "Vehicle")
        assert truck.oid not in index.lookup_eq(9)


class TestNodeChanges:
    def test_drop_leaf_class_deletes_instances(self, edb, evo):
        truck = edb.new("Truck", {"weight": 1})
        count = evo.drop_class("Truck")
        assert count == 1
        assert not edb.exists(truck.oid)
        assert not edb.schema.has_class("Truck")

    def test_drop_class_with_subclasses_rejected(self, evo):
        with pytest.raises(SchemaEvolutionError):
            evo.drop_class("Vehicle")

    def test_drop_class_with_migration(self, edb, evo):
        truck = edb.new("Truck", {"weight": 7})
        evo.drop_class("Truck", migrate_to="Vehicle")
        assert edb.class_of(truck.oid) == "Vehicle"
        assert edb.get(truck.oid)["weight"] == 7

    def test_rename_class(self, edb, evo):
        truck = edb.new("Truck", {"weight": 7})
        evo.rename_class("Truck", "Lorry")
        assert edb.class_of(truck.oid) == "Lorry"
        assert edb.schema.is_subclass("Lorry", "Vehicle")
        assert not edb.schema.has_class("Truck")
        assert len(edb.select("SELECT l FROM Lorry l")) == 1

    def test_rename_class_fixes_domains(self, edb, evo):
        evo.rename_class("Company", "Corporation")
        assert edb.schema.attribute("Vehicle", "maker").domain == "Corporation"

    def test_migrate_instance_coerces_values(self, edb, evo):
        truck = edb.new("Truck", {"weight": 7})
        evo.migrate_instance(truck.oid, "Company")
        assert edb.class_of(truck.oid) == "Company"
        state = edb.get_state(truck.oid)
        assert "weight" not in state.values
        assert "name" in state.values

    def test_migration_maintains_indexes(self, edb, evo):
        index = edb.create_hierarchy_index("Vehicle", "weight")
        truck = edb.new("Truck", {"weight": 7})
        evo.migrate_instance(truck.oid, "Company")
        assert truck.oid not in index.lookup_eq(7)

    def test_audit_log_records_operations(self, edb, evo):
        evo.add_attribute("Vehicle", AttributeDef("color", "String"))
        evo.rename_attribute("Vehicle", "color", "paint")
        assert any("add_attribute" in entry for entry in evo.log)
        assert any("rename_attribute" in entry for entry in evo.log)


def _reopen_index_run(path):
    """Insert 10, (close + reopen), add an attribute with a default, add
    200 rows with another value, index it, query the default value."""
    db = Database(path)
    db.define_class("V", attributes=[AttributeDef("n", "Integer")])
    old = [db.new("V", {"n": i}).oid.value for i in range(10)]
    if path is not None:
        db.close()
        db = Database(path)
    SchemaEvolution(db).add_attribute(
        "V", AttributeDef("color", "String", default="white")
    )
    for i in range(200):
        db.new("V", {"n": 100 + i, "color": "black"})
    query = "SELECT v FROM V v WHERE v.color = 'white'"
    scanned = sorted(oid.value for oid in db.execute(query).oids)
    db.create_class_index("V", "color")
    result = db.execute(query)
    assert "index" in result.plan.access.description
    probed = sorted(oid.value for oid in result.oids)
    db.close()
    return old, scanned, probed


def test_reopened_database_indexes_lazily_added_defaults(tmp_path):
    """A reopened durable database is wired like a new one: an index
    built after reopen sees coerced states (the lazily added default),
    exactly as the in-memory database and a plain scan do."""
    mem_old, mem_scanned, mem_probed = _reopen_index_run(None)
    old, scanned, probed = _reopen_index_run(str(tmp_path / "reopen.pages"))
    assert mem_scanned == mem_probed == mem_old
    assert scanned == old
    assert probed == old


class TestEvolutionGoesThroughTheWritePath:
    """migrate_instance is an ordinary logged write: durable, undoable
    and invisible to earlier snapshots.  The renames change the catalog,
    which is persisted at checkpoint only, so they stay unlogged."""

    def test_migration_survives_the_crash_a_sibling_update_survives(self, tmp_path):
        path = str(tmp_path / "migrate-crash.pages")
        db = Database(path)
        db.define_class("A", attributes=[AttributeDef("n", "Integer")])
        db.define_class("B", attributes=[AttributeDef("n", "Integer")])
        moved = db.new("A", {"n": 1}).oid
        sibling = db.new("A", {"n": 2}).oid
        db.checkpoint()
        SchemaEvolution(db).migrate_instance(moved, "B")
        db.update(sibling, {"n": 20})
        # Crash: copy the files as they are on disk, without closing.
        crashed = str(tmp_path / "crashed.pages")
        for suffix in ("", ".meta", ".wal", ".wal.pages"):
            shutil.copyfile(path + suffix, crashed + suffix)
        reopened = Database(crashed)
        assert reopened.get_state(sibling).values["n"] == 20
        assert reopened.class_of(moved) == "B"
        assert reopened.get_state(moved).values["n"] == 1
        assert (reopened.count("A"), reopened.count("B")) == (1, 1)
        reopened.close()
        db.close()

    def test_rename_attribute_is_lost_or_kept_whole_by_a_crash(self, tmp_path):
        """A crash after the rename reopens with the catalog and the
        values of one side of it — never new values under the old name."""
        path = str(tmp_path / "rename-crash.pages")
        db = Database(path)
        db.define_class("V", attributes=[AttributeDef("weight", "Integer")])
        oids = [db.new("V", {"weight": w}).oid for w in (10, 20, 30)]
        db.checkpoint()
        SchemaEvolution(db).rename_attribute("V", "weight", "mass")
        images = {}
        for label in ("before", "after"):  # of the checkpoint that keeps it
            images[label] = str(tmp_path / (label + ".pages"))
            for suffix in ("", ".meta", ".wal", ".wal.pages"):
                shutil.copyfile(path + suffix, images[label] + suffix)
            db.checkpoint()
        db.close()
        for label, name in (("before", "weight"), ("after", "mass")):
            reopened = Database(images[label])
            assert sorted(reopened.schema.attributes("V")) == [name]
            assert [reopened.get_state(oid).values for oid in oids] == [
                {name: 10}, {name: 20}, {name: 30}
            ]
            reopened.close()

    def test_abort_undoes_migration(self, edb, evo):
        edb.create_class_index("Vehicle", "weight")
        edb.create_class_index("Truck", "weight")
        edb.create_hierarchy_index("Vehicle", "weight", name="h_weight")
        oids = [edb.new("Vehicle", {"weight": w}).oid for w in (10, 20, 30)]

        def picture():
            return (
                {oid: (edb.class_of(oid), dict(edb.get_state(oid).values)) for oid in oids},
                {i.name: sorted(i.tree.iter_entries()) for i in edb.indexes.all_indexes()},
                sorted(edb.schema.attributes("Vehicle")),
            )

        before = picture()
        txn = edb.transaction()
        evo.migrate_instance(oids[0], "Truck")
        assert edb.class_of(oids[0]) == "Truck"
        txn.abort()
        assert picture() == before
        assert [h.oid for h in edb.select("SELECT v FROM Vehicle v WHERE v.weight = 10")] == [oids[0]]

    def test_earlier_snapshot_sees_object_once_in_its_old_class(self, edb, evo):
        truck = edb.new("Truck", {"weight": 7}).oid
        car = edb.new("Vehicle", {"weight": 8}).oid
        stream = edb.select_iter("SELECT v FROM Vehicle v")
        reader = edb.transaction()
        assert len(edb.select("SELECT t FROM Truck t")) == 1  # opens the snapshot
        edb.txns.detach()
        evo.migrate_instance(truck, "Vehicle")  # autocommit, concurrent
        assert edb.class_of(truck) == "Vehicle"
        streamed = [(s.oid, s.class_name) for s in iter(stream.next_state, None)]
        with edb.txns.bound(reader):
            in_txn = edb.execute("SELECT v FROM Vehicle v")
            only_direct = edb.execute("SELECT v FROM ONLY Vehicle v")
            trucks = edb.execute("SELECT t FROM Truck t")
            reader.commit()
        expected = sorted([(truck, "Truck"), (car, "Vehicle")])
        assert sorted(streamed) == expected
        assert sorted(in_txn.oids) == sorted([truck, car])
        assert only_direct.oids == [car]
        assert trucks.oids == [truck]
        # A snapshot opened after the migration sees the new world.
        assert sorted(edb.execute("SELECT v FROM ONLY Vehicle v").oids) == sorted([truck, car])
        assert edb.execute("SELECT t FROM Truck t").oids == []

    def test_indexes_see_coerced_before_images_whoever_writes(self, edb, evo):
        """update, put_state and delete all retire the index entry a
        lazily added default put there (one before-image policy)."""
        oids = [edb.new("Vehicle", {"weight": w}).oid for w in (1, 2, 3)]
        evo.add_attribute("Vehicle", AttributeDef("color", "String", default="grey"))
        index = edb.create_class_index("Vehicle", "color")
        edb.update(oids[0], {"color": "red"})
        state = edb.get_state(oids[1])
        state.values["color"] = "blue"
        edb.put_state(state)
        edb.delete(oids[2])
        assert sorted((key, oid) for key, (_cls, oid) in index.tree.iter_entries()) == [
            ("blue", oids[1]),
            ("red", oids[0]),
        ]

    def test_reclass_then_abort_agrees_with_oracle(self, edb, evo):
        index = edb.create_hierarchy_index("Vehicle", "weight")
        world = {}
        for i in range(12):
            cls = "Truck" if i % 3 == 0 else "Vehicle"
            world[edb.new(cls, {"weight": i % 4}).oid] = (cls, i % 4)

        def check():
            for cls in ("Vehicle", "Truck"):
                direct = sum(1 for c, _w in world.values() if c == cls)
                assert edb.storage.count_class(cls) == direct
            assert edb.count("Vehicle") == len(world)
            entries = sorted((key, c, oid) for key, (c, oid) in index.tree.iter_entries())
            assert entries == sorted((w, c, oid) for oid, (c, w) in world.items())

        check()
        movers = [oid for oid, (cls, _w) in world.items() if cls == "Vehicle"][:4]
        txn = edb.transaction()
        for oid in movers:
            evo.migrate_instance(oid, "Truck")
        txn.abort()
        check()
        with edb.transaction():
            for oid in movers[:2]:
                evo.migrate_instance(oid, "Truck")
                world[oid] = ("Truck", world[oid][1])
        check()
