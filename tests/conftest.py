"""Shared fixtures for the kimdb test suite."""

import pytest

from repro import AttributeDef, Database
from repro.bench.schemas import build_vehicle_schema, populate_vehicles
from repro.storage.heap import HeapFile


@pytest.fixture
def db():
    """An ephemeral in-memory database."""
    database = Database()
    yield database


@pytest.fixture
def vehicle_db():
    """In-memory database with the Figure 1 schema, unpopulated."""
    database = Database()
    build_vehicle_schema(database)
    return database


@pytest.fixture
def populated_db():
    """Figure 1 schema with a deterministic medium population."""
    database = Database()
    build_vehicle_schema(database)
    oids = populate_vehicles(database, n_vehicles=200, n_companies=12, seed=1990)
    database.fixture_oids = oids
    return database


@pytest.fixture
def durable_path(tmp_path):
    """Path for a durable database's page file."""
    return str(tmp_path / "kimdb.pages")


@pytest.fixture
def relocations(monkeypatch):
    """A list of ``(old rid, new rid)``, one per heap update that moved
    its record off its page: a mix asserts it is not empty, so its
    relocation coverage cannot vanish silently."""
    moved = []
    real = HeapFile.update

    def counting(heap, rid, record):
        new_rid = real(heap, rid, record)
        if new_rid != rid:
            moved.append((rid, new_rid))
        return new_rid

    monkeypatch.setattr(HeapFile, "update", counting)
    return moved


@pytest.fixture
def shape_db():
    """Database with a tiny Shape hierarchy exercising methods."""
    from repro import MethodDef

    database = Database()

    def display(receiver):
        return "Shape@%s" % (receiver["name"],)

    def area(receiver):
        return 0

    database.define_class(
        "Shape",
        attributes=[AttributeDef("name", "String")],
        methods=[MethodDef("display", display), MethodDef("area", area)],
    )

    def rect_area(receiver):
        return receiver["width"] * receiver["height"]

    database.define_class(
        "RectangleShape",
        superclasses=("Shape",),
        attributes=[
            AttributeDef("width", "Integer", default=1),
            AttributeDef("height", "Integer", default=1),
        ],
        methods=[MethodDef("area", rect_area)],
    )

    def square_display(receiver):
        return "Square@%s" % (receiver["name"],)

    database.define_class(
        "Square",
        superclasses=("RectangleShape",),
        methods=[MethodDef("display", square_display)],
    )
    return database
