"""E3: nested-attribute index vs. naive nested-predicate evaluation.

Section 3.2: a query with a predicate on a nested attribute
(Vehicle.manufacturer.location) either walks the aggregation hierarchy
per candidate (fetching the referenced company each time) or probes a
nested-attribute index that maps terminal keys straight to vehicle OIDs
[BERT89].  The maintenance cost the index trades for that speed is also
measured (intermediate-object updates).
"""

import pytest
from conftest import print_table, timed

from repro import Database
from repro.bench.schemas import build_vehicle_schema, populate_vehicles

QUERY = "SELECT v FROM Vehicle v WHERE v.manufacturer.location = 'Detroit'"


@pytest.fixture(scope="module")
def setup():
    db = Database()
    build_vehicle_schema(db)
    oids = populate_vehicles(db, n_vehicles=4000, n_companies=40, seed=3)
    return db, oids


def test_naive_nested_evaluation(setup, benchmark):
    db, _oids = setup
    assert "scan" in db.plan(QUERY).access.description
    result = benchmark(lambda: db.select(QUERY))
    assert result


def test_nested_index_evaluation(setup, benchmark):
    db, _oids = setup
    expected = [h.oid for h in db.select(QUERY)]
    if not db.indexes.names():
        db.create_nested_index("Vehicle", ["manufacturer", "location"])
    assert "nx_" in db.plan(QUERY).access.description
    result = benchmark(lambda: db.select(QUERY))
    assert [h.oid for h in result] == expected


def test_speedup_and_maintenance_summary(setup):
    db, oids = setup
    if "nx_Vehicle_manufacturer_location" in db.indexes.names():
        db.indexes.drop_index("nx_Vehicle_manufacturer_location")
    t_naive, naive_result = timed(db.select, QUERY)
    index = db.create_nested_index("Vehicle", ["manufacturer", "location"])
    t_indexed, indexed_result = timed(db.select, QUERY)
    assert [h.oid for h in naive_result] == [h.oid for h in indexed_result]

    # Maintenance: updating an intermediate (a company's location) must
    # recompute the keys of all dependent vehicles.
    company = oids["Company"][0]
    db.metrics.reset("index.%s." % index.name)
    t_maint, _ = timed(db.update, company, {"location": "Flint"})
    recomputed = db.metrics.value("index.%s.recomputes" % index.name)
    db.update(company, {"location": "Detroit"})  # restore

    print_table(
        "E3: nested predicate over %d vehicles" % db.count("Vehicle"),
        ("strategy", "ms", "notes"),
        [
            ("naive nested evaluation", round(t_naive * 1e3, 2), "deref per candidate"),
            ("nested-attribute index", round(t_indexed * 1e3, 2), "%d matches" % len(indexed_result)),
            (
                "intermediate update",
                round(t_maint * 1e3, 2),
                "%d dependent targets recomputed" % recomputed,
            ),
        ],
    )
    assert t_indexed < t_naive, "nested index must beat naive evaluation"
    assert recomputed > 0
