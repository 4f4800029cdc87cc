"""E10: views cost ~the underlying query; federation spans three engines.

Section 5.4 proposes views as virtual classes; the rewrite should add
only planning-time overhead.  Section 5.2's multidatabase scenario —
Employee in a relational system, Product in a hierarchical system,
Company in an OODB — runs as one federation under the common OO model.
"""

import pytest
from conftest import print_table, timed

from repro import AttributeDef, Database
from repro.bench.schemas import build_vehicle_schema, populate_vehicles
from repro.multidb import (
    Federation,
    HierarchicalAdapter,
    HierarchicalDatabase,
    ObjectAdapter,
    RelationalAdapter,
)
from repro.relational import RelationalEngine
from repro.views import attach as attach_views

DIRECT = "SELECT v FROM Vehicle v WHERE v.weight > 7500 AND v.color = 'red'"
VIA_VIEW = "SELECT h FROM Heavy h WHERE h.color = 'red'"


@pytest.fixture(scope="module")
def view_db():
    db = Database()
    attach_views(db)
    build_vehicle_schema(db)
    populate_vehicles(db, n_vehicles=3000, n_companies=30, seed=10)
    db.create_hierarchy_index("Vehicle", "weight")
    db.views.define_view("Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 7500")
    return db


def test_direct_query(view_db, benchmark):
    benchmark(lambda: view_db.select(DIRECT))


def test_view_query(view_db, benchmark):
    benchmark(lambda: view_db.select(VIA_VIEW))


def test_view_overhead_summary(view_db):
    expected = [h.oid for h in view_db.select(DIRECT)]
    t_direct, _ = timed(lambda: [view_db.select(DIRECT) for _ in range(10)])
    t_view, via_view = timed(lambda: [view_db.select(VIA_VIEW) for _ in range(10)])
    assert [h.oid for h in via_view[0]] == expected
    print_table(
        "E10a: view rewrite overhead (10 runs, %d matches)" % len(expected),
        ("path", "ms"),
        [
            ("direct query", round(t_direct * 1e3, 2)),
            ("through view", round(t_view * 1e3, 2)),
        ],
    )
    # Views may cost a little planning overhead but nothing structural.
    assert t_view < t_direct * 2 + 0.05


@pytest.fixture(scope="module")
def federation():
    engine = RelationalEngine()
    engine.create_table(
        "Employee",
        [("emp_id", "int"), ("name", "str"), ("company", "str")],
        primary_key="emp_id",
    )
    for emp_id in range(200):
        engine.insert(
            "Employee",
            {
                "emp_id": emp_id,
                "name": "emp-%d" % emp_id,
                "company": "company-%d" % (emp_id % 10),
            },
        )

    hdb = HierarchicalDatabase()
    hdb.define_segment("ProductLine", ["line"])
    hdb.define_segment("Product", ["sku", "price"], parent="ProductLine")
    for line_no in range(5):
        line_id = hdb.insert("ProductLine", {"line": "line-%d" % line_no})
        for product_no in range(40):
            hdb.insert(
                "Product",
                {"sku": "P-%d-%d" % (line_no, product_no), "price": product_no},
                parent_id=line_id,
            )

    odb = Database()
    odb.define_class(
        "Company",
        attributes=[AttributeDef("name", "String"), AttributeDef("location", "String")],
    )
    for company_no in range(10):
        odb.new(
            "Company",
            {
                "name": "company-%d" % company_no,
                "location": "Detroit" if company_no % 2 == 0 else "Tokyo",
            },
        )

    federation = Federation()
    federation.register("relational", RelationalAdapter(engine))
    federation.register("hierarchical", HierarchicalAdapter(hdb))
    federation.register("objects", ObjectAdapter(odb, ["Company"]))
    return federation


def test_federated_query_each_source(federation, benchmark):
    def run():
        employees = federation.query(
            "SELECT e FROM Employee e WHERE e.company = 'company-2'"
        )
        products = federation.query(
            "SELECT p FROM Product p WHERE p.parent_id.line = 'line-1' AND p.price > 30"
        )
        companies = federation.query(
            "SELECT c FROM Company c WHERE c.location = 'Detroit'"
        )
        return employees, products, companies

    employees, products, companies = benchmark(run)
    assert len(employees) == 20
    assert len(products) == 9
    assert len(companies) == 5


def test_federation_summary(federation):
    rows = []
    for description, query in [
        ("relational", "SELECT e FROM Employee e WHERE e.company = 'company-2'"),
        ("hierarchical + parent path", "SELECT p FROM Product p WHERE p.parent_id.line = 'line-1'"),
        ("object", "SELECT c FROM Company c WHERE c.location = 'Detroit'"),
    ]:
        t, result = timed(federation.query, query)
        rows.append((description, len(result), round(t * 1e3, 2)))
    print_table(
        "E10b: one OQL surface over three engines",
        ("source", "rows", "ms"),
        rows,
    )
    assert federation.class_names()
