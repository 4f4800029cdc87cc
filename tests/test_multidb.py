"""Hierarchical database, federation, OSQL migration."""

import pytest

from repro import AttributeDef, Database
from repro.errors import FederationError, QuerySyntaxError
from repro.multidb import (
    Federation,
    HierarchicalAdapter,
    HierarchicalDatabase,
    ObjectAdapter,
    RelationalAdapter,
    run_osql,
    translate_sql,
)
from repro.query.ast import AdtPredicate, And, Comparison, Const, MethodCall, Path, Query
from repro.relational import RelationalEngine


@pytest.fixture
def hdb():
    hdb = HierarchicalDatabase("products")
    hdb.define_segment("ProductLine", ["line"])
    hdb.define_segment("Product", ["sku", "price"], parent="ProductLine")
    trucks = hdb.insert("ProductLine", {"line": "trucks"})
    cars = hdb.insert("ProductLine", {"line": "cars"})
    hdb.insert("Product", {"sku": "T-100", "price": 50}, parent_id=trucks)
    hdb.insert("Product", {"sku": "T-200", "price": 70}, parent_id=trucks)
    hdb.insert("Product", {"sku": "C-1", "price": 30}, parent_id=cars)
    return hdb


class TestHierarchicalDatabase:
    def test_roots_and_children(self, hdb):
        roots = hdb.roots("ProductLine")
        assert [r.fields["line"] for r in roots] == ["trucks", "cars"]
        children = hdb.children(roots[0].record_id)
        assert [c.fields["sku"] for c in children] == ["T-100", "T-200"]

    def test_parent_navigation(self, hdb):
        product = next(hdb.scan("Product"))
        assert hdb.parent(product.record_id).fields["line"] == "trucks"

    def test_root_has_no_parent(self, hdb):
        root = hdb.roots("ProductLine")[0]
        assert hdb.parent(root.record_id) is None

    def test_child_requires_parent(self, hdb):
        with pytest.raises(FederationError):
            hdb.insert("Product", {"sku": "X"})

    def test_root_takes_no_parent(self, hdb):
        root = hdb.roots("ProductLine")[0]
        with pytest.raises(FederationError):
            hdb.insert("ProductLine", {"line": "x"}, parent_id=root.record_id)

    def test_wrong_parent_segment_rejected(self, hdb):
        product = next(hdb.scan("Product"))
        with pytest.raises(FederationError):
            hdb.insert("Product", {"sku": "Y"}, parent_id=product.record_id)

    def test_unknown_fields_rejected(self, hdb):
        with pytest.raises(FederationError):
            hdb.insert("ProductLine", {"bogus": 1})

    def test_duplicate_segment_rejected(self, hdb):
        with pytest.raises(FederationError):
            hdb.define_segment("Product", ["x"])


@pytest.fixture
def federation(hdb):
    engine = RelationalEngine()
    engine.create_table(
        "Employee",
        [("emp_id", "int"), ("name", "str"), ("company", "str")],
        primary_key="emp_id",
    )
    engine.insert("Employee", {"emp_id": 1, "name": "alice", "company": "GM"})
    engine.insert("Employee", {"emp_id": 2, "name": "bob", "company": "Ford"})

    odb = Database()
    odb.define_class(
        "Company",
        attributes=[AttributeDef("name", "String"), AttributeDef("location", "String")],
    )
    odb.new("Company", {"name": "GM", "location": "Detroit"})
    odb.new("Company", {"name": "Ford", "location": "Dearborn"})

    federation = Federation()
    federation.register("relational", RelationalAdapter(engine))
    federation.register("hierarchical", HierarchicalAdapter(hdb))
    federation.register("objects", ObjectAdapter(odb, ["Company"]))
    return federation


class TestFederation:
    def test_catalog_spans_sources(self, federation):
        names = federation.class_names()
        assert {"Employee", "Product", "ProductLine", "Company"} <= set(names)
        assert federation.source_of("Employee") == "relational"
        assert federation.source_of("Company") == "objects"

    def test_duplicate_virtual_class_rejected(self, federation, hdb):
        with pytest.raises(FederationError):
            federation.register("again", HierarchicalAdapter(hdb))

    def test_scan_each_source(self, federation):
        assert len(list(federation.scan("Employee"))) == 2
        assert len(list(federation.scan("Product"))) == 3
        assert len(list(federation.scan("Company"))) == 2

    def test_query_relational_source(self, federation):
        rows = federation.query("SELECT e FROM Employee e WHERE e.company = 'GM'")
        assert [r["name"] for r in rows] == ["alice"]

    def test_query_hierarchical_with_parent_path(self, federation):
        rows = federation.query(
            "SELECT p FROM Product p WHERE p.parent_id.line = 'trucks'"
        )
        assert sorted(r["sku"] for r in rows) == ["T-100", "T-200"]

    def test_query_object_source(self, federation):
        rows = federation.query("SELECT c FROM Company c WHERE c.location = 'Detroit'")
        assert [r["name"] for r in rows] == ["GM"]

    def test_projection_and_order(self, federation):
        rows = federation.query(
            "SELECT p.sku FROM Product p ORDER BY p.price DESC LIMIT 2"
        )
        assert [r["sku"] for r in rows] == ["T-200", "T-100"]

    def test_unknown_class_rejected(self, federation):
        with pytest.raises(FederationError):
            federation.query("SELECT x FROM Ghost x")

    def test_boolean_operators(self, federation):
        rows = federation.query(
            "SELECT p FROM Product p WHERE p.price > 20 AND NOT p.sku = 'C-1'"
        )
        assert sorted(r["sku"] for r in rows) == ["T-100", "T-200"]

    @pytest.mark.parametrize(
        "behaviour",
        [MethodCall(None, "bonus", []), AdtPredicate("overlaps", Path(("name",)), [1])],
    )
    def test_behaviour_predicates_raise_when_a_row_reaches_them(
        self, federation, behaviour
    ):
        # Compiling is fine (see the short-circuit below); testing a row is not.
        with pytest.raises(FederationError, match="comparisons and boolean"):
            federation.query(Query("Employee", "e", where=behaviour))
        # A row the AND short-circuits never reaches the predicate.
        nobody = Comparison("=", Path(("company",)), Const("Nobody"))
        short_circuited = Query("Employee", "e", where=And([nobody, behaviour]))
        assert federation.query(short_circuited) == []

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT count(*) FROM Employee e",
            "SELECT e.company, count(*) FROM Employee e GROUP BY e.company",
        ],
    )
    def test_aggregates_refused(self, federation, text):
        with pytest.raises(FederationError, match="aggregates"):
            federation.query(text)


def assemblies(count):
    """``count`` assemblies over three parts: one ``part``, a set-valued
    ``parts`` and a set-valued ``tags`` each."""
    db = Database()
    db.define_class("Part", attributes=[AttributeDef("n", "Integer")])
    db.define_class(
        "Assembly",
        attributes=[
            AttributeDef("part", "Part"),
            AttributeDef("parts", "Part", multi=True),
            AttributeDef("tags", "String", multi=True),
        ],
    )
    parts = [db.new("Part", {"n": n}).oid for n in (1, 2, 3)]
    for i in range(count):
        db.new(
            "Assembly",
            {"part": parts[i % 3], "parts": parts[i % 3:], "tags": ["a", "b"][i % 2:]},
        )
    return db


class CountingAdapter(ObjectAdapter):
    """An object adapter that counts its scans."""

    scans = 0

    def scan(self, class_name):
        self.scans += 1
        return super().scan(class_name)


class TestFederatedPaths:
    """Federated paths read as the engine's do: a list fans out, and each
    element of a set-valued reference is followed."""

    @pytest.mark.parametrize(
        "where",
        ["a.parts.n = 1", "a.parts.n = 3", "a.tags = 'a'", "a.tags = 'b'", "a.part.n = 2"],
    )
    def test_an_object_adapter_selects_what_the_engine_selects(self, where):
        db = assemblies(6)
        federation = Federation()
        federation.register("objects", ObjectAdapter(db, ["Part", "Assembly"]))
        text = "SELECT a FROM Assembly a WHERE %s" % where
        want = db.execute(text).oids
        assert want
        assert [row["oid"] for row in federation.query(text)] == want
        projected = "SELECT a.parts.n, a.tags FROM Assembly a WHERE %s" % where
        assert federation.query(projected) == db.execute(projected).rows
        db.close()

    def test_each_followed_class_is_scanned_once_per_query(self):
        db = assemblies(200)
        adapter = CountingAdapter(db, ["Part", "Assembly"])
        federation = Federation()
        federation.register("objects", adapter)
        rows = federation.query("SELECT a FROM Assembly a WHERE a.part.n = 1")
        assert len(rows) == 67
        assert adapter.scans == 2  # the assemblies, then the parts once
        federation.query("SELECT a FROM Assembly a WHERE a.parts.n = 3")
        assert adapter.scans == 4  # a new query scans anew
        db.close()


class TestObjectAdapterReadsThroughQueries:
    """The object adapter sees what an ``ONLY`` query shows the subject."""

    def test_lazily_defaulted_attribute_is_visible(self):
        from repro.evolution import SchemaEvolution

        db = Database()
        db.define_class("P", attributes=[AttributeDef("n", "Integer")])
        for n in range(5):
            db.new("P", {"n": n})
        SchemaEvolution(db).add_attribute(
            "P", AttributeDef("color", "String", default="red")
        )
        federation = Federation()
        federation.register("objects", ObjectAdapter(db, ["P"]))
        rows = federation.query("SELECT p FROM P p WHERE p.color = 'red'")
        assert sorted(row["n"] for row in rows) == [0, 1, 2, 3, 4]

    def test_no_read_up_through_the_federation(self):
        from repro.authz import attach_mandatory

        db = Database()
        mac = attach_mandatory(db)
        db.define_class("Report", attributes=[AttributeDef("body", "String")])
        mac.classify_class("Report", "secret")
        mac.clear_subject("private", "unclassified")
        db.new("Report", {"body": "launch codes"})
        federation = Federation()
        federation.register("objects", ObjectAdapter(db, ["Report"]))
        mac.set_subject("private")
        assert db.select("SELECT r FROM Report r") == []
        assert federation.query("SELECT r FROM Report r") == []


class TestOsql:
    def test_translation_shape(self):
        translated = translate_sql(
            "SELECT name, weight FROM Vehicle WHERE weight > 7500 "
            "ORDER BY weight DESC LIMIT 3"
        )
        assert translated.oql == (
            "SELECT x.name, x.weight FROM Vehicle x WHERE x.weight > 7500 "
            "ORDER BY x.weight DESC LIMIT 3"
        )

    def test_star_translation(self):
        assert translate_sql("SELECT * FROM Vehicle").oql == "SELECT x FROM Vehicle x"

    def test_only_mode_preserves_sql_semantics(self):
        assert "FROM ONLY Vehicle" in translate_sql("SELECT * FROM Vehicle", only=True).oql

    def test_where_keywords_untouched(self):
        translated = translate_sql(
            "SELECT name FROM T WHERE a = 'x' AND NOT b = 3"
        )
        assert "x.a" in translated.oql and "x.b" in translated.oql
        assert "x.NOT" not in translated.oql and "x.AND" not in translated.oql

    def test_dotted_columns_become_paths(self):
        translated = translate_sql(
            "SELECT name FROM Vehicle WHERE manufacturer.location = 'Detroit'"
        )
        assert "x.manufacturer.location" in translated.oql

    def test_where_literals_and_adt_predicates_are_kept(self):
        translated = translate_sql(
            "SELECT * FROM Cell WHERE overlaps(shape, [0, 0, 4, 4]) "
            "AND name = 'O\\'Brien' AND w > 1.5e3"
        )
        assert translated.oql == (
            "SELECT x FROM Cell x WHERE overlaps(x.shape, [0, 0, 4, 4]) "
            "AND x.name = 'O\\'Brien' AND x.w > 1.5e3"
        )

    def test_bad_sql_rejected(self):
        with pytest.raises(QuerySyntaxError):
            translate_sql("DELETE FROM Vehicle")

    def test_run_osql_against_object_database(self):
        db = Database()
        db.define_class(
            "Customer",
            attributes=[AttributeDef("name", "String"), AttributeDef("age", "Integer")],
        )
        db.new("Customer", {"name": "ann", "age": 30})
        db.new("Customer", {"name": "bob", "age": 40})
        rows = run_osql(db, "SELECT name FROM Customer WHERE age > 35")
        assert rows == [{"name": "bob"}]
        handles = run_osql(db, "SELECT * FROM Customer")
        assert len(handles) == 2

    def test_same_sql_runs_on_both_engines(self):
        # The migration-path promise: identical SQL text against the
        # relational engine (via federation) and the OODB.
        sql = "SELECT name FROM Customer WHERE age > 35"
        db = Database()
        db.define_class(
            "Customer",
            attributes=[AttributeDef("name", "String"), AttributeDef("age", "Integer")],
        )
        db.new("Customer", {"name": "bob", "age": 40})
        oo_rows = run_osql(db, sql)

        engine = RelationalEngine()
        engine.create_table("Customer", [("name", "str"), ("age", "int")])
        engine.insert("Customer", {"name": "bob", "age": 40})
        federation = Federation()
        federation.register("rel", RelationalAdapter(engine))
        translated = translate_sql(sql)
        rel_rows = federation.query(translated.oql)
        assert [r["name"] for r in rel_rows] == [r["name"] for r in oo_rows] == ["bob"]
