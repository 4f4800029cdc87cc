"""Path evaluation, algebra, planner and executor semantics."""

import math
import random

import pytest

from repro import AttributeDef, Database, MethodDef
from repro.bench.schemas import FIG1_QUERY, build_vehicle_schema, populate_vehicles
from repro.errors import QueryError
from repro.query.ast import Comparison, Const, Path, Query
from repro.query.parser import parse_query
from repro.query.paths import compare, evaluate_path, validate_path
from repro.query.planner import ExtentScan, IndexEqProbe, IndexOrderScan, IndexRangeProbe
from repro.query import algebra


@pytest.fixture
def pdb():
    db = Database()
    build_vehicle_schema(db)
    populate_vehicles(db, n_vehicles=150, n_companies=10, seed=11)
    return db


def brute_force_fig1(db):
    out = []
    for cls in db.schema.hierarchy_of("Vehicle"):
        for state in db.storage.scan_class(cls):
            if state.values["weight"] <= 7500:
                continue
            maker = state.values.get("manufacturer")
            if maker is None:
                continue
            if db.get_state(maker).values["location"] == "Detroit":
                out.append(state.oid)
    return sorted(out)


class TestPathEvaluation:
    def test_single_step(self, pdb):
        state = next(iter(pdb.storage.scan_class("Vehicle")))
        assert evaluate_path(state, ("weight",), pdb._deref) == [state.values["weight"]]

    def test_nested_step(self, pdb):
        state = next(iter(pdb.storage.scan_class("Vehicle")))
        location = evaluate_path(state, ("manufacturer", "location"), pdb._deref)
        maker = pdb.get_state(state.values["manufacturer"])
        assert location == [maker.values["location"]]

    def test_broken_chain_yields_nothing(self, pdb):
        vehicle = pdb.new("Vehicle", {"weight": 1})
        state = pdb.get_state(vehicle.oid)
        assert evaluate_path(state, ("manufacturer", "location"), pdb._deref) == []

    def test_multi_valued_fanout(self, db):
        db.define_class("Tag", attributes=[AttributeDef("label", "String")])
        db.define_class("Doc", attributes=[AttributeDef("tags", "Tag", multi=True)])
        tags = [db.new("Tag", {"label": l}) for l in ("a", "b")]
        doc = db.new("Doc", {"tags": [t.oid for t in tags]})
        state = db.get_state(doc.oid)
        assert sorted(evaluate_path(state, ("tags", "label"), db._deref)) == ["a", "b"]

    def test_validate_path_ok(self, pdb):
        assert validate_path(pdb.schema, "Vehicle", ("manufacturer", "location")) == "String"

    def test_validate_path_bad_step(self, pdb):
        with pytest.raises(QueryError):
            validate_path(pdb.schema, "Vehicle", ("manufacturer", "bogus"))


class TestCompare:
    def test_numeric_cross_type(self):
        assert compare("=", 7500.0, 7500)
        assert compare(">", 7500.5, 7500)

    def test_bool_not_equal_to_int(self):
        assert not compare("=", True, 1)

    def test_none_never_orders(self):
        assert not compare("<", None, 5)
        assert not compare(">", 5, None)

    def test_incomparable_types_false(self):
        assert not compare("<", "abc", 5)

    def test_like_patterns(self):
        assert compare("like", "company-12", "company-%")
        assert compare("like", "abc", "a_c")
        assert not compare("like", "abc", "a_d")
        assert not compare("like", 5, "5%")

    def test_in(self):
        assert compare("in", "red", ["red", "blue"])
        assert not compare("in", "green", ["red", "blue"])


class TestExecutorSemantics:
    def test_fig1_scan_matches_brute_force(self, pdb):
        assert [h.oid for h in pdb.select(FIG1_QUERY)] == brute_force_fig1(pdb)

    def test_fig1_with_indexes_same_answer(self, pdb):
        expected = brute_force_fig1(pdb)
        pdb.create_hierarchy_index("Vehicle", "weight")
        assert [h.oid for h in pdb.select(FIG1_QUERY)] == expected
        pdb.create_nested_index("Vehicle", ["manufacturer", "location"])
        assert [h.oid for h in pdb.select(FIG1_QUERY)] == expected

    def test_hierarchy_scope_default(self, pdb):
        total = len(pdb.select("SELECT v FROM Vehicle v"))
        assert total == pdb.count("Vehicle", hierarchy=True)

    def test_only_scope(self, pdb):
        only = len(pdb.select("SELECT v FROM ONLY Vehicle v"))
        assert only == pdb.count("Vehicle", hierarchy=False)
        assert only < pdb.count("Vehicle", hierarchy=True)

    def test_subclass_target(self, pdb):
        autos = pdb.select("SELECT a FROM Automobile a")
        classes = {pdb.class_of(h.oid) for h in autos}
        assert classes <= {"Automobile", "DomesticAutomobile"}

    def test_projection_rows(self, pdb):
        result = pdb.execute(
            "SELECT v.weight, v.manufacturer.name FROM Vehicle v LIMIT 3"
        )
        assert len(result.rows) == 3
        for row in result.rows:
            assert set(row) == {"weight", "manufacturer.name"}

    def test_order_by_and_limit(self, pdb):
        result = pdb.execute("SELECT v FROM Vehicle v ORDER BY v.weight DESC LIMIT 5")
        weights = [pdb.get_state(oid).values["weight"] for oid in result.oids]
        assert weights == sorted(weights, reverse=True)
        assert len(weights) == 5

    def test_default_order_is_oid(self, pdb):
        result = pdb.execute("SELECT v FROM Vehicle v")
        assert result.oids == sorted(result.oids)

    def test_in_predicate(self, pdb):
        reds_blues = pdb.select("SELECT v FROM Vehicle v WHERE v.color IN ('red','blue')")
        for handle in reds_blues:
            assert handle["color"] in ("red", "blue")

    def test_not_predicate(self, pdb):
        not_red = pdb.select("SELECT v FROM Vehicle v WHERE NOT v.color = 'red'")
        red = pdb.select("SELECT v FROM Vehicle v WHERE v.color = 'red'")
        assert len(not_red) + len(red) == pdb.count("Vehicle")

    def test_method_predicate(self, db):
        def is_heavy(receiver):
            return receiver["weight"] > 100

        db.define_class(
            "Box",
            attributes=[AttributeDef("weight", "Integer")],
            methods=[MethodDef("is_heavy", is_heavy)],
        )
        db.new("Box", {"weight": 50})
        heavy = db.new("Box", {"weight": 500})
        result = db.select("SELECT b FROM Box b WHERE b.is_heavy()")
        assert [h.oid for h in result] == [heavy.oid]

    def test_programmatic_query_object(self, pdb):
        query = Query(
            "Vehicle",
            where=Comparison(">", Path(("weight",)), Const(7500)),
        )
        via_object = pdb.execute(query)
        via_text = pdb.execute("SELECT v FROM Vehicle v WHERE v.weight > 7500")
        assert via_object.oids == via_text.oids


class TestPlanner:
    def test_scan_without_index(self, pdb):
        plan = pdb.plan("SELECT v FROM Vehicle v WHERE v.weight = 1")
        assert isinstance(plan.access, ExtentScan)

    def test_eq_probe_with_index(self, pdb):
        pdb.create_hierarchy_index("Vehicle", "weight")
        plan = pdb.plan("SELECT v FROM Vehicle v WHERE v.weight = 1")
        assert isinstance(plan.access, IndexEqProbe)

    def test_range_probe(self, pdb):
        pdb.create_hierarchy_index("Vehicle", "weight")
        plan = pdb.plan("SELECT v FROM Vehicle v WHERE v.weight > 7500")
        assert isinstance(plan.access, IndexRangeProbe)
        assert plan.access.low == 7500 and not plan.access.include_low

    def test_residual_retained(self, pdb):
        pdb.create_hierarchy_index("Vehicle", "weight")
        plan = pdb.plan(FIG1_QUERY)
        assert plan.residual is not None

    def test_single_class_index_not_used_for_hierarchy_scope(self, pdb):
        pdb.create_class_index("Vehicle", "weight")
        plan = pdb.plan("SELECT v FROM Vehicle v WHERE v.weight = 1")
        assert isinstance(plan.access, ExtentScan)
        plan_only = pdb.plan("SELECT v FROM ONLY Vehicle v WHERE v.weight = 1")
        assert isinstance(plan_only.access, IndexEqProbe)

    def test_unsargable_ops_scan(self, pdb):
        pdb.create_hierarchy_index("Vehicle", "color")
        plan = pdb.plan("SELECT v FROM Vehicle v WHERE v.color LIKE 'r%'")
        assert isinstance(plan.access, ExtentScan)

    def test_or_not_sargable(self, pdb):
        pdb.create_hierarchy_index("Vehicle", "weight")
        plan = pdb.plan(
            "SELECT v FROM Vehicle v WHERE v.weight = 1 OR v.color = 'red'"
        )
        assert isinstance(plan.access, ExtentScan)

    def test_explain_mentions_access(self, pdb):
        pdb.create_hierarchy_index("Vehicle", "weight")
        text = pdb.plan("SELECT v FROM Vehicle v WHERE v.weight = 1").explain()
        assert "index-eq" in text and "scope:" in text

    def test_unknown_class_rejected(self, pdb):
        with pytest.raises(Exception):
            pdb.plan("SELECT x FROM Nope x")

    def test_invalid_predicate_path_rejected(self, pdb):
        with pytest.raises(QueryError):
            pdb.plan("SELECT v FROM Vehicle v WHERE v.bogus = 1")


class TestAlgebra:
    def test_set_ops_by_identity(self, pdb):
        all_vehicles = list(pdb.storage.scan_class("Vehicle"))
        heavy = [s for s in all_vehicles if s.values["weight"] > 7500]
        red = [s for s in all_vehicles if s.values["color"] == "red"]
        union = algebra.union(heavy, red)
        inter = algebra.intersect(heavy, red)
        diff = algebra.difference(heavy, red)
        assert len(union) == len(heavy) + len(red) - len(inter)
        assert len(diff) == len(heavy) - len(inter)
        assert {s.oid for s in inter} <= {s.oid for s in heavy}

    def test_project(self, pdb):
        states = list(pdb.storage.scan_class("Vehicle"))[:3]
        rows = list(algebra.project(states, [("weight",)], pdb._deref))
        assert [row["weight"] for row in rows] == [s.values["weight"] for s in states]

    def test_unnest(self, pdb):
        states = list(pdb.storage.scan_class("Vehicle"))[:5]
        makers = list(algebra.unnest(states, "manufacturer", pdb._deref))
        assert all(m.class_name.endswith("Company") or m.class_name == "Company" for m in makers)

    def test_order_by_missing_values_last(self, db):
        db.define_class("T", attributes=[AttributeDef("k", "Integer")])
        a = db.new("T", {"k": 2})
        b = db.new("T", {"k": None})
        c = db.new("T", {"k": 1})
        states = list(db.storage.scan_class("T"))
        ordered = algebra.order_by(states, ("k",), db._deref)
        assert [s.oid for s in ordered] == [c.oid, a.oid, b.oid]
        ordered_desc = algebra.order_by(states, ("k",), db._deref, descending=True)
        assert [s.oid for s in ordered_desc] == [a.oid, c.oid, b.oid]


def nan_db(n, seed, index=False):
    """``n`` objects whose Float ``x`` is NaN one time in ten."""
    rng = random.Random(seed)
    db = Database()
    db.define_class("M", attributes=[AttributeDef("x", "Float")])
    if index:
        db.create_class_index("M", "x")
    rows = {}
    for _ in range(n):
        x = float("nan") if rng.random() < 0.1 else rng.uniform(0, 100)
        rows[db.new("M", {"x": x}).oid] = x
    return db, rows


class TestNaNRank:
    """NaN is one key, equal to itself and after every number (PostgreSQL's
    rule), in B+-tree keys, ORDER BY keys, top-K and GROUP BY."""

    def test_index_ranges_keep_every_committed_row(self):
        db, rows = nan_db(300, 5, index=True)
        for low in range(0, 100, 7):
            result = db.execute("SELECT m FROM M m WHERE m.x >= %d AND m.x < %d" % (low, low + 10))
            assert isinstance(result.plan.access, IndexRangeProbe)
            want = sorted(oid for oid, x in rows.items() if low <= x < low + 10)
            assert sorted(result.oids) == want, low
        db.close()

    @pytest.mark.parametrize("index", [False, True])
    def test_order_by_limit_is_the_full_sort_prefix(self, index):
        db, rows = nan_db(60, 9, index=index)
        for direction in ("", " DESC"):
            full = db.execute("SELECT m FROM M m ORDER BY m.x%s" % direction).oids
            present = [oid for oid in full if not math.isnan(rows[oid])]
            nans = [oid for oid in full if math.isnan(rows[oid])]
            # NaN ranks after every number: last ascending, first descending.
            assert full == (present + nans if not direction else nans + present)
            for k in range(1, 11):
                limited = db.execute("SELECT m FROM M m ORDER BY m.x%s LIMIT %d" % (direction, k))
                assert limited.oids == full[:k], (direction, k)
                assert isinstance(limited.plan.access, IndexOrderScan) == index
        db.close()

    def test_group_by_puts_every_nan_in_one_group(self):
        db = Database()
        db.define_class("M", attributes=[AttributeDef("x", "Float")])
        for x in (1.0, float("nan"), 2.0, float("nan"), float("nan"), 1, float("nan")):
            db.new("M", {"x": x})
        rows = db.execute("SELECT m.x, COUNT(m) FROM M m GROUP BY m.x").rows
        assert [row["count(*)"] for row in rows] == [2, 1, 4]
        assert math.isnan(rows[2]["x"])
        db.close()
