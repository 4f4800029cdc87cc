"""Formal properties of the query model (Section 5.3).

The paper calls for a formal basis for the query model over the two
hierarchies.  These tests check the algebraic laws the implementation
must satisfy — each is a small theorem of the model:

* **hierarchy decomposition** — a hierarchy-scoped query equals the
  identity-union of ONLY-scoped queries over every class in the
  hierarchy;
* **selection composition** — sigma(p AND q) = sigma(p) . sigma(q);
* **De Morgan / double negation** over predicate evaluation;
* **set-operation identities** on extents by object identity;
* **index transparency** — access path never changes answers (checked
  against all index kinds over many random predicates).
"""

import random

import pytest

from repro import Database
from repro.bench.schemas import build_vehicle_schema, populate_vehicles
from repro.query import algebra
from repro.query.ast import And, Comparison, Const, Not, Or, Path, Query
from repro.query.parser import parse_query


@pytest.fixture(scope="module")
def pdb():
    db = Database()
    build_vehicle_schema(db)
    populate_vehicles(db, n_vehicles=300, n_companies=15, seed=2026)
    return db


def oids(db, query_text):
    return [h.oid for h in db.select(query_text)]


def random_predicates(rng, variable="v"):
    """A pool of random sargable/unsargable predicate strings."""
    choices = [
        "%s.weight > %d" % (variable, rng.randrange(1000, 12000)),
        "%s.weight <= %d" % (variable, rng.randrange(1000, 12000)),
        "%s.color = '%s'" % (variable, rng.choice(["red", "blue", "white", "black"])),
        "%s.price < %d" % (variable, rng.randrange(5000, 100000)),
        "%s.manufacturer.location = '%s'"
        % (variable, rng.choice(["Detroit", "Tokyo", "Austin"])),
    ]
    return rng.choice(choices)


class TestHierarchyDecomposition:
    def test_hierarchy_equals_union_of_only_scopes(self, pdb):
        classes = pdb.schema.hierarchy_of("Vehicle")
        whole = set(oids(pdb, "SELECT v FROM Vehicle v WHERE v.weight > 7500"))
        parts = set()
        for cls in classes:
            parts |= set(
                oids(pdb, "SELECT v FROM ONLY %s v WHERE v.weight > 7500" % cls)
            )
        assert whole == parts

    def test_only_scopes_are_disjoint(self, pdb):
        classes = pdb.schema.hierarchy_of("Vehicle")
        seen = set()
        for cls in classes:
            extent = set(oids(pdb, "SELECT v FROM ONLY %s v" % cls))
            assert not (extent & seen)
            seen |= extent

    def test_subclass_scope_contained_in_superclass_scope(self, pdb):
        autos = set(oids(pdb, "SELECT a FROM Automobile a"))
        vehicles = set(oids(pdb, "SELECT v FROM Vehicle v"))
        assert autos <= vehicles


class TestSelectionLaws:
    @pytest.mark.parametrize("seed", range(6))
    def test_conjunction_is_composition(self, pdb, seed):
        rng = random.Random(seed)
        p, q = random_predicates(rng), random_predicates(rng)
        combined = set(oids(pdb, "SELECT v FROM Vehicle v WHERE %s AND %s" % (p, q)))
        left = set(oids(pdb, "SELECT v FROM Vehicle v WHERE %s" % p))
        right = set(oids(pdb, "SELECT v FROM Vehicle v WHERE %s" % q))
        assert combined == left & right

    @pytest.mark.parametrize("seed", range(6))
    def test_disjunction_is_union(self, pdb, seed):
        rng = random.Random(100 + seed)
        p, q = random_predicates(rng), random_predicates(rng)
        combined = set(oids(pdb, "SELECT v FROM Vehicle v WHERE %s OR %s" % (p, q)))
        left = set(oids(pdb, "SELECT v FROM Vehicle v WHERE %s" % p))
        right = set(oids(pdb, "SELECT v FROM Vehicle v WHERE %s" % q))
        assert combined == left | right

    @pytest.mark.parametrize("seed", range(6))
    def test_de_morgan(self, pdb, seed):
        rng = random.Random(200 + seed)
        p, q = random_predicates(rng), random_predicates(rng)
        lhs = set(
            oids(pdb, "SELECT v FROM Vehicle v WHERE NOT (%s OR %s)" % (p, q))
        )
        rhs = set(
            oids(pdb, "SELECT v FROM Vehicle v WHERE NOT %s AND NOT %s" % (p, q))
        )
        assert lhs == rhs

    @pytest.mark.parametrize("seed", range(4))
    def test_double_negation(self, pdb, seed):
        rng = random.Random(300 + seed)
        p = random_predicates(rng)
        assert set(oids(pdb, "SELECT v FROM Vehicle v WHERE NOT NOT %s" % p)) == set(
            oids(pdb, "SELECT v FROM Vehicle v WHERE %s" % p)
        )

    def test_selection_never_exceeds_extent(self, pdb):
        extent = set(oids(pdb, "SELECT v FROM Vehicle v"))
        rng = random.Random(9)
        for _ in range(5):
            subset = set(
                oids(pdb, "SELECT v FROM Vehicle v WHERE %s" % random_predicates(rng))
            )
            assert subset <= extent


class TestSetOperationIdentities:
    def extents(self, pdb):
        heavy = list(
            algebra.select(
                pdb.storage.scan_class("Vehicle"),
                parse_query("SELECT v FROM Vehicle v WHERE v.weight > 7500").where,
                pdb._deref,
            )
        )
        red = list(
            algebra.select(
                pdb.storage.scan_class("Vehicle"),
                parse_query("SELECT v FROM Vehicle v WHERE v.color = 'red'").where,
                pdb._deref,
            )
        )
        return heavy, red

    def test_union_commutes_on_identity(self, pdb):
        heavy, red = self.extents(pdb)
        ab = {s.oid for s in algebra.union(heavy, red)}
        ba = {s.oid for s in algebra.union(red, heavy)}
        assert ab == ba

    def test_union_idempotent(self, pdb):
        heavy, _red = self.extents(pdb)
        assert {s.oid for s in algebra.union(heavy, heavy)} == {s.oid for s in heavy}

    def test_inclusion_exclusion(self, pdb):
        heavy, red = self.extents(pdb)
        union = algebra.union(heavy, red)
        inter = algebra.intersect(heavy, red)
        assert len(union) == len(heavy) + len(red) - len(inter)

    def test_difference_and_intersection_partition(self, pdb):
        heavy, red = self.extents(pdb)
        diff = {s.oid for s in algebra.difference(heavy, red)}
        inter = {s.oid for s in algebra.intersect(heavy, red)}
        assert diff | inter == {s.oid for s in heavy}
        assert not (diff & inter)


class TestIndexTransparency:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_access_paths_agree(self, seed):
        db = Database()
        build_vehicle_schema(db)
        populate_vehicles(db, n_vehicles=150, n_companies=10, seed=seed)
        rng = random.Random(seed)
        queries = [
            "SELECT v FROM Vehicle v WHERE %s" % random_predicates(rng)
            for _ in range(4)
        ]
        baseline = [oids(db, q) for q in queries]
        db.create_hierarchy_index("Vehicle", "weight")
        db.create_hierarchy_index("Vehicle", "color")
        db.create_hierarchy_index("Vehicle", "price")
        db.create_nested_index("Vehicle", ["manufacturer", "location"])
        for query, expected in zip(queries, baseline):
            assert oids(db, query) == expected, query
