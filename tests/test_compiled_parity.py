"""The compiled, batch-at-a-time pipeline answers exactly what the
reference interpreter does.

``repro.query.compiler`` turns each WHERE tree into one generated
batch filter, for object states and row dicts alike, and the operators
move rows a page at a time; ``algebra.select`` over
``evaluate_predicate`` / ``evaluate_path`` stays as the reference.
Random WHERE trees — the ``random_predicates`` pool of
``test_formal_properties`` plus edge-value leaves (None, attributes
missing from records stored before ``add_attribute``, list fan-out,
``True = 1`` against ``1``, OID equality, LIKE with ``% _ * ? [``,
``IN``, dangling references) — are checked four ways:

* **compiled vs. interpreted, row by row**, gate or no gate: the
  filter run over a one-row batch gives the same answer, or raises the
  same exception type, for every object;
* **through the engine**: ``execute`` and ``select_iter`` return what
  ``algebra.select`` selects from a plain copy of the world the query
  should see — at rest, inside a transaction with its own uncommitted
  writes, beside another writer's uncommitted update, delete and
  reclass, and before and after an ``add_attribute`` that changes what
  the kept page state tuples' records read;
* **through one transaction's view**: the same tree again and again
  inside one transaction, whose derefs the object buffer serves once
  warm, across its own writes and another transaction's commit;
* **over row dicts**: random trees through a federated virtual class
  (``!=``, ``IN``, LIKE and a cross-source reference, single and
  set-valued, among them) and through a Sys* view, over rows holding
  None, bools, ``1`` beside ``1.0``, lists and missing attributes, keep
  what the interpreter keeps over the same rows.

The generated batch filter (one comprehension per WHERE shape) is held
to the interpreter the same way, on the random trees and on leaves made
to take its inline cases; so is the generated source itself, which must
not change when attribute names and string literals turn hostile.
ORDER BY (both directions, with and without LIMIT) and GROUP BY keys
are checked against a reference built from ``evaluate_path``,
``normalize_key`` and the OID tiebreak; ``algebra.rank``'s top-K
against its full sort, and that against an independent ``sorted``, over
NaN, bools, mixed ints and floats, strings, None and ties, for object
states and row dicts; and ORDER BY through a federated class and a Sys*
view against the engine's.

Each execution's path memo (``SnapshotView.path_memo``) is held to the
interpreter over references that repeat and dangle, and to the plain
dereference where what it kept could go stale: a second execution after
another transaction's commit, and an index-order stream whose own
transaction writes, or whose attribute is dropped, between its fetches.
A plan with no step to dereference builds no memo.

``COMPILED_PARITY_EXAMPLES`` sets the trees per check (CI's weekly job
runs 500; tier-1 keeps a fixed-seed slice).
"""

import itertools
import os
import random
from functools import partial

import pytest

from repro import AttributeDef, Database
from repro.bench.schemas import FIG1_QUERY, build_vehicle_schema, populate_vehicles
from repro.core.obj import ObjectState
from repro.core.oid import OID
from repro.evolution import SchemaEvolution
from repro.errors import FederationError
from repro.index.btree import normalize_key
from repro.multidb import Federation, ObjectAdapter
from repro.multidb.federation import Adapter, FederationKernel, VirtualClass
from repro.obs.sysviews import SYSTEM_VIEWS, SystemViewsAdapter
from repro.query import algebra
from repro.query.ast import And, Comparison, Const, Not, Or, Path, Query
from repro.query.compiler import (
    SHAPE_CACHE_SIZE,
    FilterShapes,
    compile_path,
    filter_shape,
    filter_source,
)
from repro.query.operators import ObjectKernel
from repro.query.parser import parse_query
from repro.query.paths import evaluate_path
from repro.query.planner import IndexOrderScan
from repro.versions.store import SnapshotView

from .test_formal_properties import random_predicates

COMPILED_PARITY_EXAMPLES = int(os.environ.get("COMPILED_PARITY_EXAMPLES", "40"))

SCOPE = ("Item", "Special")
CLASSES = ("Company", "Part", "Item", "Special", "Other")
#: An OID no object ever had.
NEVER = OID(10**9)
VALUES = [
    None, True, False, 0, 1, 1.0, 2, 2.5, -1, "", "1", "x", "ab", "a%b",
    "a_b", "a*b", "a?b", "[ab]", "[", "Detroit",
]
PATTERNS = ["%", "_", "a%", "%b", "a_b", "a*b", "a?b", "[ab]", "[", "%[%", "x", "", 1, None]
ANY_PATHS = [("a",), ("m",), ("late",), ("part", "a"), ("parts", "a"), ("m", "a")]
REF_PATHS = [("part",), ("parts",), ("m",)]
OPS = ("=", "!=", "<", "<=", ">", ">=", "like", "in", "contains")


def build(seed):
    """Items over every edge: Any-typed values of mixed type, lists,
    references (some dangling once their parts are deleted) and an
    attribute added after most records were stored."""
    rng = random.Random(seed)
    db = Database()
    db.define_class("Company", attributes=[AttributeDef("location", "String")])
    db.define_class("Part", attributes=[AttributeDef("a", "Any"), AttributeDef("n", "Integer")])
    db.define_class(
        "Item",
        attributes=[
            AttributeDef("weight", "Integer"),
            AttributeDef("color", "String"),
            AttributeDef("price", "Integer"),
            AttributeDef("manufacturer", "Company"),
            AttributeDef("a", "Any"),
            AttributeDef("m", "Any", multi=True),
            AttributeDef("part", "Part"),
            AttributeDef("parts", "Part", multi=True),
        ],
    )
    db.define_class("Special", superclasses=("Item",))
    db.define_class("Other", attributes=[AttributeDef("a", "Any")])
    companies = [
        db.new("Company", {"location": city}).oid for city in ("Detroit", "Tokyo", "Austin")
    ]
    parts = [
        db.new("Part", {"a": rng.choice(VALUES), "n": rng.choice([None, 0, 1, 2])}).oid
        for _ in range(8)
    ]

    def new_item(extra=None):
        values = {
            "weight": rng.choice([None, rng.randrange(1000, 12000)]),
            "color": rng.choice([None, "red", "blue", "white", "black"]),
            "price": rng.randrange(5000, 100000),
            "manufacturer": rng.choice(companies + [None]),
            "a": rng.choice(VALUES + parts),
            "m": [rng.choice(VALUES[1:] + parts) for _ in range(rng.randrange(4))],
            "part": rng.choice(parts + [None]),
            "parts": rng.sample(parts, rng.randrange(3)),
        }
        values.update(extra or {})
        db.new(rng.choice(SCOPE), values)

    for _ in range(120):
        new_item()
    for _ in range(5):
        db.new("Other", {"a": rng.choice(VALUES)})
    # Records stored from here on carry ``late``; the 120 above are
    # coerced to its default on every read.
    SchemaEvolution(db).add_attribute("Item", AttributeDef("late", "Any", default="x"))
    for _ in range(30):
        new_item({"late": rng.choice(VALUES)})
    for dangling in parts[:2]:
        db.delete(dangling)
    return db, rng, parts


def world_of(db):
    """Every object as current storage holds it, coerced and copied:
    the plain-Python world a query made now must see."""
    return {
        state.oid: state.copy() for cls in CLASSES for state in db.storage.scan_class(cls)
    }


def random_leaf(rng, parts):
    roll = rng.random()
    if roll < 0.2:
        return parse_query("SELECT v FROM Item v WHERE %s" % random_predicates(rng)).where
    if roll < 0.4:
        op = rng.choice(("=", "!=", "in", "contains"))
        pool = parts + [NEVER, None]
        literal = (
            [rng.choice(pool) for _ in range(rng.randrange(3))]
            if op == "in"
            else rng.choice(pool)
        )
        return Comparison(op, Path(rng.choice(REF_PATHS)), Const(literal))
    op = rng.choice(OPS)
    pool = VALUES + parts[:3]
    if op == "in":
        literal = [rng.choice(pool) for _ in range(rng.randrange(4))]
    elif op == "like":
        literal = rng.choice(PATTERNS)
    else:
        literal = rng.choice(pool)
    return Comparison(op, Path(rng.choice(ANY_PATHS)), Const(literal))


def random_where(rng, parts, depth=0, leaf=random_leaf):
    if depth < 3 and rng.random() < 0.4:
        kind = rng.choice((And, Or, Not))
        if kind is Not:
            return Not(random_where(rng, parts, depth + 1, leaf))
        return kind([
            random_where(rng, parts, depth + 1, leaf) for _ in range(rng.choice((2, 2, 3)))
        ])
    return leaf(rng, parts)


def outcome(test, state):
    try:
        return bool(test(state))
    except Exception as exc:  # compared by type with the interpreter's
        return type(exc)


def batch_outcome(run):
    """The OIDs a batch run keeps, or the type of what it raised."""
    try:
        return [state.oid for state in run()]
    except Exception as exc:
        return type(exc)


def expected(world, where):
    extent = sorted(
        (state for state in world.values() if state.class_name in SCOPE),
        key=lambda state: state.oid.value,
    )
    return [state.oid for state in algebra.select(extent, where, world.get)]


def engine(db, where):
    """``execute`` and ``select_iter`` must agree; returns their OIDs."""
    executed = db.execute(Query("Item", "v", where=where)).oids
    streamed = [handle.oid for handle in db.select_iter(Query("Item", "v", where=where))]
    assert streamed == executed
    return executed


def edge_cases(parts):
    """One predicate per edge, picked by hand (all pass the gate)."""
    return [
        Comparison("=", Path(("a",)), Const(True)),
        Comparison("=", Path(("a",)), Const(1)),
        Comparison("!=", Path(("a",)), Const(None)),
        Comparison("in", Path(("a",)), Const([1, True, None])),
        Comparison("=", Path(("late",)), Const("x")),
        Comparison("like", Path(("late",)), Const("%")),
        Comparison("=", Path(("part",)), Const(parts[2])),
        Comparison("=", Path(("part",)), Const(parts[0])),  # dangling
        Comparison("=", Path(("part",)), Const(NEVER)),
        Comparison("=", Path(("part", "a")), Const(None)),
        Comparison("like", Path(("a",)), Const("a*b")),
        Comparison("like", Path(("m",)), Const("[ab]")),
        Comparison("=", Path(("m",)), Const(1)),
        Comparison("<", Path(("a",)), Const(2)),
        Comparison("contains", Path(("parts",)), Const(parts[3])),
    ]


def inline_edges(parts):
    """Leaves the generated filter inlines: one- and two-step paths
    against int, float and str literals, over bools, ``1.0``, lists,
    None, missing attributes and dangling references (``parts[:2]``)."""
    leaves = []
    for steps in (("a",), ("late",), ("part", "a"), ("part", "n"), ("m", "a")):
        for op in ("<", "<=", ">", ">=", "="):
            for literal in (0, 1, 1.0, 2.5):
                leaves.append(Comparison(op, Path(steps), Const(literal)))
        for op in ("=", "contains"):
            for literal in ("x", "", "1"):
                leaves.append(Comparison(op, Path(steps), Const(literal)))
    leaves.append(Comparison("=", Path(("manufacturer", "location")), Const("Detroit")))
    leaves.append(Comparison("<", Path(("part", "n")), Const(5)))
    return leaves + [
        And([leaves[0], Not(leaves[5])]),
        Or([leaves[40], leaves[3], leaves[-1]]),
        Not(And([leaves[-2], leaves[1]])),
    ]


def accepted(db, rng, parts):
    """The edge cases, then random WHERE trees the semantic gate lets
    through."""
    trees = edge_cases(parts)
    while len(trees) < len(edge_cases(parts)) + COMPILED_PARITY_EXAMPLES:
        where = random_where(rng, parts)
        if db.check(Query("Item", "v", where=where)).ok:
            trees.append(where)
    return trees


@pytest.fixture(scope="module")
def edge_db():
    db, _rng, parts = build(2026)
    yield db, parts
    db.close()


class TestCompiledPredicates:
    def test_compiled_equals_interpreted_on_every_row(self, edge_db):
        db, parts = edge_db
        world = world_of(db)
        kernel = ObjectKernel(world.get, FilterShapes())
        rng = random.Random(11)
        for _ in range(COMPILED_PARITY_EXAMPLES):
            where = random_where(rng, parts)
            compiled = kernel.filter(where)
            for state in world.values():
                reference = outcome(
                    lambda s: algebra.evaluate_predicate(where, s, world.get), state
                )
                assert outcome(lambda s: compiled([s]), state) == reference, (where, state)

    def test_edges_by_hand(self, edge_db):
        db, parts = edge_db
        world = world_of(db)
        kernel = ObjectKernel(world.get, FilterShapes())
        scope = [state for state in world.values() if state.class_name in SCOPE]
        for where in edge_cases(parts):
            hits = [state.oid for state in kernel.filter(where)(scope)]
            assert sorted(hits, key=lambda oid: oid.value) == expected(world, where), where

    def test_generated_filter_keeps_what_the_interpreter_keeps(self, edge_db):
        db, parts = edge_db
        world = world_of(db)
        kernel = ObjectKernel(world.get, FilterShapes())
        states = sorted(world.values(), key=lambda state: state.oid.value)
        rng = random.Random(13)
        trees = inline_edges(parts) + [
            random_where(rng, parts) for _ in range(COMPILED_PARITY_EXAMPLES)
        ]
        for where in trees:
            reference = batch_outcome(
                lambda: [s for s in states if algebra.evaluate_predicate(where, s, world.get)]
            )
            assert batch_outcome(lambda: kernel.filter(where)(states)) == reference, where
        # Each shape was generated once, whatever its names and literals.
        assert len(kernel.shapes) < len(trees)

    def test_the_database_keeps_one_factory_per_shape_until_close(self):
        db = Database()
        db.define_class("V", attributes=[AttributeDef("w", "Integer")])
        for w in range(10):
            db.new("V", {"w": w})
        assert len(db.execute("SELECT v FROM V v WHERE v.w > 4").oids) == 5
        assert len(db.execute("SELECT v FROM V v WHERE v.w > 7").oids) == 2
        assert len(db.filter_shapes) == 1
        # A system view's WHERE is generated into the same cache.
        assert db.execute("SELECT s FROM SysStat s WHERE s.kind = 'counter'").rows
        assert len(db.filter_shapes) == 2
        db.close()
        assert len(db.filter_shapes) == 0

    def test_the_shape_cache_is_bounded(self):
        leaves = [("call",)] + [
            (kind, op, length)
            for kind, ops in (("num", ("<", "<=", ">", ">=", "=")), ("str", ("=", "contains")))
            for op in ops
            for length in (1, 2)
        ]
        shapes = FilterShapes()
        for n, shape in enumerate(
            (conj, a, b) for conj in ("and", "or") for a in leaves for b in leaves
        ):
            if n > SHAPE_CACHE_SIZE:
                break
            shapes.factory(shape)
            assert 0 < len(shapes) <= SHAPE_CACHE_SIZE

    def test_method_and_adt_nodes_raise_only_when_a_row_reaches_them(self):
        from repro.query.ast import AdtPredicate, MethodCall

        kernels = [
            (ObjectKernel(lambda oid: None, FilterShapes()), ValueError,
             lambda a: ObjectState(OID(1), "R", {"a": a})),
            # Federated rows have no behaviour at all.
            (FederationKernel(Federation(), "R", FilterShapes()), FederationError,
             lambda a: {"a": a}),
        ]
        for kernel, error, row in kernels:
            for node in (MethodCall(None, "area", []), AdtPredicate("overlaps", Path(("a",)), [1])):
                shielded = Or([Comparison("=", Path(("a",)), Const(1)), node])
                assert kernel.filter(node)([]) == []
                assert kernel.filter(shielded)([row(1)]) == [row(1)]
                for where in (node, shielded):
                    with pytest.raises(error):
                        kernel.filter(where)([row(2)])


#: What federated and system rows hold: None, bools beside ``1`` and
#: ``1.0``, strings a LIKE pattern reads specially, and (rows only, not
#: literals) lists, which fan out.  A row misses an attribute one time
#: in five.
ROW_VALUES = [None, True, False, 0, 1, 1.0, 2, 2.5, "", "1", "x", "a%b", "a_b", "[ab]"]
ROW_LISTS = [[], [1, "x"], [None, 2.5], [True]]
#: Paths over the federated ``Row`` class; ``maker`` references the
#: object source's ``Maker`` (``zz`` is no attribute of either).
ROW_PATHS = [("a",), ("b",), ("zz",), ("maker",), ("maker", "a"), ("maker", "oid"), ("maker", "zz")]


def row_leaf(paths, rng, pool):
    """A comparison over one of ``paths`` against a literal from ``pool``."""
    op = rng.choice(OPS)
    if op == "in":
        literal = [rng.choice(pool) for _ in range(rng.randrange(4))]
    elif op == "like":
        literal = rng.choice(PATTERNS)
    else:
        literal = rng.choice(pool)
    return Comparison(op, Path(rng.choice(paths)), Const(literal))


def random_row(rng, attributes, **fixed):
    row = dict(fixed)
    row.update(
        (name, rng.choice(ROW_VALUES + ROW_LISTS)) for name in attributes if rng.random() < 0.8
    )
    return row


class RowsAdapter(Adapter):
    """Hand-made row dicts as the virtual class ``Row``, whose ``maker``
    refers, across sources, to the ``Maker`` whose ``oid`` it holds."""

    def __init__(self, rows):
        self.rows = rows

    def virtual_classes(self):
        return [VirtualClass("Row", ["id", "a", "b", "maker"], {"maker": ("Maker", "oid")})]

    def scan(self, class_name):
        return iter(self.rows)


class TestRowDictParity:
    """The generated filter over row dicts — a federated virtual class
    and a system view — keeps what the interpreter keeps over the same
    rows."""

    def test_a_federated_class_selects_what_the_interpreter_selects(self):
        rng = random.Random(17)
        odb = Database()
        odb.define_class("Maker", attributes=[AttributeDef("a", "Any")])
        makers = [
            odb.new("Maker", {"a": value}).oid for value in (1, 1.0, True, "x", None, [2, "x"])
        ]
        # A ``maker`` is one reference, None, a dangling one, or a list
        # of them (set-valued: each element is followed).
        references = makers + [None, NEVER, makers[:2], [makers[3], NEVER, None], []]
        rows = [
            random_row(rng, ("a", "b"), id=i, **(
                {"maker": rng.choice(references)} if rng.random() < 0.8 else {}
            ))
            for i in range(60)
        ]
        federation = Federation()
        federation.register("rows", RowsAdapter(rows))
        federation.register("objects", ObjectAdapter(odb, ["Maker"]))
        world = {row["oid"]: ObjectState(row["oid"], "Maker", row) for row in federation.scan("Maker")}
        states = [ObjectState(OID(10**6 + row["id"]), "Row", row) for row in rows]
        leaf = partial(row_leaf, ROW_PATHS)
        for _ in range(COMPILED_PARITY_EXAMPLES):
            where = random_where(rng, ROW_VALUES + makers + [NEVER], leaf=leaf)
            reference = [state.values["id"] for state in algebra.select(states, where, world.get)]
            got = [row["id"] for row in federation.query(Query("Row", "r", where=where))]
            assert got == reference, where
        # The standalone federation keeps its own shapes.
        assert 0 < len(federation.shapes) <= COMPILED_PARITY_EXAMPLES
        odb.close()

    def test_a_system_view_selects_what_the_interpreter_selects(self, monkeypatch):
        rng = random.Random(19)
        name, *attributes = SYSTEM_VIEWS["SysStat"][0]
        rows = [random_row(rng, attributes, **{name: "r%d" % i}) for i in range(60)]
        monkeypatch.setattr(SystemViewsAdapter, "_rows_sysstat", lambda adapter: iter(rows))
        states = [ObjectState(OID(i + 1), "SysStat", row) for i, row in enumerate(rows)]
        leaf = partial(row_leaf, [(attribute,) for attribute in (name, *attributes)])
        db = Database()
        for _ in range(COMPILED_PARITY_EXAMPLES):
            where = random_where(rng, ROW_VALUES + ["r3"], leaf=leaf)
            reference = [state.values[name] for state in algebra.select(states, where, {}.get)]
            got = [row[name] for row in db.execute(Query("SysStat", "s", where=where)).rows]
            assert got == reference, where
        db.close()


#: Attribute names and string literals that would do harm as source text.
HOSTILE = ["x') or __import__('os').system('true') or ('", "a\nb", "'\"", "__import__('os')"]


class TestHostileNames:
    """Names and literals are arguments of the generated factory, never
    text in it."""

    def shapes(self, first, second, literal):
        return [
            Comparison("=", Path((first,)), Const(literal)),
            Comparison("=", Path((first, second)), Const(literal)),
            And([Comparison(">", Path((first,)), Const(3)), Not(
                Comparison("contains", Path((first, second)), Const(literal)))]),
            Or([Comparison("like", Path((first,)), Const(literal)),
                Comparison("in", Path((second,)), Const([literal, 1]))]),
        ]

    def test_hostile_source_is_the_benign_source(self):
        benign = self.shapes("a", "b", "plain")
        literals = HOSTILE[1:] + HOSTILE[:1]
        for first, second, literal in zip(HOSTILE, reversed(HOSTILE), literals):
            for mild, wild in zip(benign, self.shapes(first, second, literal)):
                source = filter_source(filter_shape(wild, []))
                assert source == filter_source(filter_shape(mild, []))
                assert not any(text in source for text in HOSTILE)

    def test_hostile_names_select_what_the_interpreter_selects(self):
        world = {
            OID(100 + i): ObjectState(OID(100 + i), "R", {name: name for name in HOSTILE})
            for i in range(2)
        }
        values = HOSTILE + [3, 4.5, True, None, OID(100), OID(101), OID(999)]
        rows = [
            ObjectState(OID(i), "S", {name: value for name in HOSTILE})
            for i, value in enumerate(values)
        ]
        world.update((row.oid, row) for row in rows)
        kernel = ObjectKernel(world.get, FilterShapes())
        for first, second, literal in itertools.product(HOSTILE, repeat=3):
            for where in self.shapes(first, second, literal):
                reference = [
                    row.oid for row in rows
                    if algebra.evaluate_predicate(where, row, world.get)
                ]
                assert batch_outcome(lambda: kernel.filter(where)(rows)) == reference, where


#: ORDER BY / GROUP BY paths over every edge value: mixed Any values,
#: bools beside ``1``/``1.0``, lists, references (some dangling), an
#: attribute missing from old records, and None.
KEY_PATHS = [
    ("a",), ("m",), ("late",), ("part",), ("part", "a"), ("parts", "a"),
    ("m", "a"), ("weight",), ("color",), ("manufacturer", "location"),
]


def first_value(state, steps, world):
    values = evaluate_path(state, steps, world.get)
    return values[0] if values else None


def first_values(state, steps, world):
    """A projected column: None, the one value, or the fan-out list."""
    values = evaluate_path(state, steps, world.get)
    if not values:
        return None
    return values[0] if len(values) == 1 else values


def reference_order(world, steps, descending):
    """Present values by ``normalize_key`` then OID, reversed for
    DESC; objects with no value after them, by OID (descending for
    DESC)."""
    states = [state for state in world.values() if state.class_name in SCOPE]
    present, missing = [], []
    for state in states:
        value = first_value(state, steps, world)
        if value is None:
            missing.append(state.oid.value)
        else:
            present.append((normalize_key(value), state.oid.value))
    present.sort(reverse=descending)
    missing.sort(reverse=descending)
    order = [oid for _key, oid in present] + missing
    return [OID(value) for value in order]


def reference_groups(world, steps):
    """(normalized key, count, max price) per group; None last."""
    groups = {}
    for state in world.values():
        if state.class_name in SCOPE:
            key = normalize_key(first_value(state, steps, world))
            groups.setdefault(key, []).append(state.values["price"])
    ordered = sorted(groups, key=lambda key: (key == normalize_key(None), key))
    return [(key, len(groups[key]), max(groups[key])) for key in ordered]


class TestOrderAndGroupKeys:
    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("limit", [None, 1, 7, 500])
    def test_order_by_equals_the_reference(self, edge_db, descending, limit):
        db, _parts = edge_db
        world = world_of(db)
        for steps in KEY_PATHS:
            query = Query(
                "Item", "v", order_by=Path(steps), descending=descending, limit=limit
            )
            want = reference_order(world, steps, descending)[:limit]
            assert [oid.value for oid in db.execute(query).oids] == [
                oid.value for oid in want
            ], (steps, descending, limit)

    def test_group_by_equals_the_reference(self, edge_db):
        db, _parts = edge_db
        world = world_of(db)
        for steps in KEY_PATHS:
            dotted = ".".join(steps)
            rows = db.execute(
                "SELECT v.%s, COUNT(v), MAX(v.price) FROM Item v GROUP BY v.%s"
                % (dotted, dotted)
            ).rows
            got = [
                (normalize_key(row[dotted]), row["count(*)"], row["max(price)"])
                for row in rows
            ]
            assert got == reference_groups(world, steps), steps

    def test_a_single_valued_list_keys_as_its_first_item(self):
        """A single-valued ``Any`` attribute may hold a list; ORDER BY and
        GROUP BY read its first item, as for a multi-valued path."""
        db = Database()
        db.define_class(
            "Item", attributes=[AttributeDef("a", "Any"), AttributeDef("price", "Integer")]
        )
        values = [[1], 1, 1.0, ["x"], "x", [True], True, [], None, [2, 1], [None], 2]
        for price, value in enumerate(values):
            db.new("Item", {"a": value, "price": price})
        world = world_of(db)
        for descending in (False, True):
            query = Query("Item", "v", order_by=Path(("a",)), descending=descending)
            assert db.execute(query).oids == reference_order(world, ("a",), descending)
        rows = db.execute("SELECT v.a, COUNT(v), MAX(v.price) FROM Item v GROUP BY v.a").rows
        got = [(normalize_key(row["a"]), row["count(*)"], row["max(price)"]) for row in rows]
        assert got == reference_groups(world, ("a",))
        db.close()


#: ORDER BY values for top-K: NaN, bools beside ``0``/``1``, ints and
#: floats that tie (``1``/``1.0``, ``7``/``7.0``), None, and values that
#: rank apart from numbers.
TOPK_POOLS = {
    "ints": [0, 1, 2, 7, -1, 3],
    "numbers": [0, 1, 1.0, 2.5, 7, 7.0, -1, -0.0, 1e300],
    "nan": [1, 2.5, float("nan"), 7.0, -1],
    "bool": [0, 1, True, False, 2.5],
    "none": [1, 2, None, 3.5],
    "strings": ["b", "a", "", "B", "ab", "\u00e9"],
    "strings_and_none": ["b", None, "a"],
    "strings_and_numbers": ["a", 1, "b", 2.5],
    "mixed": [1, "1", [2], None, True, float("nan"), 2.5, OID(3)],
}


def sorted_reference(rows, first, oid, descending):
    """The full ORDER BY by ``sorted``: present first values by
    ``normalize_key`` (then ``oid``, if given), reversed for DESC; rows
    with no value after them, by ``oid`` (descending for DESC) or in
    scan order."""
    present = [row for row in rows if first(row) is not None]
    missing = [row for row in rows if first(row) is None]
    tiebreak = oid or (lambda row: 0)
    present = sorted(
        present, key=lambda row: (normalize_key(first(row)), tiebreak(row)), reverse=descending
    )
    return present + sorted(missing, key=tiebreak, reverse=descending)


def first_x(row):
    value = row.get("x")
    if isinstance(value, list):
        return value[0] if value else None
    return value


class TestTopK:
    """ORDER BY is one function, ``algebra.rank``, over one flat key: its
    bounded-heap top-K is exactly the full sort's first k rows, and its
    full sort is an independent ``sorted`` by ``normalize_key`` with
    missing values last — ties on the OID for object states, in scan
    order for row dicts."""

    def test_rank_is_the_full_sort_prefix(self):
        rng = random.Random(81)
        steps = ("x",)
        path = compile_path(steps, None)
        for _ in range(COMPILED_PARITY_EXAMPLES):
            pool = TOPK_POOLS[rng.choice(sorted(TOPK_POOLS))]
            states = [
                ObjectState(OID(serial), "T", {"x": rng.choice(pool)})
                for serial in rng.sample(range(1, 500), rng.randrange(0, 60))
            ]
            rows = [state.values for state in states]
            for descending in (False, True):
                state_key = algebra.order_key(steps, path, descending)
                row_key = algebra.order_key(steps, lambda row: [first_x(row)], descending, False)
                full = algebra.rank(states, state_key, descending)
                want = sorted_reference(states, first_x, lambda state: state.oid.value, descending)
                assert [s.oid for s in full] == [s.oid for s in want], pool
                full_rows = algebra.rank(rows, row_key, descending)
                want_rows = sorted_reference(rows, first_x, None, descending)
                assert list(map(id, full_rows)) == list(map(id, want_rows)), pool
                for k in (0, 1, 3, len(states), len(states) + 2):
                    top = algebra.rank(states, state_key, descending, k)
                    assert [s.oid for s in top] == [s.oid for s in full[:k]], (pool, k)
                    top_rows = algebra.rank(rows, row_key, descending, k)
                    assert list(map(id, top_rows)) == list(map(id, full_rows[:k])), (pool, k)

    def test_order_by_limit_is_the_full_sort_prefix(self):
        rng = random.Random(83)
        db = Database()
        db.define_class("T", attributes=[AttributeDef("x", "Any"), AttributeDef("pool", "Integer")])
        pools = [pool for _name, pool in sorted(TOPK_POOLS.items())]
        for number, pool in enumerate(pools):
            for _ in range(12):
                db.new("T", {"x": rng.choice(pool), "pool": number})
        for _ in range(COMPILED_PARITY_EXAMPLES):
            # One pool's rows: its values decide the fast path.
            number = rng.randrange(len(pools))
            for direction in ("", " DESC"):
                base = "SELECT v FROM T v WHERE v.pool = %d ORDER BY v.x%s" % (number, direction)
                full = db.execute(base).oids
                k = rng.randrange(1, len(full) + 2)
                assert db.execute("%s LIMIT %d" % (base, k)).oids == full[:k], (base, k)
        db.close()


def ranked_values(values):
    """What ORDER BY ranks each value by: ``normalize_key`` of its first
    item.  ``1`` and ``1.0`` rank equal, and every NaN is one key."""
    return [normalize_key(first_x({"x": value})) for value in values]


class TestCrossKernelOrder:
    """ORDER BY over federated rows and Sys* views ranks as the engine
    does: through a federated ``ObjectAdapter`` class a random ``ORDER BY
    [DESC] [LIMIT k]`` returns the engine's value sequence, and a Sys*
    view's rows with a value come before its rows with None in both
    directions.  Row dicts have no OID tiebreak, so a tie group may come
    in another order: values are compared, not rows."""

    def test_a_federated_class_orders_as_the_engine(self):
        rng = random.Random(85)
        db = Database()
        db.define_class("T", attributes=[AttributeDef("x", "Any"), AttributeDef("pool", "Integer")])
        pools = [pool for _name, pool in sorted(TOPK_POOLS.items())]
        for number, pool in enumerate(pools):
            for _ in range(12):
                db.new("T", {"x": rng.choice(pool), "pool": number})
        federation = Federation()
        federation.register("objects", ObjectAdapter(db, ["T"]))
        for _ in range(COMPILED_PARITY_EXAMPLES):
            number = rng.randrange(len(pools))
            direction = rng.choice(("", " DESC"))
            limit = rng.choice(("", " LIMIT %d" % rng.randrange(1, 14)))
            text = "SELECT t FROM T t WHERE t.pool = %d ORDER BY t.x%s%s" % (
                number, direction, limit,
            )
            engine = [state.values.get("x") for state in db.execute(text).states]
            federated = [row.get("x") for row in federation.query(text)]
            assert ranked_values(federated) == ranked_values(engine), text
        db.close()

    def test_a_system_view_orders_missing_values_last(self, monkeypatch):
        db = Database()
        for _ in range(3):
            db.select("SELECT s FROM SysStat s")
        # Live metrics: some histogram has a mean, so it leads.
        top = db.execute("SELECT s FROM SysStat s ORDER BY s.mean DESC LIMIT 3").rows
        assert top[0]["mean"] is not None
        rng = random.Random(87)
        rows = []
        monkeypatch.setattr(SystemViewsAdapter, "_rows_sysstat", lambda adapter: iter(rows))
        for _ in range(COMPILED_PARITY_EXAMPLES):
            pool = TOPK_POOLS[rng.choice(("nan", "none", "numbers"))] + [None]
            rows[:] = [{"name": "r%d" % i, "mean": rng.choice(pool)} for i in range(20)]
            k = rng.randrange(1, 24)
            for direction in ("", " DESC"):
                text = "SELECT s FROM SysStat s ORDER BY s.mean%s LIMIT %d" % (direction, k)
                got = [row["mean"] for row in db.execute(text).rows]
                ordered = sorted_reference(rows, lambda row: row["mean"], None, bool(direction))
                want = [row["mean"] for row in ordered[:k]]
                assert ranked_values(got) == ranked_values(want), text
                present = sum(mean is not None for mean in got)
                assert all(mean is None for mean in got[present:]), text
        db.close()


def fig1_reference(db):
    """FIG1_QUERY over current storage, by hand."""
    hits = []
    for cls in db.schema.hierarchy_of("Vehicle"):
        for state in db.storage.scan_class(cls):
            maker = state.values.get("manufacturer")
            if state.values["weight"] > 7500 and maker is not None:
                if db.get_state(maker).values["location"] == "Detroit":
                    hits.append(state.oid)
    return sorted(hits, key=lambda oid: oid.value)


class TestPathMemo:
    """One execution dereferences each referenced object once and counts
    every later step to it as a snapshot read; nothing it keeps outlives
    the execution or a write."""

    def test_repeated_and_dangling_references_keep_parity(self):
        """Path trees, and projections through paths, over parts that many
        items reference and some no longer exist: at rest, beside another
        transaction's uncommitted delete of a referenced part, and after
        it commits — when the part dangles for every later execution."""
        db, rng, parts = build(2029)
        trees = [
            Comparison(op, Path(steps), Const(literal))
            for steps in (("part", "a"), ("part", "n"), ("parts", "a"), ("m", "a"))
            for op, literal in (("=", 1), ("<", 2), ("=", "x"), ("!=", None))
        ] + [random_where(rng, parts) for _ in range(COMPILED_PARITY_EXAMPLES)]
        trees = [where for where in trees if db.check(Query("Item", "v", where=where)).ok]
        live = [oid for oid in parts if db.exists(oid)]
        for doomed in rng.sample(live, 3):
            world = world_of(db)
            self.assert_parity(db, trees, world)
            writer = db.transaction()
            db.delete(doomed)
            db.txns.detach()
            self.assert_parity(db, trees, world)
            db.txns.attach(writer)
            writer.commit()
            self.assert_parity(db, trees, world_of(db))
        db.close()

    @staticmethod
    def assert_parity(db, trees, world):
        for where in trees:
            assert engine(db, where) == expected(world, where), where
        kept = Comparison(">=", Path(("part", "n")), Const(0))
        for steps in (("part", "a"), ("parts", "n"), ("m", "a")):
            dotted = ".".join(steps)
            rows = db.execute("SELECT v.%s FROM Item v WHERE v.part.n >= 0" % dotted).rows
            reference = [first_values(world[oid], steps, world) for oid in expected(world, kept)]
            assert [row[dotted] for row in rows] == reference, steps

    def test_every_step_counts_one_snapshot_read(self, edge_db):
        """A hit is counted like the read it replaces: the scan's rows plus
        one read per reference, repeated and dangling ones included."""
        db, parts = edge_db
        world = world_of(db)
        scope = [state for state in world.values() if state.class_name in SCOPE]
        references = sum(isinstance(state.values.get("part"), OID) for state in scope)
        assert references > len(parts) + 20  # references repeat
        before = db.metrics.value("txn.snapshot.reads")
        db.execute("SELECT v FROM Item v WHERE v.part.n != 5")
        assert db.metrics.value("txn.snapshot.reads") - before == len(scope) + references

    def test_an_inlined_leaf_reads_each_reference_once(self, edge_db):
        """The generated filter's two-step leaf compares a second value of
        another kind than its literal (``n`` is None) itself, instead of
        handing the row to its closure, which would read the reference
        again: 281 snapshot reads here, not 314."""
        db, parts = edge_db
        world = world_of(db)
        scope = [state for state in world.values() if state.class_name in SCOPE]
        references = sum(isinstance(state.values.get("part"), OID) for state in scope)
        where = parse_query("SELECT v FROM Item v WHERE v.part.n < 5").where
        before = db.metrics.value("txn.snapshot.reads")
        assert db.execute(Query("Item", "v", where=where)).oids == expected(world, where)
        assert db.metrics.value("txn.snapshot.reads") - before == len(scope) + references == 281

    def test_a_second_execution_sees_a_committed_update(self):
        """Another transaction's update, uncommitted during one execution
        and committed before the next: the next reads the new location.
        A commit moves no storage write stamp, so only the memo's
        one-execution lifetime keeps the first execution's company out."""
        db = Database()
        build_vehicle_schema(db)
        companies = populate_vehicles(db, n_vehicles=200, n_companies=6, seed=3)["Company"]
        rng = random.Random(91)
        for _ in range(COMPILED_PARITY_EXAMPLES):
            company = rng.choice(companies)
            location = db.get_state(company).values["location"]
            moved = "Tokyo" if location == "Detroit" else "Detroit"
            before = fig1_reference(db)
            writer = db.transaction()
            db.update(company, {"location": moved})
            db.txns.detach()
            assert sorted(db.execute(FIG1_QUERY).oids, key=lambda oid: oid.value) == before
            db.txns.attach(writer)
            writer.commit()
            after = fig1_reference(db)
            assert after != before
            assert sorted(db.execute(FIG1_QUERY).oids, key=lambda oid: oid.value) == after
        db.close()

    def test_an_index_order_stream_sees_its_own_write_between_fetches(self, monkeypatch):
        """The filter of an index-order walk runs fetch by fetch; its
        transaction moves a company between fetches.  The stream returns
        exactly what it returns with every path step on the plain
        dereference."""
        db = Database()
        build_vehicle_schema(db)
        companies = populate_vehicles(db, n_vehicles=700, n_companies=8, seed=5)["Company"]
        db.create_hierarchy_index("Vehicle", "weight")
        rng = random.Random(93)
        cases = []
        for _ in range(COMPILED_PARITY_EXAMPLES):
            limit = rng.choice((20, 30, 50))
            cases.append((limit, rng.randrange(1, 8), rng.choice(companies)))

        def stream(limit, pulled, company):
            text = (
                "SELECT v FROM Vehicle v WHERE v.manufacturer.location = 'Detroit' "
                "ORDER BY v.weight LIMIT %d" % limit
            )
            txn = db.transaction()
            try:
                assert isinstance(db.execute(text).plan.access, IndexOrderScan)
                rows = db.select_iter(text)
                seen = [next(rows).oid for _ in range(pulled)]
                location = db.get_state(company).values["location"]
                db.update(company, {"location": "Tokyo" if location == "Detroit" else "Detroit"})
                return seen + [handle.oid for handle in rows]
            finally:
                txn.abort()

        memoised = [stream(*case) for case in cases]
        plain_path_steps(monkeypatch)
        assert [stream(*case) for case in cases] == memoised
        db.close()

    def test_an_index_order_stream_sees_a_schema_change_between_fetches(self, monkeypatch):
        """Between two fetches of a stream, outside any transaction, the
        attribute its path filter reads is dropped (as another session
        may) and added back once it ends.  A drop moves no storage write
        stamp, yet the stream returns exactly what it returns with every
        path step on the plain dereference, which coerces each read under
        the schema of the moment."""
        db = Database()
        build_vehicle_schema(db)
        populate_vehicles(db, n_vehicles=700, n_companies=8, seed=5)
        db.create_hierarchy_index("Vehicle", "weight")
        evolution = SchemaEvolution(db)
        location = db.schema.attribute_map("Company")["location"]
        rng = random.Random(95)
        cases = [
            (rng.choice((20, 30, 50)), rng.randrange(1, 8))
            for _ in range(COMPILED_PARITY_EXAMPLES)
        ]

        def stream(limit, pulled):
            rows = db.select_iter(
                "SELECT v FROM Vehicle v WHERE v.manufacturer.location = 'Detroit' "
                "ORDER BY v.weight LIMIT %d" % limit
            )
            seen = [next(rows).oid for _ in range(pulled)]
            evolution.drop_attribute("Company", "location")
            try:
                return seen + [handle.oid for handle in rows]
            finally:
                evolution.add_attribute("Company", location)

        memoised = [stream(*case) for case in cases]
        assert any(len(oids) < limit for oids, (limit, _) in zip(memoised, cases))
        plain_path_steps(monkeypatch)
        assert [stream(*case) for case in cases] == memoised
        db.close()

    def test_a_plan_with_no_step_to_dereference_builds_no_memo(self, monkeypatch):
        """An index probe, one-step filters, keys, projections and
        aggregates read no reference, so they build no path memo."""
        db = Database()
        build_vehicle_schema(db)
        populate_vehicles(db, n_vehicles=200, n_companies=6, seed=7)
        db.create_hierarchy_index("Vehicle", "weight")
        texts = [
            "SELECT v FROM Vehicle v WHERE v.weight = 7600",
            "SELECT v FROM Vehicle v WHERE v.weight > 7500 AND v.color = 'red' "
            "ORDER BY v.price LIMIT 5",
            "SELECT v.color, v.price FROM Vehicle v WHERE v.price > 1",
            "SELECT v.color, COUNT(v), SUM(v.price) FROM Vehicle v GROUP BY v.color",
        ]
        expected_rows = [db.execute(text).rows for text in texts]

        def refused(view):
            raise AssertionError("a path memo was built")

        monkeypatch.setattr(SnapshotView, "path_memo", refused)
        assert [db.execute(text).rows for text in texts] == expected_rows
        with pytest.raises(AssertionError, match="path memo"):
            db.execute("SELECT v FROM Vehicle v WHERE v.manufacturer.location = 'Detroit'")
        db.close()


def plain_path_steps(monkeypatch):
    """Every path step on the plain dereference, as before the memo."""
    monkeypatch.setattr(SnapshotView, "path_memo", lambda view: (view.deref, lambda: None))


class TestEngineParity:
    """Gate-accepted trees through the whole front door."""

    def test_at_rest(self, edge_db):
        db, parts = edge_db
        world = world_of(db)
        for where in accepted(db, random.Random(21), parts):
            assert engine(db, where) == expected(world, where), where

    def test_inside_a_transaction_with_its_own_writes(self, edge_db):
        db, parts = edge_db
        rng = random.Random(31)
        for where in accepted(db, rng, parts):
            txn = db.transaction()
            try:
                _write_some(db, rng, parts)
                world = world_of(db)  # storage holds the own writes
                assert engine(db, where) == expected(world, where), where
            finally:
                txn.abort()

    def test_beside_another_writers_uncommitted_changes(self, edge_db):
        db, parts = edge_db
        rng = random.Random(41)
        for where in accepted(db, rng, parts):
            world = world_of(db)
            txn = db.transaction()
            _write_some(db, rng, parts)
            db.txns.detach()
            try:
                assert engine(db, where) == expected(world, where), where
            finally:
                db.txns.attach(txn)
                txn.abort()


    def test_before_and_after_an_add_attribute(self):
        """Each tree again after ``late`` is dropped and added back with
        another default: those runs scan pages whose kept state tuples
        were checked under the old schema, where the 120 records stored
        without ``late`` read the old default."""
        db, _rng, parts = build(2028)
        trees = accepted(db, random.Random(61), parts)
        world = world_of(db)
        for where in trees:
            assert engine(db, where) == expected(world, where), where
        evolution = SchemaEvolution(db)
        evolution.drop_attribute("Item", "late")
        evolution.add_attribute("Item", AttributeDef("late", "Any", default="y"))
        world = world_of(db)
        for where in trees:
            assert engine(db, where) == expected(world, where), where
        db.close()


class TestTransactionViewParity:
    """One transaction reads through one view — its derefs served by the
    object buffer once warm — across all its queries: each tree runs at
    the transaction's first read, after its own writes, after another
    transaction's commit and after more own writes, then once more
    outside any transaction."""

    def test_memoised_view_across_own_writes_and_a_concurrent_commit(self):
        db, rng, parts = build(2027)
        for where in accepted(db, random.Random(51), parts):
            txn = db.transaction()
            try:
                assert engine(db, where) == expected(world_of(db), where), where
                mine = _write_some(db, rng, parts)
                seen = world_of(db)  # the begin snapshot plus the own writes
                assert engine(db, where) == expected(seen, where), where
                theirs = _commit_elsewhere(db, rng, parts, mine)
                assert engine(db, where) == expected(seen, where), where
                part = rng.choice([oid for oid in parts if db.exists(oid) and oid not in theirs])
                db.update(part, {"a": rng.choice(VALUES)})
                seen[part] = db.storage.load(part).copy()
                assert engine(db, where) == expected(seen, where), where
            finally:
                txn.abort()
            assert engine(db, where) == expected(world_of(db), where), where
        db.close()


def _commit_elsewhere(db, rng, parts, busy):
    """Commit, from a transaction other than the caller's, updates to a
    part, a company and an item none of the caller's writes locked;
    returns their OIDs."""
    mine = db.txns.detach()
    try:
        free = lambda oids: sorted((oid for oid in oids if oid not in busy), key=lambda o: o.value)
        part = rng.choice(free(oid for oid in parts if db.exists(oid)))
        company = rng.choice(free(db.storage.directory.oids_of_class("Company")))
        item = rng.choice(free(db.storage.directory.oids_of_class("Item")))
        with db.transaction():
            db.update(part, {"a": rng.choice(VALUES)})
            db.update(company, {"location": rng.choice(("Detroit", "Tokyo", "Austin"))})
            db.update(item, {"a": rng.choice(VALUES), "weight": rng.randrange(1000, 12000)})
        return {part, company, item}
    finally:
        db.txns.attach(mine)


def _write_some(db, rng, parts):
    """An update (item and part), a delete, a reclass within the scope and
    one out of it, and an insert — all in the caller's transaction.
    Returns the OIDs written."""
    items = sorted(
        (oid for oid in db.storage.directory.oids_of_class("Item")),
        key=lambda oid: oid.value,
    )
    live_parts = [oid for oid in parts if db.exists(oid)]
    updated, deleted, inward, outward = rng.sample(items, 4)
    db.update(updated, {"a": rng.choice(VALUES), "m": [rng.choice(VALUES[1:])]})
    part = rng.choice(live_parts)
    db.update(part, {"a": rng.choice(VALUES)})
    db.delete(deleted)
    moved = db.get_state(inward)
    moved.class_name = "Special"
    # A full-state write re-validates references.
    moved.values.update(part=None, parts=[p for p in moved.values["parts"] if p in live_parts])
    db.put_state(moved)
    db.put_state(type(moved)(outward, "Other", {"a": rng.choice(VALUES)}))
    new = db.new("Item", {"a": rng.choice(VALUES), "late": rng.choice(VALUES), "parts": []})
    return {updated, part, deleted, inward, outward, new.oid}
