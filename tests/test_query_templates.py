"""Query templates: one per query shape, its literals bound per execution.

Covers:

* **parity (property)** — for random WHERE shapes over the Figure 1
  vehicle schema (conjunctions, OR, NOT and IN lists; duplicated,
  contradictory, tautological, negative, float and string literals) and
  several literal bindings each, a text served by its shape's template
  gets exactly what the cold path — ``parse_query`` + ``rewrite_query``
  + ``Planner.plan`` called directly — gives the same text: normalized
  WHERE, analysis facts, rewrite rules and REW codes, access path, and
  an empty scan exactly when the predicate is a contradiction.  The
  rows match a plain-Python oracle.  ``TEMPLATE_PARITY_EXAMPLES`` sets
  the shapes per run (CI's weekly job runs 500);
* one SysQueryStat row and one parse per shape, whatever the literals;
* exact counts per binding: one shape whose literal flips the access
  path (the Zipf keys of ``test_cost``) plans each binding on its own;
* the shape key and the cases that never bind: literal kinds, LIMIT,
  DDL, authorization, views and system views.
"""

import bisect
import itertools
import os
import sys
import threading
from typing import Any, Dict, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AttributeDef, Database
from repro.analysis.rewrite import rewrite_query
from repro.analysis.semantic import SemanticAnalyzer
from repro.authz import attach as attach_authz
from repro.bench.schemas import build_vehicle_schema, populate_vehicles
from repro.errors import AuthorizationError
from repro.evolution import SchemaEvolution
from repro.query import parser
from repro.query.ast import structural_key
from repro.query.parser import lift_literals, parse_query
from repro.query.planner import EmptyScan, ExtentScan, IndexRangeProbe
from repro.views import attach as attach_views

TEMPLATE_PARITY_EXAMPLES = int(os.environ.get("TEMPLATE_PARITY_EXAMPLES", "40"))

#: Vehicle paths the generated predicates compare, with their domain.
PATHS = {
    "weight": "number",
    "price": "number",
    "color": "string",
    "manufacturer.location": "string",
}
OPS = ("=", "!=", "<", "<=", ">", ">=", "in")
#: Small pools, so one binding often repeats a literal or contradicts
#: itself; the weights straddle the population's 1 000 .. 12 000.
NUMBERS = [-5, 0, 2000, 7500, 7500.0, 9000, 2.5, 12001]
STRINGS = ["red", "blue", "Detroit", "Tokyo", "it's", 'say "hi"', "back\\slash"]


def _literal(value: Any) -> str:
    if isinstance(value, str):
        return "'%s'" % value.replace("\\", "\\\\").replace("'", "\\'")
    return repr(value)


def _render(node, values) -> str:
    """OQL for one shape (``node``) bound to ``values`` (consumed in order)."""
    kind = node[0]
    if kind == "cmp":
        _kind, path, op, width = node
        if op == "in":
            items = ", ".join(_literal(next(values)) for _ in range(width))
            return "v.%s IN (%s)" % (path, items)
        return "v.%s %s %s" % (path, op, _literal(next(values)))
    if kind == "not":
        return "NOT (%s)" % _render(node[1], values)
    joiner = " AND " if kind == "and" else " OR "
    return "(" + joiner.join(_render(child, values) for child in node[1]) + ")"


def _slots(node) -> List[str]:
    """The domain of each literal slot of a shape, in source order."""
    if node[0] == "cmp":
        return [PATHS[node[1]]] * (node[3] if node[2] == "in" else 1)
    children = [node[1]] if node[0] == "not" else node[1]
    return [domain for child in children for domain in _slots(child)]


def _holds(node, row: Dict[str, Any], values) -> bool:
    """Plain-Python oracle: does ``row`` satisfy the bound shape?"""
    kind = node[0]
    if kind == "cmp":
        _kind, path, op, width = node
        actual = row[path]
        if op == "in":
            members = [next(values) for _ in range(width)]
            return any(actual == member for member in members)
        literal = next(values)
        return {
            "=": actual == literal,
            "!=": actual != literal,
            "<": actual < literal,
            "<=": actual <= literal,
            ">": actual > literal,
            ">=": actual >= literal,
        }[op]
    if kind == "not":
        return not _holds(node[1], row, values)
    # Evaluate every child: each consumes its own literals.
    results = [_holds(child, row, values) for child in node[1]]
    return all(results) if kind == "and" else any(results)


#: Half the comparisons land on the indexed weight, so ranges, implied
#: conjuncts and contradictions on one path come up often.
_leaves = st.tuples(
    st.just("cmp"),
    st.sampled_from(["weight"] * 3 + sorted(PATHS)),
    st.sampled_from(OPS),
    st.integers(1, 3),
)
#: A two-sided weight range, with whatever else rides along.
_ranges = st.builds(
    lambda low, high, rest: ("and", [low, high] + rest),
    st.tuples(st.just("cmp"), st.just("weight"), st.sampled_from((">", ">=")), st.just(1)),
    st.tuples(st.just("cmp"), st.just("weight"), st.sampled_from(("<", "<=")), st.just(1)),
    st.lists(_leaves, max_size=1),
)
#: Plain conjunctions (the shapes that must bind, ranges among them)
#: beside arbitrary AND / OR / NOT trees.
_shapes = st.one_of(
    st.tuples(st.just("and"), st.lists(_leaves, min_size=2, max_size=3)),
    _ranges,
    st.recursive(
        _leaves,
        lambda children: st.one_of(
            st.tuples(st.just("and"), st.lists(children, min_size=2, max_size=3)),
            st.tuples(st.just("or"), st.lists(children, min_size=2, max_size=2)),
            st.tuples(st.just("not"), children),
        ),
        max_leaves=4,
    ),
)


@pytest.fixture(scope="module")
def fleet():
    """The Figure 1 population with a weight hierarchy index, plus each
    vehicle's compared values as a plain dict (the oracle's world)."""
    db = Database()
    build_vehicle_schema(db)
    populate_vehicles(db, n_vehicles=120, n_companies=8, seed=33)
    db.create_hierarchy_index("Vehicle", "weight")
    rows = {}
    for handle in db.instances("Vehicle"):
        rows[handle.oid] = {
            "weight": handle["weight"],
            "price": handle["price"],
            "color": handle["color"],
            "manufacturer.location": db.get(handle["manufacturer"])["location"],
        }
    yield db, rows
    db.close()


def _cold(db, text):
    """The cold path, called directly: parse, gate, rewrite, plan."""
    query = parse_query(text)
    report = SemanticAnalyzer(db.schema).check(query, source=text)
    assert not report.diagnostics, report.render()
    rewritten = rewrite_query(db.schema, query)
    plan = db.planner.plan(rewritten.query, facts=rewritten.facts)
    return rewritten, plan


class TestParity:
    @given(data=st.data(), shape=_shapes)
    @settings(
        max_examples=TEMPLATE_PARITY_EXAMPLES,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_bound_template_matches_the_cold_path(self, fleet, data, shape):
        db, rows = fleet
        domains = _slots(shape)
        bindings = [
            [
                data.draw(st.sampled_from(NUMBERS if domain == "number" else STRINGS))
                for domain in domains
            ]
            for _ in range(3)
        ]
        for position, values in enumerate(bindings):
            text = "SELECT v FROM Vehicle v WHERE " + _render(shape, iter(values))
            key, lifted = lift_literals(text)
            assert lifted == values
            parses = db.metrics.value("query.parses")
            bound = db.plan_cache.get(key) is not None
            result = db.execute(text)
            if position == 0:
                # Clean gate, comparison literals only: always published.
                assert db.plan_cache.get(key) is not None
            elif bound:
                assert db.metrics.value("query.parses") == parses
            plan, rewrite = result.plan, result.plan.rewrite
            cold_rewrite, cold_plan = _cold(db, text)
            assert structural_key(plan.query.where) == structural_key(
                cold_rewrite.query.where
            ), text
            assert rewrite.fingerprint == cold_rewrite.fingerprint
            assert rewrite.rules == cold_rewrite.rules, text
            assert [d.code for d in rewrite.diagnostics] == [
                d.code for d in cold_rewrite.diagnostics
            ]
            facts, cold_facts = rewrite.facts, cold_rewrite.facts
            assert facts.contradiction == cold_facts.contradiction, text
            assert facts.reason == cold_facts.reason
            assert facts.ranges == cold_facts.ranges
            assert type(plan.access) is type(cold_plan.access)
            assert plan.access.description == cold_plan.access.description, text
            assert isinstance(plan.access, EmptyScan) == facts.contradiction
            expected = {
                oid for oid, row in rows.items() if _holds(shape, row, iter(values))
            }
            assert set(result.oids) == expected, text
            assert len(result.oids) == len(expected)


class TestOneShapeOneRow:
    TEXT = "SELECT v FROM Vehicle v WHERE v.weight = %d"

    def test_twenty_literals_one_row_one_parse(self, populated_db):
        db = populated_db
        parses = db.metrics.value("query.parses")
        for literal in range(1000, 1020):
            db.execute(self.TEXT % literal)
        assert db.metrics.value("query.parses") == parses + 1
        (row,) = db.select("SysQueryStat")
        assert row["calls"] == 20
        assert row["plan_cache_hits"] == 19
        assert row["source"] == self.TEXT % 1000
        assert len(db.select("SysPlanCache")) == 1
        assert db.metrics.value("query.plan_cache.hits") == 19
        assert db.metrics.value("query.plan_cache.misses") == 1

    def test_exact_repeat_skips_the_template(self, populated_db):
        db = populated_db
        db.execute(self.TEXT % 1)
        db.execute(self.TEXT % 2)
        rewrites = db.metrics.value("rewrite.queries")
        db.execute(self.TEXT % 2)
        assert db.metrics.value("rewrite.queries") == rewrites


class TestHandBuiltQueries:
    """A :class:`Query` object has no text and no template, but its exact
    repeat is still served from the cache (the rules engine and the
    federation layer build their queries this way)."""

    def test_an_exact_repeat_reuses_its_plan(self, populated_db):
        db = populated_db
        text = "SELECT v FROM Vehicle v WHERE v.weight >= %d AND v.weight < %d"
        plans = db.metrics.value("query.plans")
        first = db.execute(parse_query(text % (1000, 5000)))
        again = db.execute(parse_query(text % (1000, 5000)))
        other = db.execute(parse_query(text % (5000, 1000)))
        assert (first.plan.cached, again.plan.cached, other.plan.cached) == (
            False, True, False,
        )
        assert sorted(again.oids) == sorted(first.oids)
        assert isinstance(other.plan.access, EmptyScan) and len(other) == 0
        assert db.metrics.value("query.plans") == plans + 2
        assert db.metrics.value("query.plan_cache.hits") == 1
        assert db.metrics.value("query.plan_cache.misses") == 2
        assert [row["source"] for row in db.select("SysPlanCache")] == [""]
        (row,) = db.select("SysQueryStat")
        assert (row["calls"], row["plan_cache_hits"]) == (3, 1)
        # The text of the same query is a shape of its own; DDL drops both.
        db.execute(text % (1000, 5000))
        assert len(db.plan_cache) == 2
        db.create_class_index("Vehicle", "color")
        assert not db.execute(parse_query(text % (1000, 5000))).plan.cached


class TestBindingsAreIndependent:
    TEXT = "SELECT v FROM Vehicle v WHERE v.weight >= %d AND v.weight < %d"

    @staticmethod
    def _expected(db, low, high):
        return sorted(
            h.oid for h in db.instances("Vehicle") if low <= h["weight"] < high
        )

    @pytest.mark.parametrize("first", [(1000, 5000), (5000, 1000)])
    def test_each_binding_proves_its_own_contradiction(self, populated_db, first):
        db = populated_db
        text = "SELECT v FROM Vehicle v WHERE v.weight > %d AND v.weight < %d"
        for low, high in (first, (6000, 2000), (2000, 3000)):
            result = db.execute(text % (low, high))
            assert isinstance(result.plan.access, EmptyScan) == (low >= high)
            assert result.plan.rewrite.facts.contradiction == (low >= high)
            assert sorted(result.oids) == self._expected(db, low + 1, high)

    def test_a_binding_never_changes_another_ones_plan(self, populated_db):
        db = populated_db
        db.execute(self.TEXT % (1000, 1500))  # publishes the template
        first = db.execute(self.TEXT % (3000, 4000))
        db.execute(self.TEXT % (8000, 8100))
        again = db.execute(self.TEXT % (3000, 4000))  # its exact text's plan
        assert sorted(again.oids) == sorted(first.oids)
        assert sorted(first.oids) == self._expected(db, 3000, 4000)
        template = db.plan_cache.get(lift_literals(self.TEXT % (1, 2))[0]).template
        assert [c.const.value for c in template.query.where.operands] == [1000, 1500]

    def test_threads_bind_one_template_at_once(self, populated_db):
        db = populated_db
        db.execute(self.TEXT % (1000, 1100))
        expected = {
            low: self._expected(db, low, low + 300) for low in range(1000, 12000, 97)
        }
        errors = []

        def run(offset):
            try:
                for low in list(expected)[offset::4]:
                    got = sorted(db.execute(self.TEXT % (low, low + 300)).oids)
                    if got != expected[low]:
                        errors.append(low)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestZipfFlip:
    """One shape, two literals, two access paths: every binding is costed
    on its own exact counts (the keys of ``test_cost``'s Zipf test)."""

    SELECTIVE = "SELECT i FROM Item i WHERE i.a >= 20"
    UNSELECTIVE = "SELECT i FROM Item i WHERE i.a >= 1"

    @staticmethod
    def _db():
        weights = list(itertools.accumulate(1.0 / k ** 2 for k in range(1, 1001)))
        keys = [
            bisect.bisect_left(weights, (i + 0.5) / 2000 * weights[-1]) + 1
            for i in range(2000)
        ]
        db = Database()
        db.define_class("Item", attributes=[AttributeDef("a", "Integer")])
        for key in keys:
            db.new("Item", {"a": key})
        db.create_class_index("Item", "a")
        return db

    @pytest.mark.parametrize("first", [SELECTIVE, UNSELECTIVE])
    def test_each_binding_plans_on_its_own_counts(self, first):
        db = self._db()
        second = self.UNSELECTIVE if first == self.SELECTIVE else self.SELECTIVE
        parses = db.metrics.value("query.parses")
        for text in (first, second):
            result = db.execute(text)
            right = IndexRangeProbe if text == self.SELECTIVE else ExtentScan
            assert isinstance(result.plan.access, right), result.plan.access.description
            assert result.plan.cost.estimated_rows == result.stats.matched
        assert db.metrics.value("query.parses") == parses + 1
        db.close()


class TestShapeKey:
    def test_literal_kinds_are_three_shapes(self):
        db = Database()
        db.define_class("Box", attributes=[AttributeDef("a", "Any")])
        db.new("Box", {"a": 5})
        texts = ["Box where a = 5", "Box where a = 5.0", "Box where a = '5'"]
        keys = {lift_literals(text)[0] for text in texts}
        assert len(keys) == 3
        for text in texts:
            db.execute(text)
        assert len(db.plan_cache) == 3
        assert db.metrics.value("query.parses") == 3

    def test_negative_numbers_and_escaped_strings_round_trip(self, populated_db):
        db = populated_db
        name = "it's \\ \"x\""
        text = (
            "SELECT c FROM Company c WHERE c.name = 'it\\'s \\\\ \"x\"' "
            "AND c.location != 'a'"
        )
        key, values = lift_literals(text)
        assert values == [name, "a"]
        assert parse_query(text).where.operands[0].const.value == name
        assert lift_literals("Vehicle where weight > -5")[1] == [-5]
        db.new("Company", {"name": name, "location": "b"})
        db.execute("SELECT c FROM Company c WHERE c.name = 'w' AND c.location != 'u'")
        parses = db.metrics.value("query.parses")
        found = db.execute(text)  # bound into the template the line above made
        assert db.metrics.value("query.parses") == parses
        assert [db.get(oid)["name"] for oid in found.oids] == [name]
        heavy = db.execute("Vehicle where weight > -5")
        assert len(heavy) == db.count("Vehicle")

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT v FROM Vehicle v WHERE v.weight >= -12 AND v.price < 3.5e2",
            "Vehicle where color = 'it\\'s' and weight != 1.25 order by weight limit 3",
            "SELECT v FROM Vehicle v WHERE v.color IN ('a', \"b\", 'c') AND v2x = 7",
            "SELECT v FROM Vehicle v WHERE v.weight > 0 LIMIT 10",
        ],
    )
    def test_the_lifter_lifts_what_the_tokenizer_reads_as_literals(self, text):
        tokens = parser.tokenize(text)
        expected = [
            parser._LIFTED[token.kind][0](token.text)
            for before, token in zip(tokens, tokens[1:])
            if token.kind in parser._LIFTED and before.text != "limit"
        ]
        assert lift_literals(text)[1] == expected

    def test_limit_is_part_of_the_shape(self, populated_db):
        db = populated_db
        five = "SELECT v FROM Vehicle v ORDER BY v.weight LIMIT 5"
        six = "SELECT v FROM Vehicle v ORDER BY v.weight LIMIT 6"
        assert lift_literals(five)[0] != lift_literals(six)[0]
        assert len(db.execute(five)) == 5
        assert len(db.execute(six)) == 6
        assert len(db.plan_cache) == 2

    def test_ddl_drops_every_template(self, populated_db):
        db = populated_db
        text = "SELECT v FROM Vehicle v WHERE v.weight = %d"
        changes = (
            lambda: db.create_hierarchy_index("Vehicle", "weight"),
            lambda: db.create_class_index("Vehicle", "color"),
            lambda: SchemaEvolution(db).add_attribute(
                "Vehicle", AttributeDef("maker", "String", default="acme")
            ),
        )
        for step, change in enumerate(changes):
            db.execute(text % (2 * step))
            assert len(db.plan_cache) == 1
            change()
            assert len(db.plan_cache) == 0
            parses = db.metrics.value("query.parses")
            db.execute(text % (2 * step + 1))  # would bind, but must re-plan
            assert db.metrics.value("query.parses") == parses + 1
            db.plan_cache.purge()
        plan = db.plan(text % 7000)
        assert "index" in plan.access.description

    def test_authorization_is_checked_on_every_template_hit(self):
        db = Database()
        db.define_class("Document", attributes=[AttributeDef("level", "Integer")])
        for level in range(5):
            db.new("Document", {"level": level})
        authz = attach_authz(db)
        authz.add_role("employee")
        text = "SELECT d FROM Document d WHERE d.level = %d"
        assert len(db.execute(text % 1)) == 1  # superuser publishes the template
        with authz.as_subject("employee"):
            with pytest.raises(AuthorizationError):
                db.execute(text % 2)  # a fresh literal: the template path
            with pytest.raises(AuthorizationError):
                db.execute(text % 1)  # the exact-text probe
        authz.grant("employee", "read", "Document")
        with authz.as_subject("employee"):
            assert len(db.execute(text % 3)) == 1

    def test_views_and_system_views_never_bind(self, populated_db):
        db = populated_db
        views = attach_views(db)
        views.define_view("Heavy", "SELECT v FROM Vehicle v WHERE v.weight > 6000")
        for text in (
            "SELECT h FROM Heavy h WHERE h.price > %d",
            "SysStat where value > %d",
        ):
            parses = db.metrics.value("query.parses")
            for literal in (1, 2, 3):
                db.execute(text % literal)
            assert db.metrics.value("query.parses") == parses + 3
            assert db.plan_cache.get(lift_literals(text % 1)[0]) is None

    def test_a_gate_diagnostic_keeps_the_shape_cold(self, populated_db):
        db = populated_db
        text = "SELECT v FROM Vehicle v WHERE v.color CONTAINS '%s'"  # ANA202
        parses = db.metrics.value("query.parses")
        for literal in ("red", "blue", "red"):
            db.execute(text % literal)
        # Each new literal parses; the exact repeat is served by its text.
        assert db.metrics.value("query.parses") == parses + 2
        assert db.plan_cache.get(lift_literals(text % "red")[0]) is None
