"""E11: deductive rule chaining scales with the fact base.

Section 5.4: rules over stored objects (the [BALL88] coupling).  An
ancestor-closure program runs over part hierarchies of growing size; the
derived-fact count and runtime are reported per size.  Stratified
negation is exercised at benchmark scale too.
"""

import pytest
from conftest import print_table, timed

from repro import AttributeDef, Database
from repro.rules import RuleEngine, rule


def build_engine(n_parents):
    """A forest of 10-deep chains with ``n_parents`` parent facts."""
    engine = RuleEngine()
    for position in range(n_parents):
        engine.assert_fact("parent", "n%d" % position, "n%d" % (position + 1))
    engine.add_rule(rule("anc", ["?x", "?y"], ("parent", ["?x", "?y"]), name="base"))
    engine.add_rule(
        rule(
            "anc",
            ["?x", "?z"],
            ("parent", ["?x", "?y"]),
            ("anc", ["?y", "?z"]),
            name="step",
        )
    )
    return engine


def test_inference_small(benchmark):
    benchmark(lambda: build_engine(60).infer())


def test_inference_medium(benchmark):
    benchmark(lambda: build_engine(120).infer())


def test_scaling_summary():
    rows = []
    times = {}
    for n in (30, 60, 120):
        engine = build_engine(n)
        t, derived = timed(engine.infer)
        times[n] = t
        # A chain of n parent edges spans n+1 nodes; every ordered
        # ancestor pair is a derived anc fact: n*(n+1)/2 of them.
        assert len(derived) == n * (n + 1) // 2
        rows.append((n, len(derived), round(t * 1e3, 1)))
    print_table(
        "E11: ancestor closure over a chain (transitive closure is "
        "quadratic in facts derived)",
        ("parent facts", "derived facts", "ms"),
        rows,
    )
    # Runtime grows with derived-fact count but stays tractable.
    assert times[120] < times[30] * 200


def test_rules_over_database_objects(benchmark):
    db = Database()
    db.define_class(
        "PartNode",
        attributes=[AttributeDef("label", "String"), AttributeDef("broken", "Boolean", default=False)],
    )
    for position in range(300):
        db.new(
            "PartNode",
            {"label": "p%d" % position, "broken": position % 7 == 0},
        )
    engine = RuleEngine(db)
    engine.map_class("part", "PartNode", ["label", "broken"])
    engine.add_rule(
        rule("usable", ["?oid"], ("part", ["?oid", "?l", False])),
    )

    def run():
        engine._fresh = False
        return engine.query("usable", None)

    usable = benchmark(run)
    expected = 300 - len([p for p in range(300) if p % 7 == 0])
    assert len(usable) == expected
