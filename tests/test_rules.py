"""Deductive rules: chaining, stratified negation, truth maintenance."""

import pytest

from repro import AttributeDef, Database
from repro.authz import attach as attach_authz
from repro.authz import attach_mandatory
from repro.errors import AuthorizationError, RuleError
from repro.evolution import SchemaEvolution
from repro.rules import Literal, Rule, RuleEngine, TruthMaintenance, Var, rule


@pytest.fixture
def family():
    engine = RuleEngine()
    for parent, child in [
        ("ann", "bob"),
        ("bob", "carol"),
        ("carol", "dave"),
        ("ann", "eve"),
    ]:
        engine.assert_fact("parent", parent, child)
    engine.add_rule(rule("ancestor", ["?x", "?y"], ("parent", ["?x", "?y"]), name="base"))
    engine.add_rule(
        rule(
            "ancestor",
            ["?x", "?z"],
            ("parent", ["?x", "?y"]),
            ("ancestor", ["?y", "?z"]),
            name="step",
        )
    )
    return engine


class TestForwardChaining:
    def test_transitive_closure(self, family):
        ancestors_of_dave = family.query("ancestor", None, "dave")
        assert sorted(a for a, _ in ancestors_of_dave) == ["ann", "bob", "carol"]

    def test_holds_ground_query(self, family):
        assert family.holds("ancestor", "ann", "dave")
        assert not family.holds("ancestor", "dave", "ann")

    def test_derived_count(self, family):
        # parent facts: 4; ancestor = 4 base + (ann-carol, ann-dave,
        # bob-dave) = 7 derived ancestor facts.
        assert family.derived_fact_count == 7

    def test_incremental_assertion_recomputes(self, family):
        family.infer()
        family.assert_fact("parent", "dave", "fred")
        assert family.holds("ancestor", "ann", "fred")

    def test_retraction_recomputes(self, family):
        assert family.holds("ancestor", "ann", "dave")
        family.retract_fact("parent", "carol", "dave")
        assert not family.holds("ancestor", "ann", "dave")
        assert family.holds("ancestor", "ann", "carol")

    def test_query_pattern_wildcards(self, family):
        all_pairs = family.query("ancestor", None, None)
        assert ("ann", "dave") in all_pairs
        from_ann = family.query("ancestor", "ann", None)
        assert sorted(b for _a, b in from_ann) == ["bob", "carol", "dave", "eve"]


class TestSafetyAndStratification:
    def test_unsafe_head_variable_rejected(self):
        with pytest.raises(RuleError):
            rule("p", ["?x", "?y"], ("q", ["?x"]))

    def test_unsafe_negation_rejected(self):
        with pytest.raises(RuleError):
            rule("p", ["?x"], ("q", ["?x"]), ("r", ["?y"], "not"))

    def test_negated_head_rejected(self):
        with pytest.raises(RuleError):
            Rule(Literal("p", ["?x"], negated=True), [Literal("q", ["?x"])])

    def test_stratified_negation(self):
        engine = RuleEngine()
        engine.assert_fact("node", "a")
        engine.assert_fact("node", "b")
        engine.assert_fact("broken", "b")
        engine.add_rule(
            rule("healthy", ["?n"], ("node", ["?n"]), ("broken", ["?n"], "not"))
        )
        assert engine.query("healthy", None) == [("a",)]

    def test_negation_through_recursion_rejected(self):
        engine = RuleEngine()
        engine.add_rule(rule("p", ["?x"], ("q", ["?x"]), ("p", ["?x"], "not"), name="bad"))
        engine.assert_fact("q", 1)
        with pytest.raises(RuleError):
            engine.infer()

    def test_multi_stratum_evaluation_order(self):
        engine = RuleEngine()
        engine.assert_fact("edge", "a", "b")
        engine.assert_fact("edge", "b", "c")
        engine.assert_fact("node", "a")
        engine.assert_fact("node", "b")
        engine.assert_fact("node", "c")
        engine.add_rule(rule("reach", ["?x", "?y"], ("edge", ["?x", "?y"])))
        engine.add_rule(
            rule("reach", ["?x", "?z"], ("edge", ["?x", "?y"]), ("reach", ["?y", "?z"]))
        )
        engine.add_rule(
            rule(
                "isolated",
                ["?n"],
                ("node", ["?n"]),
                ("reach", ["a", "?n"], "not"),
            )
        )
        assert engine.query("isolated", None) == [("a",)]


class TestClassMappings:
    def test_objects_as_facts(self):
        db = Database()
        db.define_class("Company", attributes=[AttributeDef("location", "String")])
        db.define_class("AutoCompany", superclasses=("Company",))
        detroit = db.new("AutoCompany", {"location": "Detroit"})
        db.new("Company", {"location": "Tokyo"})
        engine = RuleEngine(db)
        engine.map_class("company", "Company", ["location"])
        engine.add_rule(rule("local", ["?c"], ("company", ["?c", "Detroit"])))
        results = engine.query("local", None)
        assert results == [(detroit.oid,)]

    def test_mapping_requires_database(self):
        with pytest.raises(RuleError):
            RuleEngine().map_class("p", "C", ["a"])

    def test_mapping_sees_fresh_data(self):
        db = Database()
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        engine = RuleEngine(db)
        engine.map_class("item", "Item", ["n"])
        engine.add_rule(rule("big", ["?i"], ("item", ["?i", 10])))
        assert engine.query("big", None) == []
        handle = db.new("Item", {"n": 10})
        engine._fresh = False  # new data arrived
        assert engine.query("big", None) == [(handle.oid,)]


class TestMappingsReadThroughQueries:
    """Mapped facts are what a hierarchy query shows the subject."""

    def test_lazily_defaulted_attribute_maps_its_default(self):
        db = Database()
        db.define_class("P", attributes=[AttributeDef("n", "Integer")])
        handle = db.new("P", {"n": 1})
        SchemaEvolution(db).add_attribute(
            "P", AttributeDef("color", "String", default="red")
        )
        engine = RuleEngine(db)
        engine.map_class("p", "P", ["n", "color"])
        assert engine.query("p", None, None, None) == [(handle.oid, 1, "red")]

    def test_no_read_up_through_rules(self):
        db = Database()
        mac = attach_mandatory(db)
        db.define_class("Report", attributes=[AttributeDef("body", "String")])
        mac.classify_class("Report", "secret")
        mac.clear_subject("private", "unclassified")
        db.new("Report", {"body": "launch codes"})
        engine = RuleEngine(db)
        engine.map_class("rep", "Report", ["body"])
        mac.set_subject("private")
        assert db.select("SELECT r FROM Report r") == []
        assert engine.query("rep", None, None) == []
        assert engine.ask("rep", None, None) == []

    def test_read_permission_is_enforced(self):
        db = Database()
        authz = attach_authz(db)
        db.define_class("Doc", attributes=[AttributeDef("title", "String")])
        db.new("Doc", {"title": "t"})
        authz.add_role("guest")
        engine = RuleEngine(db)
        engine.map_class("doc", "Doc", ["title"])
        authz.set_subject("guest")
        with pytest.raises(AuthorizationError):
            db.execute("SELECT d FROM Doc d")
        with pytest.raises(AuthorizationError):
            engine.query("doc", None, None)


class TestTruthMaintenance:
    def test_why_explains_derivation(self, family):
        tms = TruthMaintenance(family)
        justifications = tms.why("ancestor", "ann", "dave")
        assert justifications
        assert justifications[0][0] in ("base", "step")

    def test_why_unknown_fact_raises(self, family):
        tms = TruthMaintenance(family)
        with pytest.raises(RuleError):
            tms.why("ancestor", "dave", "ann")

    def test_support_closure_reaches_base_facts(self, family):
        tms = TruthMaintenance(family)
        support = tms.support_closure("ancestor", "ann", "dave")
        assert ("parent", ("ann", "bob")) in support
        assert ("parent", ("carol", "dave")) in support

    def test_retract_reports_fallout(self, family):
        tms = TruthMaintenance(family)
        fallen = tms.retract("parent", "carol", "dave")
        assert ("ancestor", ("ann", "dave")) in fallen

    def test_retract_non_base_fact_rejected(self, family):
        tms = TruthMaintenance(family)
        with pytest.raises(RuleError):
            tms.retract("ancestor", "ann", "dave")

    def test_contradiction_raises_with_support(self):
        engine = RuleEngine()
        engine.assert_fact("approved", "doc1")
        engine.assert_fact("flagged", "doc1")
        engine.add_rule(rule("rejected", ["?d"], ("flagged", ["?d"])))
        tms = TruthMaintenance(engine, strategy="raise")
        tms.declare_contradiction("approved", "rejected")
        with pytest.raises(RuleError):
            tms.check()

    def test_contradiction_report_strategy(self):
        engine = RuleEngine()
        engine.assert_fact("approved", "doc1")
        engine.assert_fact("rejected", "doc1")
        tms = TruthMaintenance(engine, strategy="report")
        tms.declare_contradiction("approved", "rejected")
        conflicts = tms.check()
        assert len(conflicts) == 1
        assert conflicts[0].args == ("doc1",)

    def test_prefer_positive_suppresses_negative(self):
        engine = RuleEngine()
        engine.assert_fact("approved", "doc1")
        engine.assert_fact("flagged", "doc1")
        engine.add_rule(rule("rejected", ["?d"], ("flagged", ["?d"])))
        tms = TruthMaintenance(engine, strategy="prefer_positive")
        tms.declare_contradiction("approved", "rejected")
        tms.check()
        assert ("rejected", ("doc1",)) in tms.suppressed

    def test_no_contradiction_is_empty(self, family):
        tms = TruthMaintenance(family, strategy="report")
        tms.declare_contradiction("ancestor", "stranger")
        assert tms.check() == []

    def test_unknown_strategy_rejected(self, family):
        with pytest.raises(RuleError):
            TruthMaintenance(family, strategy="coin-flip")


class TestProve:
    def test_prove_derived_fact(self, family):
        chain = family.prove("ancestor", "ann", "dave")
        assert chain and chain[0] in ("base", "step")

    def test_prove_unprovable_returns_none(self, family):
        assert family.prove("ancestor", "dave", "ann") is None

    def test_prove_base_fact_empty_chain(self, family):
        assert family.prove("parent", "ann", "bob") == []
