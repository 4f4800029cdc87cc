"""Semantic modeling extensions: roles [PERN90] and temporal data."""

import pytest

from repro import AttributeDef, Database
from repro.errors import KimDBError, SchemaError
from repro.semantics import attach_roles, attach_temporal


@pytest.fixture
def rdb():
    db = Database()
    attach_roles(db)
    db.define_class(
        "Person",
        attributes=[AttributeDef("name", "String", required=True)],
    )
    db.roles.define_role(
        "Employee",
        "Person",
        [AttributeDef("salary", "Integer"), AttributeDef("dept", "String")],
    )
    db.roles.define_role(
        "Customer", "Person", [AttributeDef("discount", "Integer", default=0)]
    )
    return db


class TestRoles:
    def test_role_class_created(self, rdb):
        assert rdb.schema.has_class("EmployeeRole")
        assert rdb.schema.attribute("EmployeeRole", "player").domain == "Person"

    def test_play_and_read_role(self, rdb):
        ann = rdb.new("Person", {"name": "ann"})
        rdb.roles.add_role(ann.oid, "Employee", {"salary": 50000, "dept": "eng"})
        assert rdb.roles.plays(ann.oid, "Employee")
        assert rdb.roles.get(ann.oid, "Employee", "salary") == 50000

    def test_multiple_roles_simultaneously(self, rdb):
        ann = rdb.new("Person", {"name": "ann"})
        rdb.roles.add_role(ann.oid, "Employee", {"salary": 1})
        rdb.roles.add_role(ann.oid, "Customer", {"discount": 10})
        assert rdb.roles.roles_of(ann.oid) == ["Customer", "Employee"]
        # Player identity and class are untouched (core concept 3 holds).
        assert rdb.class_of(ann.oid) == "Person"

    def test_duplicate_role_rejected(self, rdb):
        ann = rdb.new("Person", {"name": "ann"})
        rdb.roles.add_role(ann.oid, "Employee", {"salary": 1})
        with pytest.raises(SchemaError):
            rdb.roles.add_role(ann.oid, "Employee", {"salary": 2})

    def test_wrong_player_class_rejected(self, rdb):
        rdb.define_class("Robot")
        bot = rdb.new("Robot")
        with pytest.raises(SchemaError):
            rdb.roles.add_role(bot.oid, "Employee")

    def test_subclass_players_allowed(self, rdb):
        rdb.define_class("Manager", superclasses=("Person",))
        boss = rdb.new("Manager", {"name": "boss"})
        rdb.roles.add_role(boss.oid, "Employee", {"salary": 2})
        assert rdb.roles.plays(boss.oid, "Employee")

    def test_update_role_state(self, rdb):
        ann = rdb.new("Person", {"name": "ann"})
        rdb.roles.add_role(ann.oid, "Employee", {"salary": 1})
        rdb.roles.set(ann.oid, "Employee", {"salary": 99})
        assert rdb.roles.get(ann.oid, "Employee", "salary") == 99

    def test_drop_role(self, rdb):
        ann = rdb.new("Person", {"name": "ann"})
        role_oid = rdb.roles.add_role(ann.oid, "Employee", {"salary": 1})
        rdb.roles.drop_role(ann.oid, "Employee")
        assert not rdb.roles.plays(ann.oid, "Employee")
        assert not rdb.exists(role_oid)

    def test_player_delete_cascades_roles(self, rdb):
        ann = rdb.new("Person", {"name": "ann"})
        role_oid = rdb.roles.add_role(ann.oid, "Employee", {"salary": 1})
        rdb.delete(ann.oid)
        assert not rdb.exists(role_oid)

    def test_players_listing(self, rdb):
        people = [rdb.new("Person", {"name": "p%d" % i}) for i in range(3)]
        for person in people[:2]:
            rdb.roles.add_role(person.oid, "Employee", {"salary": 1})
        assert rdb.roles.players("Employee") == sorted(p.oid for p in people[:2])

    def test_query_role_predicate(self, rdb):
        rich = rdb.new("Person", {"name": "rich"})
        poor = rdb.new("Person", {"name": "poor"})
        rdb.roles.add_role(rich.oid, "Employee", {"salary": 90000})
        rdb.roles.add_role(poor.oid, "Employee", {"salary": 100})
        assert rdb.roles.query_role("Employee", "r.salary > 50000") == [rich.oid]

    def test_another_transactions_uncommitted_role_is_not_played(self, rdb):
        ann = rdb.new("Person", {"name": "ann"})
        txn = rdb.transaction()
        rdb.roles.add_role(ann.oid, "Employee", {"salary": 1})
        rdb.txns.detach()
        assert not rdb.roles.plays(ann.oid, "Employee")
        assert rdb.roles.players("Employee") == []
        rdb.txns.attach(txn)
        assert rdb.roles.plays(ann.oid, "Employee")  # its own write
        txn.abort()
        assert not rdb.roles.plays(ann.oid, "Employee")

    def test_unknown_role_rejected(self, rdb):
        ann = rdb.new("Person", {"name": "ann"})
        with pytest.raises(SchemaError):
            rdb.roles.add_role(ann.oid, "Astronaut")


@pytest.fixture
def tdb():
    db = Database()
    attach_temporal(db)
    db.define_class(
        "Stock",
        attributes=[AttributeDef("symbol", "String"), AttributeDef("price", "Integer")],
    )
    return db


class TestTemporal:
    def test_history_recorded(self, tdb):
        stock = tdb.new("Stock", {"symbol": "KIM", "price": 10})
        tdb.update(stock.oid, {"price": 20})
        tdb.update(stock.oid, {"price": 30})
        history = tdb.temporal.history_of(stock.oid)
        assert [entry.state.values["price"] for entry in history] == [10, 20, 30]

    def test_as_of_reads_past_state(self, tdb):
        stock = tdb.new("Stock", {"symbol": "KIM", "price": 10})
        t1 = tdb.temporal.now
        tdb.update(stock.oid, {"price": 20})
        t2 = tdb.temporal.now
        tdb.update(stock.oid, {"price": 30})
        assert tdb.temporal.value_as_of(stock.oid, "price", t1) == 10
        assert tdb.temporal.value_as_of(stock.oid, "price", t2) == 20
        assert tdb.temporal.value_as_of(stock.oid, "price", tdb.temporal.now) == 30

    def test_before_birth_is_none(self, tdb):
        marker = tdb.temporal.now
        stock = tdb.new("Stock", {"symbol": "KIM", "price": 10})
        assert tdb.temporal.as_of(stock.oid, marker) is None
        with pytest.raises(KimDBError):
            tdb.temporal.value_as_of(stock.oid, "price", marker)

    def test_deleted_object_still_queryable_in_past(self, tdb):
        stock = tdb.new("Stock", {"symbol": "KIM", "price": 10})
        alive_at = tdb.temporal.now
        tdb.delete(stock.oid)
        assert not tdb.exists(stock.oid)
        past = tdb.temporal.as_of(stock.oid, alive_at)
        assert past.values["price"] == 10
        assert tdb.temporal.as_of(stock.oid, tdb.temporal.now) is None

    def test_lifetime(self, tdb):
        stock = tdb.new("Stock", {"symbol": "KIM", "price": 10})
        birth, death = tdb.temporal.lifetime_of(stock.oid)
        assert birth is not None and death is None
        tdb.delete(stock.oid)
        birth2, death2 = tdb.temporal.lifetime_of(stock.oid)
        assert birth2 == birth and death2 is not None

    def test_extent_as_of(self, tdb):
        a = tdb.new("Stock", {"symbol": "A", "price": 1})
        t1 = tdb.temporal.now
        b = tdb.new("Stock", {"symbol": "B", "price": 2})
        tdb.delete(a.oid)
        assert tdb.temporal.extent_as_of("Stock", t1) == [a.oid]
        assert tdb.temporal.extent_as_of("Stock", tdb.temporal.now) == [b.oid]

    def test_changed_between(self, tdb):
        a = tdb.new("Stock", {"symbol": "A", "price": 1})
        t1 = tdb.temporal.now
        tdb.update(a.oid, {"price": 2})
        b = tdb.new("Stock", {"symbol": "B", "price": 1})
        t2 = tdb.temporal.now
        assert tdb.temporal.changed_between(t1, t2) == sorted([a.oid, b.oid])
        assert tdb.temporal.changed_between(t2, t2 + 10) == []

    def test_aborted_transactions_leave_compensated_history(self, tdb):
        stock = tdb.new("Stock", {"symbol": "KIM", "price": 10})
        txn = tdb.transaction()
        tdb.update(stock.oid, {"price": 999})
        txn.abort()
        # The abort's compensation is itself recorded; the latest state
        # as of "now" is the committed one.
        assert tdb.temporal.value_as_of(stock.oid, "price", tdb.temporal.now) == 10

    def test_rollup_snapshot_count(self, tdb):
        stock = tdb.new("Stock", {"symbol": "KIM", "price": 10})
        for price in range(5):
            tdb.update(stock.oid, {"price": price})
        assert tdb.temporal.snapshot_count() == 6
