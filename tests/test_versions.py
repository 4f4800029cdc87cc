"""Versions: derivation graph, policies, generic binding, notification."""

import pytest

from repro import AttributeDef, Database
from repro.errors import VersionError
from repro.versions import (
    ChouKimPolicy,
    FreezeOnDerivePolicy,
    attach,
    attach_notifications,
)


@pytest.fixture
def vdb():
    db = Database()
    attach_notifications(db)
    attach(db)
    db.define_class(
        "Design",
        attributes=[AttributeDef("name", "String"), AttributeDef("rev", "Integer")],
        versionable=True,
    )
    return db


class TestDerivation:
    def test_first_version_is_transient_v1(self, vdb):
        oid = vdb.versions.create_versioned("Design", {"name": "chip", "rev": 0})
        record = vdb.versions.record_of(oid)
        assert record.number == 1
        assert record.status == "transient"
        assert record.parent is None

    def test_derive_copies_and_applies_changes(self, vdb):
        v1 = vdb.versions.create_versioned("Design", {"name": "chip", "rev": 0})
        v2 = vdb.versions.derive(v1, {"rev": 1})
        assert vdb.get(v2)["name"] == "chip"
        assert vdb.get(v2)["rev"] == 1
        assert vdb.get(v1)["rev"] == 0  # parent untouched

    def test_version_numbers_increase(self, vdb):
        v1 = vdb.versions.create_versioned("Design", {"name": "chip"})
        v2 = vdb.versions.derive(v1)
        v3 = vdb.versions.derive(v2)
        numbers = [vdb.versions.record_of(v).number for v in (v1, v2, v3)]
        assert numbers == [1, 2, 3]

    def test_branching(self, vdb):
        v1 = vdb.versions.create_versioned("Design", {"name": "chip"})
        left = vdb.versions.derive(v1)
        right = vdb.versions.derive(v1)
        assert vdb.versions.record_of(left).parent == v1
        assert vdb.versions.record_of(right).parent == v1
        assert len(vdb.versions.versions_of_generic(1)) == 3

    def test_history_chain(self, vdb):
        v1 = vdb.versions.create_versioned("Design", {"name": "chip"})
        v2 = vdb.versions.derive(v1)
        v3 = vdb.versions.derive(v2)
        assert vdb.versions.history(v3) == [v1, v2, v3]

    def test_unversioned_object_rejected(self, vdb):
        plain = vdb.new("Design", {"name": "plain"})
        with pytest.raises(VersionError):
            vdb.versions.derive(plain.oid)


class TestChouKimPolicy:
    def test_transient_updatable(self, vdb):
        v1 = vdb.versions.create_versioned("Design", {"name": "chip", "rev": 0})
        vdb.update(v1, {"rev": 5})
        assert vdb.get(v1)["rev"] == 5

    def test_working_frozen(self, vdb):
        v1 = vdb.versions.create_versioned("Design", {"name": "chip"})
        assert vdb.versions.promote(v1) == "working"
        with pytest.raises(VersionError):
            vdb.update(v1, {"rev": 5})

    def test_working_deletable_released_not(self, vdb):
        v1 = vdb.versions.create_versioned("Design", {"name": "a"})
        vdb.versions.promote(v1)  # working
        v2 = vdb.versions.create_versioned("Design", {"name": "b"})
        vdb.versions.promote(v2)
        vdb.versions.promote(v2)  # released
        vdb.delete(v1)  # ok
        with pytest.raises(VersionError):
            vdb.delete(v2)

    def test_promotion_ladder_ends(self, vdb):
        v1 = vdb.versions.create_versioned("Design", {"name": "chip"})
        vdb.versions.promote(v1)
        vdb.versions.promote(v1)
        with pytest.raises(VersionError):
            vdb.versions.promote(v1)

    def test_version_with_children_not_deletable(self, vdb):
        v1 = vdb.versions.create_versioned("Design", {"name": "chip"})
        vdb.versions.derive(v1)
        with pytest.raises(VersionError):
            vdb.delete(v1)

    def test_generic_binding_prefers_released(self, vdb):
        v1 = vdb.versions.create_versioned("Design", {"name": "chip"})
        v2 = vdb.versions.derive(v1)
        v3 = vdb.versions.derive(v2)
        # v2 released, v3 transient: binding picks released v2.
        vdb.versions.promote(v2)
        vdb.versions.promote(v2)
        assert vdb.versions.resolve_generic(1) == v2

    def test_generic_binding_latest_within_status(self, vdb):
        v1 = vdb.versions.create_versioned("Design", {"name": "chip"})
        v2 = vdb.versions.derive(v1)
        assert vdb.versions.resolve_generic(1) == v2

    def test_deleting_version_updates_graph(self, vdb):
        v1 = vdb.versions.create_versioned("Design", {"name": "chip"})
        v2 = vdb.versions.derive(v1)
        vdb.delete(v2)
        assert not vdb.versions.is_versioned(v2)
        assert vdb.versions.record_of(v1).children == []
        assert vdb.versions.resolve_generic(1) == v1


class TestFreezeOnDerivePolicy:
    def test_default_binding_is_newest(self):
        db = Database()
        attach(db, FreezeOnDerivePolicy())
        db.define_class("D", attributes=[AttributeDef("n", "Integer")])
        v1 = db.versions.create_versioned("D", {"n": 1})
        v2 = db.versions.derive(v1, {"n": 2})
        assert db.versions.resolve_generic(1) == v2

    def test_policy_swappable(self):
        assert ChouKimPolicy().name != FreezeOnDerivePolicy().name


class TestChangeNotification:
    def test_message_based_on_update(self, vdb):
        events = []
        design = vdb.new("Design", {"name": "chip"})
        vdb.notifications.subscribe(design.oid, lambda *a: events.append(a))
        vdb.update(design.oid, {"rev": 1})
        assert events and events[0][0] == "update"

    def test_an_aborted_update_notifies_once(self, vdb):
        events = []
        design = vdb.new("Design", {"name": "chip"})
        vdb.notifications.subscribe(design.oid, lambda *a: events.append(a))
        txn = vdb.transaction()
        vdb.update(design.oid, {"rev": 1})
        txn.abort()
        assert [event[0] for event in events] == ["update"]

    def test_class_subscription_covers_subclasses(self, vdb):
        vdb.define_class("SubDesign", superclasses=("Design",))
        events = []
        vdb.notifications.subscribe_class("Design", lambda *a: events.append(a))
        sub = vdb.new("SubDesign", {"name": "s"})
        vdb.update(sub.oid, {"rev": 2})
        assert len(events) == 1

    def test_derivation_notifies_parent_subscribers(self, vdb):
        events = []
        v1 = vdb.versions.create_versioned("Design", {"name": "chip"})
        vdb.notifications.subscribe(v1, lambda *a: events.append(a))
        v2 = vdb.versions.derive(v1)
        derive_events = [e for e in events if e[0] == "derive"]
        assert derive_events == [("derive", v1, v2)]

    def test_flag_based_polling(self, vdb):
        design = vdb.new("Design", {"name": "chip"})
        other = vdb.new("Design", {"name": "other"})
        vdb.update(design.oid, {"rev": 1})
        assert vdb.notifications.is_flagged(design.oid)
        flagged = vdb.notifications.changed_since_checked([design.oid, other.oid])
        assert flagged == [design.oid]
        # Flags cleared after the check.
        assert vdb.notifications.changed_since_checked([design.oid]) == []

    def test_an_aborted_write_leaves_no_flag(self, vdb):
        design = vdb.new("Design", {"name": "chip"})
        for write in (
            lambda: vdb.update(design.oid, {"rev": 1}),
            lambda: vdb.delete(design.oid),
        ):
            txn = vdb.transaction()
            write()
            assert vdb.notifications.is_flagged(design.oid)
            txn.abort()
            assert not vdb.notifications.is_flagged(design.oid)
            assert vdb.notifications.changed_since_checked() == []

    def test_an_aborted_write_keeps_a_committed_changes_flag(self, vdb):
        design = vdb.new("Design", {"name": "chip"})
        vdb.update(design.oid, {"rev": 1})  # committed: flagged
        txn = vdb.transaction()
        vdb.update(design.oid, {"rev": 2})
        txn.abort()
        assert vdb.notifications.changed_since_checked() == [design.oid]

    def test_a_detached_abort_unflags_too(self, vdb):
        design = vdb.new("Design", {"name": "chip"})
        txn = vdb.transaction()
        vdb.update(design.oid, {"rev": 1})
        vdb.txns.detach()
        txn.abort()
        assert not vdb.notifications.is_flagged(design.oid)

    def test_delete_notifies(self, vdb):
        events = []
        design = vdb.new("Design", {"name": "chip"})
        vdb.notifications.subscribe(design.oid, lambda *a: events.append(a))
        vdb.delete(design.oid)
        assert events[0][0] == "delete"

    def test_unsubscribe(self, vdb):
        events = []
        design = vdb.new("Design", {"name": "chip"})
        vdb.notifications.subscribe(design.oid, lambda *a: events.append(a))
        vdb.notifications.unsubscribe(design.oid)
        vdb.update(design.oid, {"rev": 1})
        assert events == []
