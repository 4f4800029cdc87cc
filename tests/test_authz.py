"""Authorization: role graph, implicit grants, negative overrides."""

import pytest

from repro import AttributeDef, Database
from repro.authz import attach
from repro.errors import AuthorizationError


@pytest.fixture
def adb():
    db = Database()
    manager = attach(db)
    db.define_class("Document", attributes=[
        AttributeDef("title", "String"), AttributeDef("level", "Integer"),
    ])
    db.define_class("SecretDocument", superclasses=("Document",))
    manager.add_role("employee")
    manager.add_role("manager", extends=["employee"])
    manager.add_role("auditor")
    return db


class TestRoleGraph:
    def test_duplicate_role_rejected(self, adb):
        with pytest.raises(AuthorizationError):
            adb.authz.add_role("employee")

    def test_unknown_parent_rejected(self, adb):
        with pytest.raises(AuthorizationError):
            adb.authz.add_role("x", extends=["ghost"])

    def test_role_inherits_grants(self, adb):
        adb.authz.grant("employee", "read", "Document")
        adb.authz.set_subject("manager")
        assert adb.authz.allowed("read", "Document")

    def test_superuser_bypasses(self, adb):
        adb.authz.set_subject("system")
        assert adb.authz.allowed("delete", "Document")


class TestImplicitDerivation:
    def test_database_grant_covers_classes(self, adb):
        adb.authz.grant("employee", "read", "database")
        adb.authz.set_subject("employee")
        assert adb.authz.allowed("read", "Document")
        assert adb.authz.allowed("read", "SecretDocument")

    def test_class_grant_covers_instances(self, adb):
        adb.authz.set_subject("system")
        doc = adb.new("Document", {"title": "t"})
        adb.authz.grant("employee", "read", "Document")
        adb.authz.set_subject("employee")
        assert adb.authz.allowed("read", "Document", doc.oid)

    def test_class_grant_covers_subclasses_by_default(self, adb):
        adb.authz.grant("employee", "read", "Document")
        adb.authz.set_subject("employee")
        assert adb.authz.allowed("read", "SecretDocument")

    def test_subclass_exclusion(self, adb):
        adb.authz.grant("employee", "read", "Document", include_subclasses=False)
        adb.authz.set_subject("employee")
        assert adb.authz.allowed("read", "Document")
        assert not adb.authz.allowed("read", "SecretDocument")

    def test_write_implies_read(self, adb):
        adb.authz.grant("employee", "write", "Document")
        adb.authz.set_subject("employee")
        assert adb.authz.allowed("read", "Document")
        assert not adb.authz.allowed("delete", "Document")

    def test_closed_world_default_deny(self, adb):
        adb.authz.set_subject("employee")
        assert not adb.authz.allowed("read", "Document")


class TestNegativeAuthorizations:
    def test_deny_overrides_grant(self, adb):
        adb.authz.grant("employee", "read", "database")
        adb.authz.deny("employee", "read", "SecretDocument")
        adb.authz.set_subject("employee")
        assert adb.authz.allowed("read", "Document")
        assert not adb.authz.allowed("read", "SecretDocument")

    def test_deny_read_poisons_write(self, adb):
        adb.authz.grant("employee", "write", "database")
        adb.authz.deny("employee", "read", "SecretDocument")
        adb.authz.set_subject("employee")
        assert not adb.authz.allowed("write", "SecretDocument")

    def test_object_level_deny(self, adb):
        adb.authz.set_subject("system")
        public = adb.new("Document", {"title": "public"})
        private = adb.new("Document", {"title": "private"})
        adb.authz.grant("employee", "read", "Document")
        adb.authz.deny("employee", "read", private.oid)
        adb.authz.set_subject("employee")
        assert adb.authz.allowed("read", "Document", public.oid)
        assert not adb.authz.allowed("read", "Document", private.oid)


class TestEnforcement:
    def test_unauthorized_create_blocked(self, adb):
        adb.authz.set_subject("employee")
        with pytest.raises(AuthorizationError):
            adb.new("Document", {"title": "t"})

    def test_unauthorized_read_blocked(self, adb):
        adb.authz.set_subject("system")
        doc = adb.new("Document", {"title": "t"})
        adb.authz.set_subject("employee")
        with pytest.raises(AuthorizationError):
            adb.get_state(doc.oid)

    def test_unauthorized_query_blocked(self, adb):
        adb.authz.set_subject("employee")
        with pytest.raises(AuthorizationError):
            adb.select("SELECT d FROM Document d")

    def test_authorized_flow(self, adb):
        adb.authz.grant("manager", "create", "Document")
        adb.authz.grant("manager", "write", "Document")
        adb.authz.set_subject("manager")
        doc = adb.new("Document", {"title": "t"})
        adb.update(doc.oid, {"level": 2})
        assert adb.get(doc.oid)["level"] == 2

    def test_result_filtering_per_object(self, adb):
        adb.authz.set_subject("system")
        visible = adb.new("Document", {"title": "a"})
        hidden = adb.new("Document", {"title": "b"})
        adb.authz.grant("employee", "read", "Document")
        adb.authz.deny("employee", "read", hidden.oid)
        adb.authz.set_subject("employee")
        oids = [h.oid for h in adb.select("SELECT d FROM Document d")]
        assert visible.oid in oids
        assert hidden.oid not in oids

    @staticmethod
    def _five_documents(adb, hidden_levels=()):
        """Levels 1..5 as superuser; ``employee`` may read Document but
        is denied the documents whose level is in ``hidden_levels``."""
        adb.authz.set_subject("system")
        docs = [adb.new("Document", {"title": "d%d" % n, "level": n})
                for n in range(1, 6)]
        adb.new("SecretDocument", {"title": "s", "level": 9})
        adb.authz.grant("employee", "read", "Document")
        for doc in docs:
            if doc["level"] in hidden_levels:
                adb.authz.deny("employee", "read", doc.oid)
        return docs

    AGGREGATES = (
        "SELECT COUNT(*) FROM Document d",
        "SELECT COUNT(*), SUM(d.level) FROM Document d GROUP BY d.title",
    )

    def test_aggregates_under_full_read_rights_equal_superuser(self, adb):
        """D1: aggregate rows carry no OIDs — nothing may filter them away."""
        self._five_documents(adb)
        expected = [adb.execute(q).rows for q in self.AGGREGATES]
        assert expected[0] == [{"count(*)": 6}]
        adb.authz.set_subject("employee")
        assert [adb.execute(q).rows for q in self.AGGREGATES] == expected

    def test_aggregates_under_partial_grant_cover_visible_rows_only(self, adb):
        """D1: visibility runs before aggregation."""
        self._five_documents(adb, hidden_levels=(2, 4))
        adb.authz.deny("employee", "read", "SecretDocument")
        adb.authz.set_subject("employee")
        count, grouped = (adb.execute(q).rows for q in self.AGGREGATES)
        assert count == [{"count(*)": 3}]
        assert [row["sum(level)"] for row in grouped] == [1, 3, 5]

    def test_order_by_limit_returns_best_visible_rows(self, adb):
        """D2: visibility runs before ORDER BY ... LIMIT."""
        docs = self._five_documents(adb, hidden_levels=(5, 4))
        adb.authz.deny("employee", "read", "SecretDocument")
        adb.authz.set_subject("employee")
        text = "SELECT d FROM Document d ORDER BY d.level DESC LIMIT 2"
        best_visible = [docs[2].oid, docs[1].oid]
        assert adb.execute(text).oids == best_visible
        assert [h.oid for h in adb.select_iter(text)] == best_visible

    def test_snapshot_rows_stay_visible_after_concurrent_delete(self, adb):
        """D3: visibility is decided on the snapshot-resolved row, not by
        looking the OID up again in current storage."""
        docs = self._five_documents(adb)
        adb.authz.grant("employee", "delete", "Document")
        adb.authz.set_subject("employee")
        text = "SELECT d FROM Document d WHERE d.level <= 5"
        reader = adb.transaction()
        before = adb.execute(text).oids
        adb.txns.detach()
        adb.delete(docs[0].oid)  # autocommits beside the open reader
        adb.txns.attach(reader)
        try:
            assert adb.execute(text).oids == before
            assert [h.oid for h in adb.select_iter(text)] == before
        finally:
            reader.commit()
        assert adb.execute(text).oids == before[1:]

    def test_stream_keeps_the_subject_it_opened_with(self, adb):
        """The reader is bound when the read opens: switching subject
        mid-stream must not widen an ordered walk's remaining rows."""
        adb.authz.set_subject("system")
        adb.create_hierarchy_index("Document", "level")
        docs = [adb.new("Document", {"title": "d", "level": n}) for n in range(100)]
        adb.authz.grant("employee", "read", "Document")
        for doc in docs[1:10]:
            adb.authz.deny("employee", "read", doc.oid)
        adb.authz.set_subject("employee")
        text = "SELECT d FROM Document d ORDER BY d.level LIMIT 5"
        assert adb.plan(text).access.description.startswith("index-order-scan")
        stream = adb.select_iter(text)
        try:
            levels = [next(stream)["level"]]
            adb.authz.set_subject("system")
            levels += [handle["level"] for handle in stream]
        finally:
            stream.close()
        assert levels == [0, 10, 11, 12, 13]

    def test_cached_plan_serves_each_subject_its_own_rows(self, adb):
        docs = self._five_documents(adb, hidden_levels=(1, 2, 3))
        adb.authz.deny("employee", "read", "SecretDocument")
        text = "SELECT d FROM Document d"
        assert len(adb.execute(text)) == 6
        cache_hits = adb.metrics.counter("query.plan_cache.hits")
        hits = cache_hits.value
        with adb.authz.as_subject("employee"):
            assert adb.execute(text).oids == [docs[3].oid, docs[4].oid]
        assert len(adb.execute(text)) == 6
        assert cache_hits.value == hits + 2

    def test_as_subject_context_manager(self, adb):
        adb.authz.grant("employee", "read", "Document")
        with adb.authz.as_subject("employee"):
            assert adb.authz.allowed("read", "Document")
        assert adb.authz.subject == adb.authz.SUPERUSER

    def test_unknown_action_rejected(self, adb):
        with pytest.raises(AuthorizationError):
            adb.authz.grant("employee", "fly", "Document")
