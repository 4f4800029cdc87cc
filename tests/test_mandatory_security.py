"""Mandatory multilevel security [THUR89]."""

import pytest

from repro import AttributeDef, Database
from repro.authz import attach, attach_mandatory
from repro.errors import AuthorizationError


@pytest.fixture
def mdb():
    db = Database()
    mac = attach_mandatory(db)
    db.define_class("Report", attributes=[
        AttributeDef("title", "String"), AttributeDef("body", "String"),
    ])
    db.define_class("IntelReport", superclasses=("Report",))
    mac.classify_class("Report", "confidential")
    mac.classify_class("IntelReport", "secret")
    mac.clear_subject("private", "unclassified")
    mac.clear_subject("analyst", "confidential")
    mac.clear_subject("chief", "top_secret")
    return db


class TestConfiguration:
    def test_unknown_level_rejected(self, mdb):
        with pytest.raises(AuthorizationError):
            mdb.mac.classify_class("Report", "ultraviolet")

    def test_unknown_subject_rejected(self, mdb):
        with pytest.raises(AuthorizationError):
            mdb.mac.set_subject("stranger")

    def test_too_few_levels_rejected(self):
        with pytest.raises(AuthorizationError):
            attach_mandatory(Database(), levels=("only",))

    def test_classification_defaults_along_mro(self, mdb):
        assert mdb.mac.classification_of("Report") == "confidential"
        assert mdb.mac.classification_of("IntelReport") == "secret"
        mdb.define_class("FieldReport", superclasses=("IntelReport",))
        assert mdb.mac.classification_of("FieldReport") == "secret"

    def test_unclassified_default(self, mdb):
        mdb.define_class("Memo")
        assert mdb.mac.classification_of("Memo") == "unclassified"


class TestSimpleSecurity:
    def test_no_read_up(self, mdb):
        report = mdb.new("Report", {"title": "t"})
        mdb.mac.set_subject("private")
        with pytest.raises(AuthorizationError):
            mdb.get_state(report.oid)

    def test_read_at_level(self, mdb):
        report = mdb.new("Report", {"title": "t"})
        mdb.mac.set_subject("analyst")
        assert mdb.get_state(report.oid).values["title"] == "t"

    def test_read_down_allowed(self, mdb):
        report = mdb.new("Report", {"title": "t"})
        mdb.mac.set_subject("chief")
        assert mdb.get_state(report.oid).values["title"] == "t"

    def test_object_override_beats_class_default(self, mdb):
        report = mdb.new("Report", {"title": "t"})
        mdb.mac.classify_object(report.oid, "top_secret")
        mdb.mac.set_subject("analyst")
        with pytest.raises(AuthorizationError):
            mdb.get_state(report.oid)


class TestStarProperty:
    def test_no_write_down(self, mdb):
        report = mdb.new("Report", {"title": "t"})  # confidential
        mdb.mac.set_subject("chief")  # top_secret
        with pytest.raises(AuthorizationError):
            mdb.update(report.oid, {"body": "leak"})

    def test_write_up_and_at_level_allowed(self, mdb):
        mdb.mac.set_subject("analyst")
        report = mdb.new("Report", {"title": "mine"})  # at level: ok
        mdb.update(report.oid, {"body": "more"})
        intel = mdb.new("IntelReport", {"title": "up"})  # write up: ok
        assert mdb.exists(intel.oid)

    def test_create_below_clearance_rejected(self, mdb):
        mdb.define_class("Memo")  # unclassified
        mdb.mac.set_subject("analyst")
        with pytest.raises(AuthorizationError):
            mdb.new("Memo")

    def test_delete_follows_star_property(self, mdb):
        report = mdb.new("Report", {"title": "t"})
        mdb.mac.set_subject("chief")
        with pytest.raises(AuthorizationError):
            mdb.delete(report.oid)


class TestQueryFiltering:
    def test_results_filtered_not_denied(self, mdb):
        mdb.new("Report", {"title": "conf"})
        mdb.new("IntelReport", {"title": "secret"})
        mdb.mac.set_subject("analyst")
        result = mdb.select("SELECT r FROM Report r")
        titles = {h["title"] for h in result}
        assert titles == {"conf"}  # the secret one silently vanishes

    def test_chief_sees_everything(self, mdb):
        mdb.new("Report", {"title": "conf"})
        mdb.new("IntelReport", {"title": "secret"})
        mdb.mac.set_subject("chief")
        assert len(mdb.select("SELECT r FROM Report r")) == 2

    def test_private_sees_nothing(self, mdb):
        mdb.new("Report", {"title": "conf"})
        mdb.mac.set_subject("private")
        assert mdb.select("SELECT r FROM Report r") == []

    def test_aggregates_and_top_k_cover_visible_rows_only(self, mdb):
        """D1/D2: no-read-up runs before aggregation and ORDER BY/LIMIT."""
        mdb.new("IntelReport", {"title": "a-secret"})
        mdb.new("Report", {"title": "b-conf"})
        mdb.new("Report", {"title": "c-conf"})
        count = "SELECT COUNT(*) FROM Report r"
        first = "SELECT r FROM Report r ORDER BY r.title LIMIT 1"
        with mdb.mac.as_subject("chief"):
            assert mdb.execute(count).rows == [{"count(*)": 3}]
        with mdb.mac.as_subject("analyst"):
            assert mdb.execute(count).rows == [{"count(*)": 2}]
            assert [h["title"] for h in mdb.select(first)] == ["b-conf"]
            assert [h["title"] for h in mdb.select_iter(first)] == ["b-conf"]
        with mdb.mac.as_subject("private"):
            assert mdb.execute(count).rows == [{"count(*)": 0}]

    def test_snapshot_rows_stay_visible_after_concurrent_delete(self, mdb):
        """D3: the decision uses the snapshot-resolved row's own class."""
        doomed = mdb.new("Report", {"title": "conf"})
        mdb.mac.set_subject("analyst")
        reader = mdb.transaction()
        before = mdb.execute("SELECT r FROM Report r").oids
        assert before == [doomed.oid]
        mdb.txns.detach()
        mdb.delete(doomed.oid)  # autocommits beside the open reader
        mdb.txns.attach(reader)
        try:
            assert mdb.execute("SELECT r FROM Report r").oids == before
            assert [h.oid for h in mdb.select_iter("SELECT r FROM Report r")] == before
        finally:
            reader.commit()
        assert mdb.select("SELECT r FROM Report r") == []

    def test_stream_keeps_the_subject_it_opened_with(self, mdb):
        """The no-read-up reader is bound when the read opens: raising
        the subject mid-stream must not surface rows above the clearance
        the stream opened with."""
        mdb.create_hierarchy_index("Report", "title")
        reports = [mdb.new("Report", {"title": "t%02d" % n}) for n in range(100)]
        for report in reports[1:10]:
            mdb.mac.classify_object(report.oid, "top_secret")
        mdb.mac.set_subject("analyst")
        text = "SELECT r FROM Report r ORDER BY r.title LIMIT 5"
        assert mdb.plan(text).access.description.startswith("index-order-scan")
        stream = mdb.select_iter(text)
        try:
            titles = [next(stream)["title"]]
            mdb.mac.set_subject("chief")
            titles += [handle["title"] for handle in stream]
        finally:
            stream.close()
        assert titles == ["t00", "t10", "t11", "t12", "t13"]

    def test_as_subject_context(self, mdb):
        mdb.new("Report", {"title": "conf"})
        with mdb.mac.as_subject("private"):
            assert mdb.select("SELECT r FROM Report r") == []
        assert len(mdb.select("SELECT r FROM Report r")) == 1  # MAC off again


class TestComposedWithDiscretionary:
    def test_mac_overrides_discretionary_grant(self, mdb):
        authz = attach(mdb)
        authz.add_role("analyst_role")
        authz.grant("analyst_role", "read", "Report")
        mdb.new("Report", {"title": "conf"})
        mdb.new("IntelReport", {"title": "secret"})
        authz.set_subject("analyst_role")
        mdb.mac.set_subject("analyst")
        # Discretionary grant covers both classes; MAC still strips the
        # secret instance.
        titles = {h["title"] for h in mdb.select("SELECT r FROM Report r")}
        assert titles == {"conf"}
