"""Robustness fuzzing: malformed inputs fail cleanly, never crash."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, KimDBError
from repro.errors import QueryError, QuerySyntaxError, StorageError
from repro.lang import Interpreter
from repro.multidb.osql import translate_sql
from repro.query.parser import parse_query
from repro.storage.serializer import decode_object

query_alphabet = string.ascii_letters + string.digits + " .,'\"()[]<>=!*%_-"


class TestParserFuzz:
    @given(text=st.text(alphabet=query_alphabet, max_size=120))
    @settings(max_examples=300)
    def test_random_text_raises_query_errors_only(self, text):
        try:
            parse_query(text)
        except QueryError:
            pass  # QuerySyntaxError is a QueryError

    @given(text=st.text(max_size=60))
    @settings(max_examples=150)
    def test_arbitrary_unicode_never_crashes(self, text):
        try:
            parse_query("SELECT v FROM Vehicle v WHERE v.name = '%s'" % text.replace("'", ""))
        except QueryError:
            pass

    @given(
        clauses=st.lists(
            st.sampled_from(
                ["WHERE", "ORDER BY", "LIMIT", "GROUP BY", "AND", "OR", "v.x = 1"]
            ),
            max_size=6,
        )
    )
    @settings(max_examples=150)
    def test_shuffled_clauses_raise_cleanly(self, clauses):
        text = "SELECT v FROM V v " + " ".join(clauses)
        try:
            parse_query(text)
        except QueryError:
            pass


class TestDlFuzz:
    @given(text=st.text(alphabet=query_alphabet, max_size=100))
    @settings(max_examples=200)
    def test_random_statements_fail_cleanly(self, text):
        db = Database()
        interpreter = Interpreter(db)
        try:
            interpreter.execute(text)
        except KimDBError:
            pass  # any library error is acceptable; crashes are not

    @given(
        head=st.sampled_from(
            [
                "INSERT INTO F SET w = 1.5",
                "UPDATE F SET w = 2",
                "DELETE FROM F",
                "CREATE CLASS G (x Integer)",
                "CREATE INDEX ON F(w)",
                "ALTER CLASS F ADD ATTRIBUTE z Integer",
                "ALTER CLASS F RENAME ATTRIBUTE n TO m",
                "DROP CLASS F",
                "RENAME CLASS F TO H",
                "SELECT f FROM F f",
            ]
        ),
        tail=st.text(alphabet=query_alphabet, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_failing_statement_changes_nothing(self, head, tail):
        db = Database()
        interpreter = Interpreter(db)
        interpreter.run_script("CREATE CLASS F (w Float, n String); INSERT INTO F SET w = 1")
        objects, version = len(db.storage.directory), db.schema.version
        try:
            interpreter.execute(head + " " + tail)
        except KimDBError:
            assert (len(db.storage.directory), db.schema.version) == (objects, version)

    def test_empty_script_is_noop(self):
        assert Interpreter(Database()).run_script("  ;;  ; ") == []


class TestOsqlFuzz:
    @given(text=st.text(alphabet=query_alphabet, max_size=100))
    @settings(max_examples=200)
    def test_random_sql_raises_syntax_errors_only(self, text):
        try:
            translate_sql(text)
        except QuerySyntaxError:
            pass


class TestSerializerFuzz:
    @given(data=st.binary(max_size=200))
    @settings(max_examples=300)
    def test_random_bytes_never_crash_decoder(self, data):
        try:
            decode_object(data)
        except StorageError:
            pass

    @given(data=st.binary(min_size=8, max_size=200))
    @settings(max_examples=200)
    def test_truncated_valid_records_detected(self, data):
        from repro.core.obj import ObjectState
        from repro.core.oid import OID
        from repro.storage.serializer import encode_object

        record = encode_object(ObjectState(OID(1), "A", {"x": data}))
        for cut in (len(record) // 3, len(record) // 2, len(record) - 1):
            try:
                decoded = decode_object(record[:cut])
            except StorageError:
                continue
            # A truncated record that still decodes must not silently
            # invent the attribute payload.
            assert decoded.values.get("x") != data


class TestQueryErrorQuality:
    def test_messages_name_the_problem(self):
        db = Database()
        db.define_class("T")
        with pytest.raises(QueryError) as excinfo:
            db.select("SELECT t FROM T t WHERE t.ghost = 1")
        assert "ghost" in str(excinfo.value)
        with pytest.raises(Exception) as excinfo:
            db.select("SELECT t FROM Nope t")
        assert "Nope" in str(excinfo.value)

    def test_syntax_error_positions(self):
        with pytest.raises(QuerySyntaxError) as excinfo:
            parse_query("SELECT v FROM Vehicle v WHERE v.x # 3")
        assert "position" in str(excinfo.value)
