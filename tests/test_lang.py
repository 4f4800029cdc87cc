"""kimdb DL: the DDL/DML/DCL statement language.

``TestOneFrontEnd`` checks that the DL reads query text the way OQL
does; ``TestLiteralParity`` draws random literals and finds each object
through the DL, OQL and OSQL alike.  ``DL_PARITY_EXAMPLES`` sets how many
literals it draws (CI's weekly job runs 500).
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, MethodDef
from repro.adt import attach as attach_adt
from repro.adt import register_rectangle_type
from repro.authz import attach as attach_authz
from repro.errors import AuthorizationError, KimDBError, QuerySyntaxError
from repro.lang import Interpreter
from repro.multidb import run_osql
from repro.views import attach as attach_views

DL_PARITY_EXAMPLES = int(os.environ.get("DL_PARITY_EXAMPLES", "50"))


@pytest.fixture
def interp():
    db = Database()
    attach_views(db)
    interpreter = Interpreter(db)
    interpreter.run_script(
        """
        CREATE CLASS Company (name String REQUIRED, location String);
        CREATE CLASS AutoCompany UNDER Company;
        CREATE CLASS Vehicle (
            weight Integer,
            color String DEFAULT 'white',
            manufacturer Company
        );
        CREATE CLASS Truck UNDER Vehicle (payload Integer);
        """
    )
    return interpreter


def insert_fixture(interp):
    gm = interp.execute(
        "INSERT INTO Company SET name = 'GM', location = 'Detroit'"
    ).value
    interp.execute(
        "INSERT INTO Vehicle SET weight = 8000, manufacturer = @%d" % gm.oid.value
    )
    interp.execute(
        "INSERT INTO Truck SET weight = 9500, payload = 10, manufacturer = @%d"
        % gm.oid.value
    )
    return gm


class TestDDL:
    def test_create_class_defaults(self, interp):
        vehicle = interp.execute("INSERT INTO Vehicle SET weight = 1").value
        assert vehicle["color"] == "white"

    def test_create_class_under(self, interp):
        assert interp.db.schema.is_subclass("Truck", "Vehicle")
        assert interp.db.schema.is_subclass("AutoCompany", "Company")

    def test_attribute_flags(self, interp):
        interp.execute(
            "CREATE CLASS Assembly (parts Assembly MULTI COMPOSITE EXCLUSIVE DEPENDENT)"
        )
        attr = interp.db.schema.attribute("Assembly", "parts")
        assert attr.multi and attr.composite and attr.exclusive and attr.dependent

    def test_create_index_kinds(self, interp):
        result = interp.execute("CREATE INDEX ON Vehicle(weight)")
        assert result.value.kind == "class-hierarchy"
        result = interp.execute("CREATE INDEX sc_w ON Truck(weight) CLASS")
        assert result.value.kind == "single-class"
        result = interp.execute("CREATE INDEX ON Vehicle(manufacturer.location)")
        assert result.value.kind == "nested-attribute"

    def test_drop_index(self, interp):
        interp.execute("CREATE INDEX w ON Vehicle(weight)")
        interp.execute("DROP INDEX w")
        assert "w" not in interp.db.indexes.names()

    def test_alter_class_attribute_cycle(self, interp):
        interp.execute("ALTER CLASS Vehicle ADD ATTRIBUTE vin String")
        assert "vin" in interp.db.schema.attributes("Truck")
        interp.execute("ALTER CLASS Vehicle RENAME ATTRIBUTE vin TO serial")
        assert "serial" in interp.db.schema.attributes("Vehicle")
        interp.execute("ALTER CLASS Vehicle DROP ATTRIBUTE serial")
        assert "serial" not in interp.db.schema.attributes("Vehicle")

    def test_alter_superclass_edges(self, interp):
        interp.execute("CREATE CLASS Electric (range_km Integer DEFAULT 300)")
        interp.execute("ALTER CLASS Truck ADD SUPERCLASS Electric")
        assert "range_km" in interp.db.schema.attributes("Truck")
        interp.execute("ALTER CLASS Truck DROP SUPERCLASS Electric")
        assert "range_km" not in interp.db.schema.attributes("Truck")

    def test_rename_and_drop_class(self, interp):
        interp.execute("CREATE CLASS Temp")
        interp.execute("RENAME CLASS Temp TO Scratch")
        assert interp.db.schema.has_class("Scratch")
        interp.execute("DROP CLASS Scratch")
        assert not interp.db.schema.has_class("Scratch")

    def test_drop_class_with_migration(self, interp):
        insert_fixture(interp)
        result = interp.execute("DROP CLASS Truck MIGRATE TO Vehicle")
        assert result.value == 1
        assert interp.db.count("Vehicle", hierarchy=False) == 2

    def test_create_view_and_query(self, interp):
        insert_fixture(interp)
        interp.execute(
            "CREATE VIEW Heavy AS SELECT v FROM Vehicle v WHERE v.weight > 8500"
        )
        result = interp.execute("SELECT h FROM Heavy h")
        assert len(result.value) == 1


class TestDML:
    def test_insert_returns_handle(self, interp):
        result = interp.execute("INSERT INTO Company SET name = 'Ford'")
        assert result.kind == "inserted"
        assert result.value["name"] == "Ford"

    def test_insert_with_oid_reference(self, interp):
        gm = insert_fixture(interp)
        vehicles = interp.execute(
            "SELECT v FROM Vehicle v WHERE v.manufacturer.name = 'GM'"
        ).value
        assert len(vehicles) == 2
        assert vehicles[0].fetch("manufacturer").oid == gm.oid

    def test_insert_list_literal(self, interp):
        interp.execute("CREATE CLASS Bag (tags String MULTI)")
        bag = interp.execute("INSERT INTO Bag SET tags = ['a', 'b']").value
        assert bag["tags"] == ["a", "b"]

    def test_update_where(self, interp):
        insert_fixture(interp)
        result = interp.execute("UPDATE Vehicle SET color = 'red' WHERE weight > 9000")
        assert result.value == 1
        reds = interp.execute("SELECT v FROM Vehicle v WHERE v.color = 'red'").value
        assert len(reds) == 1

    def test_update_with_nested_where(self, interp):
        insert_fixture(interp)
        result = interp.execute(
            "UPDATE Vehicle SET color = 'blue' WHERE manufacturer.location = 'Detroit'"
        )
        assert result.value == 2

    def test_update_without_where_touches_all(self, interp):
        insert_fixture(interp)
        result = interp.execute("UPDATE Vehicle SET color = 'grey'")
        assert result.value == 2

    def test_delete_where(self, interp):
        insert_fixture(interp)
        result = interp.execute("DELETE FROM Vehicle WHERE weight < 9000")
        assert result.value == 1
        assert interp.db.count("Vehicle") == 1

    def test_select_projection_rows(self, interp):
        insert_fixture(interp)
        result = interp.execute("SELECT v.weight FROM Vehicle v ORDER BY v.weight")
        assert result.kind == "rows"
        assert [row["weight"] for row in result.value] == [8000, 9500]

    def test_select_aggregate(self, interp):
        insert_fixture(interp)
        result = interp.execute("SELECT COUNT(v), MAX(v.weight) FROM Vehicle v")
        assert result.value[0]["count(*)"] == 2
        assert result.value[0]["max(weight)"] == 9500


class TestDCL:
    def test_transaction_commit(self, interp):
        interp.execute("BEGIN")
        interp.execute("INSERT INTO Company SET name = 'Kept'")
        interp.execute("COMMIT")
        assert interp.execute(
            "SELECT c FROM Company c WHERE c.name = 'Kept'"
        ).value

    def test_transaction_abort(self, interp):
        interp.execute("BEGIN TRANSACTION")
        interp.execute("INSERT INTO Company SET name = 'Lost'")
        interp.execute("ROLLBACK")
        assert not interp.execute(
            "SELECT c FROM Company c WHERE c.name = 'Lost'"
        ).value

    def test_commit_without_begin_rejected(self, interp):
        with pytest.raises(QuerySyntaxError):
            interp.execute("COMMIT")

    def test_grant_and_deny(self, interp):
        authz = attach_authz(interp.db)
        authz.add_role("clerk")
        interp.execute("GRANT read ON Company TO clerk")
        with authz.as_subject("clerk"):
            assert interp.db.authz.allowed("read", "Company")
            assert not interp.db.authz.allowed("read", "Vehicle")
        interp.execute("DENY read ON Company TO clerk")
        with authz.as_subject("clerk"):
            assert not interp.db.authz.allowed("read", "Company")

    def test_grant_without_authz_rejected(self, interp):
        with pytest.raises(QuerySyntaxError):
            interp.execute("GRANT read ON Company TO clerk")


class TestScriptsAndErrors:
    def test_run_script_with_comments_and_strings(self, interp):
        results = interp.run_script(
            """
            -- semicolons inside strings are preserved
            INSERT INTO Company SET name = 'a;b';
            INSERT INTO Company SET name = 'c';
            """
        )
        assert len(results) == 2
        names = {r.value["name"] for r in results}
        assert names == {"a;b", "c"}

    def test_unknown_statement(self, interp):
        with pytest.raises(QuerySyntaxError):
            interp.execute("EXPLODE Vehicle")

    def test_trailing_garbage_rejected(self, interp):
        interp.execute("CREATE INDEX foo ON Vehicle(weight)")
        with pytest.raises(QuerySyntaxError):
            interp.execute("DROP INDEX foo bar baz")

    def test_describe(self, interp):
        result = interp.execute("DESCRIBE Truck")
        assert "payload" in result.value
        assert "[from Vehicle]" in result.value


class TestOneFrontEnd:
    """The DL reads literals, SELECTs and WHERE tails with OQL's own
    front end, and reads a statement in full before it acts."""

    def test_update_where_reads_an_escaped_quote(self, interp):
        interp.execute("INSERT INTO Company SET name = 'O\\'Brien'")
        interp.execute("INSERT INTO Company SET name = 'Brien'")
        result = interp.execute(
            "UPDATE Company SET location = 'Cork' WHERE name = 'O\\'Brien'"
        )
        assert result.value == 1
        rows = interp.db.select("Company where location = 'Cork'")
        assert [h["name"] for h in rows] == ["O'Brien"]

    def test_where_tail_reads_an_adt_predicate(self, interp):
        register_rectangle_type(attach_adt(interp.db))
        interp.run_script(
            """
            CREATE CLASS Cell (shape Rectangle);
            INSERT INTO Cell SET shape = [1.0, 1.0, 2.0, 2.0];
            INSERT INTO Cell SET shape = [10.0, 10.0, 12.0, 12.0];
            """
        )
        result = interp.execute("DELETE FROM Cell WHERE overlaps(shape, [0, 0, 4, 4])")
        assert result.value == 1
        assert interp.db.count("Cell") == 1

    def test_where_tail_calls_a_method_through_it(self, interp):
        interp.db.define_class(
            "Gadget",
            attributes=[],
            methods=[MethodDef("big", lambda receiver: receiver["w"] > 5)],
        )
        interp.execute("ALTER CLASS Gadget ADD ATTRIBUTE w Integer")
        interp.run_script("INSERT INTO Gadget SET w = 3; INSERT INTO Gadget SET w = 9")
        assert interp.execute("DELETE FROM Gadget WHERE it.big()").value == 1
        assert [h["w"] for h in interp.db.select("Gadget")] == [3]

    def test_run_script_keeps_an_escaped_quote_and_semicolon(self, interp):
        results = interp.run_script(
            "INSERT INTO Company SET name = 'it\\'s; here';"
            "SELECT c FROM Company c WHERE c.name = 'it\\'s; here'"
        )
        assert [h.oid for h in results[1].value] == [results[0].value.oid]
        assert results[0].value["name"] == "it's; here"

    def test_a_lex_error_anywhere_in_a_script_runs_nothing(self, interp):
        with pytest.raises(QuerySyntaxError):
            interp.run_script("INSERT INTO Company SET name = 'a'; DROP CLASS #")
        assert interp.db.count("Company") == 0

    def test_a_comment_alone_is_no_statement(self, interp):
        assert interp.run_script("-- nothing\n; ; -- still nothing") == []

    def test_a_backslash_reads_as_in_oql(self, interp):
        company = interp.execute("INSERT INTO Company SET name = 'C:\\\\dir'").value
        assert company["name"] == "C:\\dir"
        found = interp.db.select("Company where name = 'C:\\\\dir'")
        assert [h.oid for h in found] == [company.oid]

    def test_an_exponent_reads_as_in_oql(self, interp):
        interp.execute("CREATE CLASS F (w Float)")
        f = interp.execute("INSERT INTO F SET w = 1.5e3").value
        assert f["w"] == 1500.0
        assert [h.oid for h in interp.db.select("F where w = 1.5e3")] == [f.oid]

    @pytest.mark.parametrize(
        "statement",
        [
            "INSERT INTO Company SET name = 'a' junk",
            "UPDATE Vehicle SET weight = 1 WHERE weight > 0; junk",
            "DELETE FROM Vehicle; junk",
            "CREATE CLASS Extra junk",
            "CREATE INDEX w ON Vehicle(weight) junk",
            "CREATE VIEW Heavy AS SELECT v FROM Vehicle v; junk",
            "ALTER CLASS Vehicle ADD ATTRIBUTE vin String junk",
            "ALTER CLASS Vehicle DROP ATTRIBUTE color junk",
            "ALTER CLASS Vehicle RENAME ATTRIBUTE color TO paint junk",
            "ALTER CLASS Truck DROP SUPERCLASS Vehicle junk",
            "DROP CLASS Truck MIGRATE TO Vehicle junk",
            "RENAME CLASS Truck TO Lorry junk",
            "BEGIN junk",
        ],
    )
    def test_a_statement_is_checked_in_full_before_it_acts(self, interp, statement):
        insert_fixture(interp)
        db = interp.db

        def state():
            values = sorted(h["weight"] for h in db.select("Vehicle"))
            return len(db.storage.directory), db.schema.version, db.indexes.names(), values

        before = state()
        with pytest.raises(QuerySyntaxError):
            interp.execute(statement)
        assert state() == before
        assert "Heavy" not in db.views.names() and db.txns.current is None

    def test_an_oql_error_points_into_the_statement(self, interp):
        statement = "SELECT v FROM Vehicle v\nWHERE v.weight > > 3"
        with pytest.raises(QuerySyntaxError) as excinfo:
            interp.execute(statement)
        assert excinfo.value.source == statement
        assert (excinfo.value.line, excinfo.value.column) == (2, 18)

    def test_comments_inside_a_select_are_skipped_not_strings(self, interp):
        interp.execute("INSERT INTO Company SET name = 'a--b', location = 'x'")
        result = interp.execute(
            "SELECT c FROM Company c -- the -- in a string stays\n"
            "WHERE c.name = 'a--b' -- trailing comment"
        )
        assert [h["name"] for h in result.value] == ["a--b"]

    def test_update_where_is_one_transaction(self, interp):
        db = interp.db
        db.define_class("P", attributes=[])
        interp.execute("ALTER CLASS P ADD ATTRIBUTE n String")
        interp.execute("ALTER CLASS P ADD ATTRIBUTE age Integer")
        interp.run_script("INSERT INTO P SET n = 'a'; INSERT INTO P SET n = 'b'")

        def veto(kind, old, new):
            if (new or old).values.get("n") == "b" and kind != "insert":
                raise KimDBError("vetoed")

        db.add_pre_hook(veto)
        with pytest.raises(KimDBError):
            interp.execute("UPDATE P SET age = 9")
        assert [h["age"] for h in db.select("P")] == [None, None]
        with pytest.raises(KimDBError):
            interp.execute("DELETE FROM P WHERE n = 'a' OR n = 'b'")
        assert sorted(h["n"] for h in db.select("P")) == ["a", "b"]

    def test_an_explicit_transaction_joins_update_where(self, interp):
        insert_fixture(interp)
        interp.execute("BEGIN")
        interp.execute("UPDATE Vehicle SET color = 'red'")
        interp.execute("DELETE FROM Vehicle WHERE weight < 9000")
        interp.execute("ROLLBACK")
        assert sorted(h["color"] for h in interp.db.select("Vehicle")) == ["white", "white"]


def _string_text(value, quote):
    return quote + value.replace("\\", "\\\\").replace(quote, "\\" + quote) + quote


@st.composite
def literals(draw):
    """``(text, value)``: an int, a float with or without an exponent,
    or a string holding quotes, backslashes, ``;`` and ``--``."""
    kind = draw(st.sampled_from(["int", "float", "string"]))
    if kind == "int":
        value = draw(st.integers(-(10**6), 10**6))
        return str(value), value
    if kind == "float":
        text = "%s%d.%s" % (
            draw(st.sampled_from(["", "-"])),
            draw(st.integers(0, 999)),
            draw(st.text("0123456789", min_size=1, max_size=4)),
        )
        if draw(st.booleans()):
            text += "%s%s%d" % (
                draw(st.sampled_from("eE")),
                draw(st.sampled_from(["", "+", "-"])),
                draw(st.integers(0, 5)),
            )
        return text, float(text)
    pieces = ["a", " ", "'", '"', "\\", ";", "--", "x"]
    value = "".join(draw(st.lists(st.sampled_from(pieces), max_size=8)))
    return _string_text(value, draw(st.sampled_from("'\""))), value


class TestLiteralParity:
    @given(literal=literals())
    @settings(max_examples=DL_PARITY_EXAMPLES, deadline=None)
    def test_every_front_end_finds_the_object_by_its_literal(self, literal):
        text, value = literal
        db = Database()
        interp = Interpreter(db)
        # Two decoys no drawn literal equals.
        interp.run_script(
            "CREATE CLASS C (a Any, hit Integer);"
            "INSERT INTO C SET a = '~'; INSERT INTO C SET a = 1.25e9"
        )
        target = interp.execute("INSERT INTO C SET a = %s" % text).value
        assert target["a"] == value and type(target["a"]) is type(value)
        assert [h.oid for h in db.select("C where a = %s" % text)] == [target.oid]
        assert interp.execute("UPDATE C SET hit = 1 WHERE a = %s" % text).value == 1
        assert [h.oid for h in db.select("C where hit = 1")] == [target.oid]
        found = run_osql(db, "SELECT * FROM C WHERE a = %s" % text)
        assert [h.oid for h in found] == [target.oid]
