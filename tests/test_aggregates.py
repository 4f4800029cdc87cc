"""OQL aggregates: COUNT/SUM/AVG/MIN/MAX and GROUP BY."""

import pytest

from repro import AttributeDef, Database
from repro.errors import QueryError, QuerySyntaxError
from repro.query.parser import parse_query


@pytest.fixture
def sales_db():
    db = Database()
    db.define_class(
        "Region", attributes=[AttributeDef("name", "String")]
    )
    db.define_class(
        "Sale",
        attributes=[
            AttributeDef("amount", "Integer"),
            AttributeDef("product", "String"),
            AttributeDef("region", "Region"),
        ],
    )
    north = db.new("Region", {"name": "north"})
    south = db.new("Region", {"name": "south"})
    rows = [
        (100, "widget", north), (200, "widget", north), (50, "gadget", north),
        (300, "widget", south), (25, "gadget", south),
    ]
    for amount, product, region in rows:
        db.new("Sale", {"amount": amount, "product": product, "region": region.oid})
    return db


class TestParsing:
    def test_count_star(self):
        query = parse_query("SELECT COUNT(*) FROM Sale s")
        assert query.aggregates[0].fn == "count"
        assert query.aggregates[0].path is None

    def test_count_variable(self):
        query = parse_query("SELECT COUNT(s) FROM Sale s")
        assert query.aggregates[0].path is None

    def test_aggregate_with_path(self):
        query = parse_query("SELECT SUM(s.amount) FROM Sale s")
        assert query.aggregates[0].fn == "sum"
        assert query.aggregates[0].path.steps == ("amount",)

    def test_group_by(self):
        query = parse_query(
            "SELECT s.product, COUNT(s) FROM Sale s GROUP BY s.product"
        )
        assert query.group_by.steps == ("product",)

    def test_plain_item_must_match_group_by(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT s.product, COUNT(s) FROM Sale s GROUP BY s.amount")
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT s.product, COUNT(s) FROM Sale s")

    def test_group_by_without_aggregate_rejected(self):
        with pytest.raises(QueryError):
            parse_query("SELECT s FROM Sale s GROUP BY s.product")

    def test_sum_requires_path(self):
        with pytest.raises(QueryError):
            parse_query("SELECT SUM(*) FROM Sale s")


class TestEvaluation:
    def test_global_count(self, sales_db):
        rows = sales_db.execute("SELECT COUNT(s) FROM Sale s").rows
        assert rows == [{"count(*)": 5}]

    def test_count_with_where(self, sales_db):
        rows = sales_db.execute(
            "SELECT COUNT(s) FROM Sale s WHERE s.amount >= 100"
        ).rows
        assert rows == [{"count(*)": 3}]

    def test_sum_avg_min_max(self, sales_db):
        rows = sales_db.execute(
            "SELECT SUM(s.amount), AVG(s.amount), MIN(s.amount), MAX(s.amount) "
            "FROM Sale s"
        ).rows
        assert rows[0]["sum(amount)"] == 675
        assert rows[0]["avg(amount)"] == 135.0
        assert rows[0]["min(amount)"] == 25
        assert rows[0]["max(amount)"] == 300

    def test_group_by_attribute(self, sales_db):
        rows = sales_db.execute(
            "SELECT s.product, COUNT(s), SUM(s.amount) FROM Sale s "
            "GROUP BY s.product"
        ).rows
        by_product = {row["product"]: row for row in rows}
        assert by_product["widget"]["count(*)"] == 3
        assert by_product["widget"]["sum(amount)"] == 600
        assert by_product["gadget"]["sum(amount)"] == 75

    def test_group_by_nested_path(self, sales_db):
        rows = sales_db.execute(
            "SELECT COUNT(s) FROM Sale s GROUP BY s.region.name"
        ).rows
        by_region = {row["region.name"]: row["count(*)"] for row in rows}
        assert by_region == {"north": 3, "south": 2}

    def test_groups_sorted_by_key(self, sales_db):
        rows = sales_db.execute(
            "SELECT s.product, COUNT(s) FROM Sale s GROUP BY s.product"
        ).rows
        assert [row["product"] for row in rows] == ["gadget", "widget"]

    def test_aggregate_over_empty_extent(self, sales_db):
        rows = sales_db.execute(
            "SELECT COUNT(s), SUM(s.amount) FROM Sale s WHERE s.amount > 9999"
        ).rows
        assert rows == [{"count(*)": 0, "sum(amount)": None}]

    def test_none_values_skipped(self, sales_db):
        sales_db.new("Sale", {"amount": None, "product": "widget"})
        rows = sales_db.execute("SELECT COUNT(s.amount), COUNT(s) FROM Sale s").rows
        assert rows[0]["count(amount)"] == 5
        assert rows[0]["count(*)"] == 6

    def test_aggregate_uses_index_access_path(self, sales_db):
        # Enough other rows that probing for the 3 widgets beats a scan.
        for amount in range(60):
            sales_db.new("Sale", {"amount": amount, "product": "gizmo"})
        sales_db.create_hierarchy_index("Sale", "product")
        result = sales_db.execute(
            "SELECT COUNT(s) FROM Sale s WHERE s.product = 'widget'"
        )
        assert "index" in result.plan.access.description
        assert result.rows == [{"count(*)": 3}]

    def test_aggregate_path_validated(self, sales_db):
        with pytest.raises(QueryError):
            sales_db.execute("SELECT SUM(s.bogus) FROM Sale s")

    def test_aggregate_through_view(self, sales_db):
        from repro.views import attach

        attach(sales_db)
        sales_db.views.define_view(
            "BigSale", "SELECT s FROM Sale s WHERE s.amount >= 100"
        )
        rows = sales_db.execute(
            "SELECT b.product, COUNT(b) FROM BigSale b GROUP BY b.product"
        ).rows
        assert rows == [{"product": "widget", "count(*)": 3}]


@pytest.fixture
def mixed_db():
    """One ``Any`` attribute holding numbers, bools and a string."""
    db = Database()
    db.define_class("T", attributes=[AttributeDef("a", "Any")])
    return db


class TestMixedValues:
    def test_bools_group_apart_from_numbers(self, mixed_db):
        for value in (1, True, 1.0, False, 0):
            mixed_db.new("T", {"a": value})
        rows = mixed_db.execute("SELECT t.a, COUNT(t) FROM T t GROUP BY t.a").rows
        groups = [(row["a"], type(row["a"]), row["count(*)"]) for row in rows]
        # bools rank below numbers; 1 and 1.0 are one group (1 = 1.0),
        # True is not 1 (WHERE t.a = 1 leaves it out) — nor is False 0.
        assert groups == [(False, bool, 1), (True, bool, 1), (0, int, 1), (1, int, 2)]
        assert len(mixed_db.execute("SELECT t FROM T t WHERE t.a = 1").oids) == 2

    def test_a_list_groups_with_its_first_item(self, mixed_db):
        for value in ([1], 1, ["x"], "x", [True], True, []):
            mixed_db.new("T", {"a": value})
        rows = mixed_db.execute("SELECT t.a, COUNT(t) FROM T t GROUP BY t.a").rows
        groups = [(row["a"], type(row["a"]), row["count(*)"]) for row in rows]
        assert groups == [(True, bool, 2), (1, int, 2), ("x", str, 2), (None, type(None), 1)]

    def test_a_sum_of_strings_names_only_str(self, mixed_db):
        for value in ("a", "b"):
            mixed_db.new("T", {"a": value})
        for fn in ("SUM", "AVG"):
            with pytest.raises(QueryError) as err:
                mixed_db.execute("SELECT %s(t.a) FROM T t" % fn)
            assert str(err.value) == "%s(a): values of type str cannot be summed" % fn.lower()

    @pytest.mark.parametrize(
        "text, words",
        [
            ("SELECT MIN(t.a) FROM T t", ("min(a)", "int", "str", "order")),
            ("SELECT MAX(t.a) FROM T t", ("max(a)", "int", "str", "order")),
            ("SELECT SUM(t.a) FROM T t", ("sum(a)", "int", "str", "added")),
            ("SELECT AVG(t.a) FROM T t", ("avg(a)", "int", "str", "added")),
        ],
    )
    def test_values_with_no_common_order_or_sum_raise_a_query_error(
        self, mixed_db, text, words
    ):
        mixed_db.new("T", {"a": 1})
        mixed_db.new("T", {"a": "x"})
        with pytest.raises(QueryError) as err:
            mixed_db.execute(text)
        assert all(word in str(err.value) for word in words), str(err.value)
        # COUNT folds anything.
        assert mixed_db.execute("SELECT COUNT(t.a) FROM T t").rows == [{"count(a)": 2}]
