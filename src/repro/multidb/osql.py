"""OSQL: an SQL-compatible migration language [BEEC88].

Section 5.2's first migration path: "the development of an object-
oriented SQL which is compatible with SQL".  :func:`translate_sql`
parses a conventional ``SELECT cols FROM name WHERE ...`` statement and
rewrites it into kimdb OQL — the *same* statement therefore runs against
a relational table today and an object class tomorrow.  Dotted column
names in the SQL (``manufacturer.location``) become OQL path
expressions, which is exactly the OSQL extension point: SQL syntax,
object semantics.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..errors import QuerySyntaxError
from ..query.parser import tokenize

_SQL_RE = re.compile(
    r"^\s*select\s+(?P<cols>.+?)\s+from\s+(?P<name>\w+)"
    r"(?:\s+where\s+(?P<where>.+?))?"
    r"(?:\s+order\s+by\s+(?P<order>[\w.]+)(?:\s+(?P<dir>asc|desc))?)?"
    r"(?:\s+limit\s+(?P<limit>\d+))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)

#: The variable OSQL introduces when translating to OQL.
VARIABLE = "x"


class TranslatedQuery:
    """The OQL text plus what it was derived from."""

    __slots__ = ("sql", "oql", "target", "columns")

    def __init__(self, sql: str, oql: str, target: str, columns: Optional[List[str]]) -> None:
        self.sql = sql
        self.oql = oql
        self.target = target
        self.columns = columns

    def __repr__(self) -> str:
        return "<TranslatedQuery %r -> %r>" % (self.sql, self.oql)


def _translate_columns(cols: str) -> Tuple[Optional[List[str]], str]:
    cols = cols.strip()
    if cols == "*":
        return None, VARIABLE
    names = [c.strip() for c in cols.split(",") if c.strip()]
    select_list = ", ".join("%s.%s" % (VARIABLE, name) for name in names)
    return names, select_list


def _translate_where(where: str) -> str:
    """Prefix each column reference with the OQL variable: on OQL's own
    tokens, every name that starts a path and is not called (``f(`` is
    an ADT predicate).  Literals and keywords are left as they are."""
    tokens = tokenize(where)
    out, pos = [], 0
    for before, token, after in zip([None] + tokens, tokens, tokens[1:]):
        starts_path = before is None or before.text != "."
        if token.kind == "name" and starts_path and after.text != "(":
            out.append(where[pos : token.pos] + VARIABLE + ".")
            pos = token.pos
    out.append(where[pos:])
    return "".join(out)


def translate_sql(sql: str, only: bool = False) -> TranslatedQuery:
    """Translate a conventional SQL SELECT into kimdb OQL.

    ``only=True`` restricts evaluation to direct instances (``FROM ONLY``),
    matching SQL's single-relation semantics exactly; the default keeps
    the object reading (hierarchy scope), which is the OSQL upgrade.
    """
    match = _SQL_RE.match(sql)
    if match is None:
        raise QuerySyntaxError("cannot parse SQL statement %r" % (sql,))
    columns, select_list = _translate_columns(match.group("cols"))
    target = match.group("name")
    scope = "ONLY " + target if only else target
    parts = ["SELECT %s FROM %s %s" % (select_list, scope, VARIABLE)]
    where = match.group("where")
    if where:
        parts.append("WHERE " + _translate_where(where.strip()))
    order = match.group("order")
    if order:
        direction = (match.group("dir") or "asc").upper()
        parts.append("ORDER BY %s.%s %s" % (VARIABLE, order, direction))
    limit = match.group("limit")
    if limit:
        parts.append("LIMIT " + limit)
    return TranslatedQuery(sql, " ".join(parts), target, columns)


def run_osql(db, sql: str, only: bool = False):
    """Translate and execute against a kimdb database.

    Returns projected rows (list of dicts) for column selects, or object
    handles for ``SELECT *``.
    """
    translated = translate_sql(sql, only=only)
    result = db.execute(translated.oql)
    if translated.columns is None:
        from ..core.obj import ObjectHandle

        return [ObjectHandle(db, oid) for oid in result.oids]
    # Re-key projection rows by the original SQL column names.
    rows = []
    for row in result.rows or []:
        rows.append(
            {name: row.get(name) for name in translated.columns}
        )
    return rows
