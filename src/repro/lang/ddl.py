"""kimdb DL: the complete database-language surface.

Section 3.1: "A conventional database language consists of three
components (or sublanguages): data definition language for specifying
the schema; query and data manipulation language for querying and
updating the database; and data control language for transaction
management, integrity control, authorization, and resource management.
All these facilities must be provided for object-oriented database
systems."

kimdb DL provides all three over one interpreter:

* **DDL** — ``CREATE CLASS``, ``ALTER CLASS`` (the [BANE87] taxonomy),
  ``DROP/RENAME CLASS``, ``CREATE/DROP INDEX`` (all three kinds),
  ``CREATE/DROP VIEW``;
* **DML** — ``INSERT``, ``UPDATE ... WHERE``, ``DELETE ... WHERE`` and
  ``SELECT`` (delegated to the OQL engine), with ``@n`` OID literals for
  references;
* **DCL** — ``BEGIN`` / ``COMMIT`` / ``ABORT``, ``CHECKPOINT``,
  ``GRANT`` / ``DENY`` (discretionary authorization).

Statements are ``;``-separated; :meth:`Interpreter.run_script` executes
a batch and returns the per-statement results.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.attribute import AttributeDef
from ..core.oid import OID
from ..errors import QuerySyntaxError
from ..evolution.changes import SchemaEvolution

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<float>-?\d+\.\d+)
  | (?P<oid>@\d+)
  | (?P<int>-?\d+)
  | (?P<string>'([^'\\]|\\.)*'|"([^"\\]|\\.)*")
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|<>|<|>|\*)
  | (?P<punct>[(),.\[\]=;:])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text")

    def __init__(self, kind: str, text: str) -> None:
        self.kind = kind
        self.text = text

    def __repr__(self) -> str:
        return "%s(%r)" % (self.kind, self.text)


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QuerySyntaxError(
                "unexpected character %r at position %d" % (text[pos], pos)
            )
        kind = match.lastgroup or ""
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, match.group()))
        pos = match.end()
    tokens.append(_Token("eof", ""))
    return tokens


class StatementResult:
    """Uniform result wrapper: what happened + any payload."""

    __slots__ = ("kind", "detail", "value")

    def __init__(self, kind: str, detail: str = "", value: Any = None) -> None:
        self.kind = kind
        self.detail = detail
        self.value = value

    def __repr__(self) -> str:
        return "<%s %s>" % (self.kind, self.detail)


class Interpreter:
    """Statement interpreter bound to one database."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        self.evolution = SchemaEvolution(db)
        self._txn = None

    # -- public API ---------------------------------------------------------

    def execute(self, statement: str) -> StatementResult:
        """Execute one statement and return its result."""
        self._tokens = _tokenize(statement)
        self._index = 0
        head = self._peek()
        if head.kind != "name":
            raise QuerySyntaxError("statement must start with a keyword")
        dispatch = {
            "create": self._create,
            "alter": self._alter,
            "drop": self._drop,
            "rename": self._rename,
            "insert": self._insert,
            "update": self._update,
            "delete": self._delete,
            "select": self._select,
            "begin": self._begin,
            "commit": self._commit,
            "abort": self._abort,
            "rollback": self._abort,
            "checkpoint": self._checkpoint,
            "grant": lambda: self._grant_or_deny(deny=False),
            "deny": lambda: self._grant_or_deny(deny=True),
            "describe": self._describe,
        }
        handler = dispatch.get(head.text.lower())
        if handler is None:
            raise QuerySyntaxError("unknown statement %r" % (head.text,))
        result = handler()
        self._expect_end()
        return result

    def run_script(self, script: str) -> List[StatementResult]:
        """Execute a ``;``-separated batch (comments with ``--``)."""
        results = []
        for statement in self._split(script):
            if statement.strip():
                results.append(self.execute(statement))
        return results

    @staticmethod
    def _split(script: str) -> List[str]:
        """Split on ';' outside string literals."""
        parts, current, quote = [], [], None
        for char in script:
            if quote:
                current.append(char)
                if char == quote:
                    quote = None
            elif char in "'\"":
                quote = char
                current.append(char)
            elif char == ";":
                parts.append("".join(current))
                current = []
            else:
                current.append(char)
        parts.append("".join(current))
        return parts

    # -- token helpers ---------------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _accept_kw(self, *words: str) -> Optional[str]:
        token = self._peek()
        if token.kind == "name" and token.text.lower() in words:
            self._advance()
            return token.text.lower()
        return None

    def _expect_kw(self, word: str) -> None:
        if self._accept_kw(word) is None:
            raise QuerySyntaxError(
                "expected %r, found %r" % (word.upper(), self._peek().text)
            )

    def _expect_name(self) -> str:
        token = self._peek()
        if token.kind != "name":
            raise QuerySyntaxError("expected a name, found %r" % (token.text,))
        return self._advance().text

    def _accept_punct(self, text: str) -> bool:
        token = self._peek()
        if token.kind == "punct" and token.text == text:
            self._advance()
            return True
        return False

    def _expect_punct(self, text: str) -> None:
        if not self._accept_punct(text):
            raise QuerySyntaxError(
                "expected %r, found %r" % (text, self._peek().text)
            )

    def _expect_end(self) -> None:
        self._accept_punct(";")
        if self._peek().kind != "eof":
            raise QuerySyntaxError(
                "unexpected trailing input at %r" % (self._peek().text,)
            )

    def _literal(self) -> Any:
        token = self._peek()
        if token.kind == "int":
            self._advance()
            return int(token.text)
        if token.kind == "float":
            self._advance()
            return float(token.text)
        if token.kind == "oid":
            self._advance()
            return OID(int(token.text[1:]))
        if token.kind == "string":
            self._advance()
            return token.text[1:-1].replace("\\'", "'").replace('\\"', '"')
        if token.kind == "name" and token.text.lower() in ("true", "false", "null"):
            self._advance()
            return {"true": True, "false": False, "null": None}[token.text.lower()]
        if self._accept_punct("["):
            values = []
            if not self._accept_punct("]"):
                values.append(self._literal())
                while self._accept_punct(","):
                    values.append(self._literal())
                self._expect_punct("]")
            return values
        raise QuerySyntaxError("expected a literal, found %r" % (token.text,))

    # -- DDL --------------------------------------------------------------------

    def _attribute_def(self) -> AttributeDef:
        name = self._expect_name()
        domain = self._expect_name()
        kwargs: Dict[str, Any] = {}
        while True:
            word = self._accept_kw(
                "multi", "required", "default", "composite", "exclusive", "dependent"
            )
            if word is None:
                break
            if word == "default":
                kwargs["default"] = self._literal()
            else:
                kwargs[word] = True
        return AttributeDef(name, domain, **kwargs)

    def _create(self) -> StatementResult:
        self._expect_kw("create")
        kind = self._accept_kw("class", "index", "view")
        if kind == "class":
            return self._create_class()
        if kind == "index":
            return self._create_index()
        if kind == "view":
            return self._create_view()
        raise QuerySyntaxError("CREATE expects CLASS, INDEX or VIEW")

    def _create_class(self) -> StatementResult:
        name = self._expect_name()
        supers = ["Object"]
        if self._accept_kw("under"):
            supers = [self._expect_name()]
            while self._accept_punct(","):
                supers.append(self._expect_name())
        attributes = []
        if self._accept_punct("("):
            if not self._accept_punct(")"):
                attributes.append(self._attribute_def())
                while self._accept_punct(","):
                    attributes.append(self._attribute_def())
                self._expect_punct(")")
        abstract = self._accept_kw("abstract") is not None
        self.db.define_class(
            name, superclasses=supers, attributes=attributes, abstract=abstract
        )
        return StatementResult("class-created", name)

    def _create_index(self) -> StatementResult:
        explicit_name = None
        if not self._accept_kw("on"):
            explicit_name = self._expect_name()
            self._expect_kw("on")
        class_name = self._expect_name()
        self._expect_punct("(")
        path = [self._expect_name()]
        while self._accept_punct("."):
            path.append(self._expect_name())
        self._expect_punct(")")
        scope = self._accept_kw("hierarchy", "class") or "hierarchy"
        if len(path) > 1:
            index = self.db.create_nested_index(class_name, path, explicit_name)
        elif scope == "class":
            index = self.db.create_class_index(class_name, path[0], explicit_name)
        else:
            index = self.db.create_hierarchy_index(class_name, path[0], explicit_name)
        return StatementResult("index-created", index.name, index)

    def _create_view(self) -> StatementResult:
        if self.db.views is None:
            raise QuerySyntaxError("views are not attached to this database")
        name = self._expect_name()
        self._expect_kw("as")
        # Everything after AS is the view's OQL text.
        rest = self._remaining_text()
        view = self.db.views.define_view(name, rest)
        return StatementResult("view-created", view.name, view)

    def _remaining_text(self) -> str:
        """Consume the rest of the statement as raw text (for OQL)."""
        parts: List[str] = []
        while self._peek().kind != "eof":
            token = self._advance()
            if token.kind == "punct" and token.text == ";":
                break
            parts.append(token.text)
        return self._join_tokens(parts)

    @staticmethod
    def _join_tokens(parts: List[str]) -> str:
        """Re-assemble token texts, keeping dotted paths glued together."""
        out: List[str] = []
        for text in parts:
            if text == "." or (out and out[-1].endswith(".")):
                if out:
                    out[-1] += text
                else:
                    out.append(text)
            else:
                out.append(text)
        return " ".join(out)

    def _alter(self) -> StatementResult:
        self._expect_kw("alter")
        self._expect_kw("class")
        class_name = self._expect_name()
        action = self._accept_kw("add", "drop", "rename")
        if action == "add":
            what = self._accept_kw("attribute", "superclass")
            if what == "attribute":
                attr = self._attribute_def()
                self.evolution.add_attribute(class_name, attr)
                return StatementResult("attribute-added", "%s.%s" % (class_name, attr.name))
            if what == "superclass":
                superclass = self._expect_name()
                self.evolution.add_superclass(class_name, superclass)
                return StatementResult("superclass-added", superclass)
        elif action == "drop":
            what = self._accept_kw("attribute", "superclass")
            if what == "attribute":
                attr_name = self._expect_name()
                self.evolution.drop_attribute(class_name, attr_name)
                return StatementResult("attribute-dropped", attr_name)
            if what == "superclass":
                superclass = self._expect_name()
                self.evolution.drop_superclass(class_name, superclass)
                return StatementResult("superclass-dropped", superclass)
        elif action == "rename":
            self._expect_kw("attribute")
            old = self._expect_name()
            self._expect_kw("to")
            new = self._expect_name()
            count = self.evolution.rename_attribute(class_name, old, new)
            return StatementResult("attribute-renamed", "%s -> %s" % (old, new), count)
        raise QuerySyntaxError("ALTER CLASS expects ADD/DROP/RENAME")

    def _drop(self) -> StatementResult:
        self._expect_kw("drop")
        kind = self._accept_kw("class", "index", "view")
        if kind == "class":
            name = self._expect_name()
            migrate_to = None
            if self._accept_kw("migrate"):
                self._expect_kw("to")
                migrate_to = self._expect_name()
            count = self.evolution.drop_class(name, migrate_to)
            return StatementResult("class-dropped", name, count)
        if kind == "index":
            name = self._expect_name()
            self.db.indexes.drop_index(name)
            return StatementResult("index-dropped", name)
        if kind == "view":
            if self.db.views is None:
                raise QuerySyntaxError("views are not attached to this database")
            name = self._expect_name()
            self.db.views.drop_view(name)
            return StatementResult("view-dropped", name)
        raise QuerySyntaxError("DROP expects CLASS, INDEX or VIEW")

    def _rename(self) -> StatementResult:
        self._expect_kw("rename")
        self._expect_kw("class")
        old = self._expect_name()
        self._expect_kw("to")
        new = self._expect_name()
        count = self.evolution.rename_class(old, new)
        return StatementResult("class-renamed", "%s -> %s" % (old, new), count)

    # -- DML --------------------------------------------------------------------

    def _assignments(self) -> Dict[str, Any]:
        values: Dict[str, Any] = {}
        while True:
            name = self._expect_name()
            self._expect_punct("=")
            values[name] = self._literal()
            if not self._accept_punct(","):
                break
        return values

    def _insert(self) -> StatementResult:
        self._expect_kw("insert")
        self._accept_kw("into")
        class_name = self._expect_name()
        values: Dict[str, Any] = {}
        if self._accept_kw("set"):
            values = self._assignments()
        handle = self.db.new(class_name, values)
        return StatementResult("inserted", repr(handle.oid), handle)

    def _where_tail(self, class_name: str, variable: str = "x") -> List[OID]:
        """Parse an optional WHERE tail by delegating to the OQL engine."""
        rest = self._remaining_text()
        query = "SELECT %s FROM %s %s" % (variable, class_name, variable)
        if rest:
            query += " " + self._requalify(rest, variable)
        return [h.oid for h in self.db.select(query)]

    @staticmethod
    def _requalify(where_text: str, variable: str) -> str:
        """Prefix bare identifiers in a WHERE tail with the variable."""
        keywords = {
            "where", "and", "or", "not", "in", "like", "null", "true",
            "false", "contains", "order", "by", "asc", "desc", "limit",
        }
        token_re = re.compile(r"'[^']*'|\"[^\"]*\"|[A-Za-z_][\w.]*|\S")
        out, pos = [], 0
        for match in token_re.finditer(where_text):
            out.append(where_text[pos : match.start()])
            token = match.group()
            if (
                (token[0].isalpha() or token[0] == "_")
                and token.lower() not in keywords
                and not token.startswith(variable + ".")
            ):
                out.append("%s.%s" % (variable, token))
            else:
                out.append(token)
            pos = match.end()
        out.append(where_text[pos:])
        return "".join(out)

    def _update(self) -> StatementResult:
        self._expect_kw("update")
        class_name = self._expect_name()
        self._expect_kw("set")
        changes = self._assignments()
        oids = self._where_tail(class_name)
        for oid in oids:
            self.db.update(oid, dict(changes))
        return StatementResult("updated", "%d objects" % len(oids), len(oids))

    def _delete(self) -> StatementResult:
        self._expect_kw("delete")
        self._accept_kw("from")
        class_name = self._expect_name()
        oids = self._where_tail(class_name)
        for oid in oids:
            self.db.delete(oid)
        return StatementResult("deleted", "%d objects" % len(oids), len(oids))

    def _select(self) -> StatementResult:
        # The whole statement is OQL; re-assemble and delegate.
        text = self._statement_text()
        result = self.db.execute(text)
        self._index = len(self._tokens) - 1  # consume everything
        if result.rows is not None:
            return StatementResult("rows", "%d rows" % len(result.rows), result.rows)
        handles = [self.db.get(oid) for oid in result.oids]
        return StatementResult("objects", "%d objects" % len(handles), handles)

    def _statement_text(self) -> str:
        parts = []
        for token in self._tokens[self._index : -1]:
            if token.kind == "punct" and token.text == ";":
                break
            parts.append(token.text)
        return self._join_tokens(parts)

    # -- DCL --------------------------------------------------------------------

    def _begin(self) -> StatementResult:
        self._expect_kw("begin")
        self._accept_kw("transaction")
        self._txn = self.db.transaction()
        return StatementResult("transaction-started", str(self._txn.txn_id))

    def _commit(self) -> StatementResult:
        self._expect_kw("commit")
        if self._txn is None or not self._txn.is_active:
            raise QuerySyntaxError("no active transaction")
        self._txn.commit()
        self._txn = None
        return StatementResult("committed")

    def _abort(self) -> StatementResult:
        self._accept_kw("abort", "rollback")
        if self._txn is None or not self._txn.is_active:
            raise QuerySyntaxError("no active transaction")
        self._txn.abort()
        self._txn = None
        return StatementResult("aborted")

    def _checkpoint(self) -> StatementResult:
        self._expect_kw("checkpoint")
        self.db.checkpoint()
        return StatementResult("checkpointed")

    def _grant_or_deny(self, deny: bool) -> StatementResult:
        self._accept_kw("grant", "deny")
        if self.db.authz is None:
            raise QuerySyntaxError("authorization is not attached to this database")
        action = self._expect_name().lower()
        self._expect_kw("on")
        resource: Any = self._expect_name()
        if resource.lower() == "database":
            resource = "database"
        self._expect_kw("to")
        role = self._expect_name()
        if deny:
            self.db.authz.deny(role, action, resource)
            return StatementResult("denied", "%s on %s to %s" % (action, resource, role))
        self.db.authz.grant(role, action, resource)
        return StatementResult("granted", "%s on %s to %s" % (action, resource, role))

    # -- introspection ---------------------------------------------------------------

    def _describe(self) -> StatementResult:
        self._expect_kw("describe")
        name = self._expect_name()
        return StatementResult("description", name, describe_class(self.db, name))


def describe_class(db: "Database", class_name: str) -> str:
    """``DESCRIBE``'s text: superclasses, MRO, attributes with provenance,
    methods, direct extent size and covering indexes.  The schema
    browser (:mod:`repro.tools.browser`) shows the same text."""
    cls = db.schema.get_class(class_name)
    lines = ["class %s" % class_name]
    if cls.doc:
        lines.append("  doc: %s" % cls.doc)
    lines.append("  superclasses: %s" % (", ".join(cls.superclasses) or "(root)"))
    lines.append("  mro: %s" % " -> ".join(db.schema.mro(class_name)))
    if cls.abstract:
        lines.append("  abstract")
    lines.append("  attributes:")
    for name, attr in sorted(db.schema.attributes(class_name).items()):
        flags = []
        if attr.multi:
            flags.append("multi")
        if attr.required:
            flags.append("required")
        if attr.composite:
            flags.append(
                "composite(%s%s)"
                % ("exclusive" if attr.exclusive else "shared",
                   ", dependent" if attr.dependent else "")
            )
        origin = "" if attr.defined_in == class_name else "  [from %s]" % attr.defined_in
        lines.append(
            "    %-16s %-14s %s%s"
            % (name, attr.domain, " ".join(flags), origin)
        )
    methods = db.schema.methods(class_name)
    if methods:
        lines.append("  methods:")
        for name, meth in sorted(methods.items()):
            origin = "" if meth.defined_in == class_name else "  [from %s]" % meth.defined_in
            lines.append("    %s()%s" % (name, origin))
    lines.append("  direct extent: %d objects" % db.storage.count_class(class_name))
    covering = [
        index.name
        for index in db.indexes.all_indexes()
        if class_name in index.maintained_classes()
    ]
    if covering:
        lines.append("  indexes: %s" % ", ".join(covering))
    return "\n".join(lines)
