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

One front end with OQL: literals are read with OQL's own grammar, a
``SELECT`` or a view's query is handed to OQL as a slice of the
statement's source, and a ``WHERE`` tail runs as the OQL shorthand
``Class where ...`` (bare paths, ``it.m()`` for a method call).  A
statement is read in full before it acts.  Statements are
``;``-separated; :meth:`Interpreter.run_script` executes a batch and
returns the per-statement results.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional

from ..core.attribute import AttributeDef
from ..core.oid import OID
from ..errors import QuerySyntaxError
from ..evolution.changes import SchemaEvolution
from ..query.parser import LITERALS, STRING, string_value

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database

#: OQL's literals and strings, plus the DL's own ``@n`` OIDs, ``--``
#: comments and ``;``.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | %s
  | (?P<oid>@\d+)
  | %s
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|<>|<|>|\*)
  | (?P<punct>[(),.\[\]=;:])
    """
    % (LITERALS, STRING),
    re.VERBOSE,
)

#: A string literal (kept) or a comment (blanked) in OQL text.
_COMMENT_RE = re.compile(r"%s|--[^\n]*" % STRING)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


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
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    tokens.append(_Token("eof", "", pos))
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
        """Execute one statement and return its result.  Each handler
        reads the whole statement before it acts, so a statement that
        raises a syntax error has changed nothing."""
        self._source = statement
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
            "commit": self._end_txn,
            "abort": self._end_txn,
            "rollback": self._end_txn,
            "checkpoint": self._checkpoint,
            "grant": lambda: self._grant_or_deny(deny=False),
            "deny": lambda: self._grant_or_deny(deny=True),
            "describe": self._describe,
        }
        handler = dispatch.get(head.text.lower())
        if handler is None:
            raise QuerySyntaxError("unknown statement %r" % (head.text,))
        return handler()

    def run_script(self, script: str) -> List[StatementResult]:
        """Execute a ``;``-separated batch (comments with ``--``).  The
        whole script is lexed first: a lex error anywhere runs nothing."""
        results: List[StatementResult] = []
        start, empty = 0, True
        for token in _tokenize(script):
            if token.kind == "eof" or token.text == ";":
                if not empty:
                    results.append(self.execute(script[start : token.pos]))
                start, empty = token.pos + 1, True
            else:
                empty = False
        return results

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
        """The statement ends here: called before it acts."""
        self._accept_punct(";")
        if self._peek().kind != "eof":
            raise QuerySyntaxError(
                "unexpected trailing input at %r" % (self._peek().text,)
            )

    def _oql_text(self) -> str:
        """The rest of the statement, up to ``;``, as OQL: a slice of the
        statement's own source (so OQL's carets point into it), with its
        comments blanked."""
        start = end = self._peek().pos
        while self._peek().kind != "eof" and self._peek().text != ";":
            token = self._advance()
            end = token.pos + len(token.text)
        return _COMMENT_RE.sub(
            lambda m: m.group() if m.lastgroup else " " * len(m.group()),
            self._source[start:end],
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
            return string_value(token.text)
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
        self._expect_end()
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
        self._expect_end()
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
        text = self._oql_text()
        self._expect_end()
        view = self.db.views.define_view(name, text)
        return StatementResult("view-created", view.name, view)

    def _alter(self) -> StatementResult:
        self._expect_kw("alter")
        self._expect_kw("class")
        class_name = self._expect_name()
        action = self._accept_kw("add", "drop", "rename")
        if action == "add":
            what = self._accept_kw("attribute", "superclass")
            if what == "attribute":
                attr = self._attribute_def()
                self._expect_end()
                self.evolution.add_attribute(class_name, attr)
                return StatementResult("attribute-added", "%s.%s" % (class_name, attr.name))
            if what == "superclass":
                superclass = self._expect_name()
                self._expect_end()
                self.evolution.add_superclass(class_name, superclass)
                return StatementResult("superclass-added", superclass)
        elif action == "drop":
            what = self._accept_kw("attribute", "superclass")
            if what == "attribute":
                attr_name = self._expect_name()
                self._expect_end()
                self.evolution.drop_attribute(class_name, attr_name)
                return StatementResult("attribute-dropped", attr_name)
            if what == "superclass":
                superclass = self._expect_name()
                self._expect_end()
                self.evolution.drop_superclass(class_name, superclass)
                return StatementResult("superclass-dropped", superclass)
        elif action == "rename":
            self._expect_kw("attribute")
            old = self._expect_name()
            self._expect_kw("to")
            new = self._expect_name()
            self._expect_end()
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
            self._expect_end()
            count = self.evolution.drop_class(name, migrate_to)
            return StatementResult("class-dropped", name, count)
        if kind == "index":
            name = self._expect_name()
            self._expect_end()
            self.db.indexes.drop_index(name)
            return StatementResult("index-dropped", name)
        if kind == "view":
            if self.db.views is None:
                raise QuerySyntaxError("views are not attached to this database")
            name = self._expect_name()
            self._expect_end()
            self.db.views.drop_view(name)
            return StatementResult("view-dropped", name)
        raise QuerySyntaxError("DROP expects CLASS, INDEX or VIEW")

    def _rename(self) -> StatementResult:
        self._expect_kw("rename")
        self._expect_kw("class")
        old = self._expect_name()
        self._expect_kw("to")
        new = self._expect_name()
        self._expect_end()
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
        self._expect_end()
        handle = self.db.new(class_name, values)
        return StatementResult("inserted", repr(handle.oid), handle)

    def _where_tail(self, class_name: str, act: Callable[[OID], Any]) -> int:
        """Run ``act(oid)`` on each match of an optional WHERE tail, read
        as the OQL shorthand ``Class where ...``, in one transaction (an
        explicit BEGIN joins it): every match changes, or none does."""
        query = class_name + " " + self._oql_text()
        self._expect_end()
        with self.db._auto_txn():
            oids = self.db.execute(query).oids
            for oid in oids:
                act(oid)
        return len(oids)

    def _update(self) -> StatementResult:
        self._expect_kw("update")
        class_name = self._expect_name()
        self._expect_kw("set")
        changes = self._assignments()
        count = self._where_tail(
            class_name, lambda oid: self.db.update(oid, dict(changes))
        )
        return StatementResult("updated", "%d objects" % count, count)

    def _delete(self) -> StatementResult:
        self._expect_kw("delete")
        self._accept_kw("from")
        count = self._where_tail(self._expect_name(), self.db.delete)
        return StatementResult("deleted", "%d objects" % count, count)

    def _select(self) -> StatementResult:
        text = self._oql_text()
        self._expect_end()
        result = self.db.execute(text)
        if result.rows is not None:
            return StatementResult("rows", "%d rows" % len(result.rows), result.rows)
        handles = [self.db.get(oid) for oid in result.oids]
        return StatementResult("objects", "%d objects" % len(handles), handles)

    # -- DCL --------------------------------------------------------------------

    def _begin(self) -> StatementResult:
        self._expect_kw("begin")
        self._accept_kw("transaction")
        self._expect_end()
        self._txn = self.db.transaction()
        return StatementResult("transaction-started", str(self._txn.txn_id))

    def _end_txn(self) -> StatementResult:
        word = self._accept_kw("commit", "abort", "rollback")
        self._expect_end()
        if self._txn is None or not self._txn.is_active:
            raise QuerySyntaxError("no active transaction")
        if word == "commit":
            self._txn.commit()
        else:
            self._txn.abort()
        self._txn = None
        return StatementResult("committed" if word == "commit" else "aborted")

    def _checkpoint(self) -> StatementResult:
        self._expect_kw("checkpoint")
        self._expect_end()
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
        self._expect_end()
        if deny:
            self.db.authz.deny(role, action, resource)
            return StatementResult("denied", "%s on %s to %s" % (action, resource, role))
        self.db.authz.grant(role, action, resource)
        return StatementResult("granted", "%s on %s to %s" % (action, resource, role))

    # -- introspection ---------------------------------------------------------------

    def _describe(self) -> StatementResult:
        self._expect_kw("describe")
        name = self._expect_name()
        self._expect_end()
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
