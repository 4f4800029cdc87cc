"""OQL: the declarative query language surface.

A small SQL-flavoured language over the object model, in the spirit of
the declarative languages the paper cites for ORION, EXTRA/EXCESS and O2::

    SELECT v FROM Vehicle v
    WHERE v.weight > 7500 AND v.manufacturer.location = "Detroit"

Scope control:  ``FROM Vehicle v`` evaluates over the class hierarchy
rooted at Vehicle (the paper's generalization reading); ``FROM ONLY
Vehicle v`` restricts to direct instances.  Projections (``SELECT v.name,
v.weight``), method predicates (``v.age() > 10``), ADT predicates
(``overlaps(r.shape, [0, 0, 4, 4])``), ``ORDER BY`` and ``LIMIT`` are
supported.

A *shorthand* form drops the SELECT/FROM preamble for interactive use
(system views especially)::

    SysWaitEvent where kind = 'Lock' order by total_wait desc limit 10

is parsed as ``SELECT it FROM SysWaitEvent it WHERE it.kind = ... ``:
an implicit variable is bound and bare attribute paths resolve against
it.
"""

from __future__ import annotations

import functools
import re
from typing import Any, List, Optional, Pattern, Tuple

from ..analysis.diagnostics import SourceSpan
from ..errors import QuerySyntaxError
from .ast import (
    AGGREGATE_FNS,
    AdtPredicate,
    Aggregate,
    And,
    Comparison,
    Const,
    Expr,
    MethodCall,
    Not,
    Or,
    Path,
    Query,
)

#: The literal token patterns, shared by the tokenizer, the lifter
#: (:func:`lift_literals`) and the DL lexer, so all agree on a literal.
LITERALS = r"""
    (?P<float>-?\d+\.\d+(?:[eE][+-]?\d+)?)
  | (?P<int>-?\d+)
"""
STRING = r"""(?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")"""

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | %s
  | %s
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[(),.\[\]*])
    """
    % (LITERALS, STRING),
    re.VERBOSE,
)

_KEYWORDS = {
    "select",
    "from",
    "only",
    "where",
    "and",
    "or",
    "not",
    "in",
    "like",
    "contains",
    "order",
    "group",
    "by",
    "asc",
    "desc",
    "limit",
    "true",
    "false",
    "null",
}


def string_value(text: str) -> str:
    """The value of a string literal token (quotes stripped, unescaped)."""
    body = text[1:-1]
    return body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")


@functools.lru_cache(maxsize=None)
def _lift_re() -> Pattern[str]:
    """The literal tokens a query's shape lifts out: numbers not glued to
    a name (``v2`` is a name), and strings, with the tokenizer's own
    patterns; a LIMIT count is matched too, and kept.  The lookahead lets
    the scan skip every other character cheaply.  Compiled at first use:
    a program that runs no query text pays nothing for it."""
    return re.compile(
        r"""
        (?=[-\d'"lL])
        (?:
            (?P<limit>\b[lL][iI][mM][iI][tT]\s+-?\d+)
          | (?<![A-Za-z_0-9])(?:%s)
          | %s
        )
        """
        % (LITERALS, STRING),
        re.VERBOSE,
    )

#: Decoder and slot marker per lifted kind.  ``?`` cannot occur in a
#: query outside a string literal, so a slot never collides with text.
_LIFTED = {
    "int": (int, "?int"),
    "float": (float, "?float"),
    "string": (string_value, "?str"),
}


def lift_literals(text: str) -> Optional[Tuple[str, List[Any]]]:
    """``(shape key, literals)`` of a query text, literals in source order.

    The shape key is the text with every int, float and string literal
    replaced by a slot naming its kind.  A LIMIT count stays in it (it
    is part of the plan), and ``true``/``false``/``null`` are keywords,
    so they stay too.  Two texts with one key that parse, parse to the
    same tree except for the values of those literals.  None when the
    text holds a ``?`` outside a string (it cannot parse).  One regex
    pass: this runs before every template lookup.
    """
    values: List[Any] = []

    def lift(match: Any) -> str:
        kind = match.lastgroup
        if kind == "limit":
            return match.group()
        decode, slot = _LIFTED[kind]
        values.append(decode(match.group()))
        return slot

    key = _lift_re().sub(lift, text)
    if key.count("?") != len(values):
        return None
    return key, values


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind
        self.text = text
        self.pos = pos

    @property
    def end(self) -> int:
        return self.pos + len(self.text)

    def __repr__(self) -> str:
        return "%s(%r)" % (self.kind, self.text)


def tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QuerySyntaxError(
                "unexpected character %r at position %d" % (text[pos], pos),
                source=text,
                pos=pos,
            )
        kind = match.lastgroup or ""
        value = match.group()
        pos = match.end()
        if kind == "ws":
            continue
        if kind == "name" and value.lower() in _KEYWORDS:
            tokens.append(_Token("kw", value.lower(), match.start()))
        else:
            tokens.append(_Token(kind, value, match.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    #: Variable bound by the shorthand form (``Class where ...``).
    IMPLICIT_VARIABLE = "it"

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        self.variable: Optional[str] = None
        #: Shorthand mode: bare paths resolve against the implicit variable.
        self._implicit = False
        self._group_select_paths: List[Path] = []
        #: Span of the most recently parsed dotted name.
        self._dotted_span: Optional[SourceSpan] = None

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.index]

    def _advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def _expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self._peek()
        if token.kind != kind or (text is not None and token.text != text):
            raise QuerySyntaxError(
                "expected %s%s at position %d, found %r"
                % (kind, " %r" % text if text else "", token.pos, token.text),
                source=self.text,
                pos=token.pos,
                width=max(1, len(token.text)),
            )
        return self._advance()

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        token = self._peek()
        if token.kind == kind and (text is None or token.text == text):
            return self._advance()
        return None

    def _prev_end(self) -> int:
        """End offset of the token just consumed (for span closing)."""
        return self.tokens[self.index - 1].end

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Query:
        if self._peek().kind == "name":
            return self._parse_shorthand()
        self._expect("kw", "select")
        select_items = self._parse_select_list()
        self._expect("kw", "from")
        hierarchy = self._accept("kw", "only") is None
        target_token = self._expect("name")
        target = target_token.text
        self.variable = self._expect("name").text

        projections, aggregates = self._resolve_select_items(select_items)

        where: Optional[Expr] = None
        if self._accept("kw", "where"):
            where = self._parse_or()

        group_by: Optional[Path] = None
        if self._accept("kw", "group"):
            self._expect("kw", "by")
            group_by = self._parse_path()
        for plain in getattr(self, "_group_select_paths", []):
            if group_by is None or plain != group_by:
                span = plain.span
                raise QuerySyntaxError(
                    "select item %r must match the GROUP BY path" % plain.dotted(),
                    source=self.text,
                    pos=span.start if span else None,
                    width=len(span) if span else 1,
                )

        order_by: Optional[Path] = None
        descending = False
        if self._accept("kw", "order"):
            self._expect("kw", "by")
            order_by = self._parse_path()
            if self._accept("kw", "desc"):
                descending = True
            else:
                self._accept("kw", "asc")

        limit = self._parse_limit()

        self._expect("eof")
        query = Query(
            target_class=target,
            variable=self.variable,
            where=where,
            hierarchy=hierarchy,
            projections=projections,
            order_by=order_by,
            descending=descending,
            limit=limit,
            aggregates=aggregates,
            group_by=group_by,
        )
        query.span = SourceSpan(target_token.pos, target_token.end)
        return query

    def _parse_shorthand(self) -> Query:
        """``Class [where ...] [order by ...] [limit N]`` — whole-object
        select over the hierarchy, with an implicit variable."""
        target_token = self._expect("name")
        self.variable = self.IMPLICIT_VARIABLE
        self._implicit = True

        where: Optional[Expr] = None
        if self._accept("kw", "where"):
            where = self._parse_or()

        order_by: Optional[Path] = None
        descending = False
        if self._accept("kw", "order"):
            self._expect("kw", "by")
            order_by = self._parse_path()
            if self._accept("kw", "desc"):
                descending = True
            else:
                self._accept("kw", "asc")

        limit = self._parse_limit()

        self._expect("eof")
        query = Query(
            target_class=target_token.text,
            variable=self.variable,
            where=where,
            hierarchy=True,
            projections=None,
            order_by=order_by,
            descending=descending,
            limit=limit,
            aggregates=None,
            group_by=None,
        )
        query.span = SourceSpan(target_token.pos, target_token.end)
        return query

    def _parse_limit(self) -> Optional[int]:
        if not self._accept("kw", "limit"):
            return None
        token = self._expect("int")
        limit = int(token.text)
        if limit < 0:
            raise QuerySyntaxError(
                "LIMIT must be non-negative",
                source=self.text,
                pos=token.pos,
                width=len(token.text),
            )
        return limit

    def _parse_select_list(self) -> List[tuple]:
        """Raw select items: ('path', dotted) or ('agg', fn, dotted|None).

        Names are resolved against the variable after FROM is parsed.
        """
        items = [self._parse_select_item()]
        while self._accept("punct", ","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> tuple:
        token = self._peek()
        if (
            token.kind == "name"
            and token.text.lower() in AGGREGATE_FNS
            and self.tokens[self.index + 1].kind == "punct"
            and self.tokens[self.index + 1].text == "("
        ):
            fn = self._advance().text
            self._expect("punct", "(")
            if self._accept("punct", "*"):
                inner: Optional[List[str]] = None
                inner_span = None
            else:
                inner = self._parse_dotted()
                inner_span = self._dotted_span
            self._expect("punct", ")")
            return ("agg", fn, inner, SourceSpan(token.pos, self._prev_end()), inner_span)
        parts = self._parse_dotted()
        return ("path", parts, self._dotted_span)

    def _parse_dotted(self) -> List[str]:
        start = self._peek().pos
        if self._accept("punct", "*"):
            self._dotted_span = SourceSpan(start, self._prev_end())
            return ["*"]
        parts = [self._expect("name").text]
        while self._accept("punct", "."):
            parts.append(self._expect("name").text)
        self._dotted_span = SourceSpan(start, self._prev_end())
        return parts

    def _resolve_select_items(self, items: List[tuple]):
        """Split raw select items into (projections, aggregates)."""
        aggregates = [item for item in items if item[0] == "agg"]
        paths = [(item[1], item[2]) for item in items if item[0] == "path"]
        if aggregates:
            resolved = []
            for _tag, fn, inner, span, inner_span in aggregates:
                if inner is None or inner == [self.variable]:
                    aggregate = Aggregate(fn, None)
                else:
                    aggregate = Aggregate(fn, self._to_path(inner, inner_span))
                aggregate.span = span
                resolved.append(aggregate)
            # Plain paths next to aggregates must match GROUP BY; checked
            # after the GROUP BY clause is parsed.
            self._group_select_paths = [
                self._to_path(parts, span) for parts, span in paths
            ]
            return None, resolved
        # "SELECT v" or "SELECT *" -> whole objects; otherwise projections.
        if len(paths) == 1 and paths[0][0] in ([self.variable], ["*"]):
            return None, None
        projections = []
        for parts, span in paths:
            if parts == ["*"]:
                raise QuerySyntaxError(
                    "* cannot be combined with projections",
                    source=self.text,
                    pos=span.start if span else None,
                )
            projections.append(self._to_path(parts, span))
        return projections, None

    def _to_path(self, item: List[str], span: Optional[SourceSpan] = None) -> Path:
        if item[0] != self.variable:
            raise QuerySyntaxError(
                "select item %r does not start with variable %r"
                % (".".join(item), self.variable),
                source=self.text,
                pos=span.start if span else None,
                width=len(span) if span else 1,
            )
        if len(item) == 1:
            raise QuerySyntaxError(
                "bare variable cannot appear in a projection list",
                source=self.text,
                pos=span.start if span else None,
            )
        path = Path(item[1:])
        path.span = span
        return path

    def _parse_or(self) -> Expr:
        operands = [self._parse_and()]
        while self._accept("kw", "or"):
            operands.append(self._parse_and())
        return operands[0] if len(operands) == 1 else Or(operands)

    def _parse_and(self) -> Expr:
        operands = [self._parse_not()]
        while self._accept("kw", "and"):
            operands.append(self._parse_not())
        return operands[0] if len(operands) == 1 else And(operands)

    def _parse_not(self) -> Expr:
        if self._accept("kw", "not"):
            return Not(self._parse_not())
        if self._accept("punct", "("):
            inner = self._parse_or()
            self._expect("punct", ")")
            return inner
        return self._parse_predicate()

    def _parse_path(self) -> Path:
        parts = self._parse_dotted()
        span = self._dotted_span
        if parts[0] != self.variable:
            if self._implicit:
                # Shorthand: a bare path is relative to the implicit variable.
                path = Path(parts)
                path.span = span
                return path
            raise QuerySyntaxError(
                "path %r does not start with variable %r"
                % (".".join(parts), self.variable),
                source=self.text,
                pos=span.start if span else None,
                width=len(span) if span else 1,
            )
        if len(parts) == 1:
            raise QuerySyntaxError(
                "a path needs at least one attribute",
                source=self.text,
                pos=span.start if span else None,
            )
        path = Path(parts[1:])
        path.span = span
        return path

    def _parse_predicate(self) -> Expr:
        token = self._peek()
        if token.kind != "name":
            raise QuerySyntaxError(
                "expected a predicate at position %d, found %r"
                % (token.pos, token.text),
                source=self.text,
                pos=token.pos,
                width=max(1, len(token.text)),
            )
        start = token.pos
        # ADT predicate: name '(' path, literals ')'
        if token.text != self.variable:
            if not self._implicit:
                return self._parse_adt_predicate()
            # Shorthand: only `name(` opens an ADT predicate; a bare
            # name is a path off the implicit variable.
            follower = self.tokens[self.index + 1]
            if follower.kind == "punct" and follower.text == "(":
                return self._parse_adt_predicate()
        parts = self._parse_dotted()
        path_span = self._dotted_span
        if self._accept("punct", "("):
            if parts[0] != self.variable:
                parts = [self.variable] + parts
            call = self._parse_method_call(parts)
            call.span = SourceSpan(start, self._prev_end())
            return call
        if parts[0] != self.variable:
            if self._implicit:
                path = Path(parts)
                path.span = path_span
                comparison = self._parse_comparison_tail(path)
                comparison.span = SourceSpan(start, self._prev_end())
                return comparison
            raise QuerySyntaxError(
                "predicate path %r must start with %r"
                % (".".join(parts), self.variable),
                source=self.text,
                pos=start,
                width=len(path_span) if path_span else 1,
            )
        if len(parts) == 1:
            raise QuerySyntaxError(
                "predicate path %r must start with %r"
                % (".".join(parts), self.variable),
                source=self.text,
                pos=start,
                width=len(path_span) if path_span else 1,
            )
        path = Path(parts[1:])
        path.span = path_span
        comparison = self._parse_comparison_tail(path)
        comparison.span = SourceSpan(start, self._prev_end())
        return comparison

    def _parse_comparison_tail(self, path: Path) -> Expr:
        if self._accept("kw", "like"):
            literal = self._parse_literal()
            return Comparison("like", path, Const(literal))
        if self._accept("kw", "contains"):
            literal = self._parse_literal()
            return Comparison("contains", path, Const(literal))
        if self._accept("kw", "in"):
            self._expect("punct", "(")
            values = [self._parse_literal()]
            while self._accept("punct", ","):
                values.append(self._parse_literal())
            self._expect("punct", ")")
            return Comparison("in", path, Const(values))
        op_token = self._expect("op")
        op = "!=" if op_token.text == "<>" else op_token.text
        literal = self._parse_literal()
        return Comparison(op, path, Const(literal))

    def _parse_method_call(self, parts: List[str]) -> Expr:
        args: List[Any] = []
        if not self._accept("punct", ")"):
            args.append(self._parse_literal())
            while self._accept("punct", ","):
                args.append(self._parse_literal())
            self._expect("punct", ")")
        selector = parts[-1]
        prefix = parts[1:-1]
        path = Path(prefix) if prefix else None
        token = self._peek()
        if token.kind == "op":
            op = "!=" if self._advance().text == "<>" else token.text
            literal = self._parse_literal()
            return MethodCall(path, selector, args, op, Const(literal))
        return MethodCall(path, selector, args)

    def _parse_adt_predicate(self) -> Expr:
        name_token = self._expect("name")
        self._expect("punct", "(")
        path = self._parse_path()
        args: List[Any] = []
        while self._accept("punct", ","):
            args.append(self._parse_literal())
        self._expect("punct", ")")
        predicate = AdtPredicate(name_token.text, path, args)
        predicate.span = SourceSpan(name_token.pos, self._prev_end())
        return predicate

    def _parse_literal(self) -> Any:
        token = self._peek()
        if token.kind == "int":
            self._advance()
            return int(token.text)
        if token.kind == "float":
            self._advance()
            return float(token.text)
        if token.kind == "string":
            self._advance()
            return string_value(token.text)
        if token.kind == "kw" and token.text in ("true", "false", "null"):
            self._advance()
            return {"true": True, "false": False, "null": None}[token.text]
        if token.kind == "punct" and token.text == "[":
            self._advance()
            values: List[Any] = []
            if not self._accept("punct", "]"):
                values.append(self._parse_literal())
                while self._accept("punct", ","):
                    values.append(self._parse_literal())
                self._expect("punct", "]")
            return values
        raise QuerySyntaxError(
            "expected a literal at position %d, found %r" % (token.pos, token.text),
            source=self.text,
            pos=token.pos,
            width=max(1, len(token.text)),
        )


def parse_query(text: str) -> Query:
    """Parse OQL text into a :class:`~repro.query.ast.Query`."""
    return _Parser(text).parse()
