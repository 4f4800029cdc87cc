"""Expression compiler: query expressions -> per-row closures and one
generated WHERE filter.

The pipeline never walks an AST per row.  When a plan is compiled into
operators (:func:`~repro.query.operators.compile_plan`), each expression
it carries — the WHERE clause, the ORDER BY / top-K key, the GROUP BY
key, the aggregate paths and the projections — is compiled once against
that execution's kernel (its ``path_deref`` — the execution's path
memo, for steps that dereference — ``send`` and ``adt_eval``).  What is
bound to one execution cannot be shared, so binding happens per
execution and nothing bound is cached with the plan.

A path compiles to a closure: a one-step path reads
``values.get(attr)`` directly, a multi-step path walks its steps through
``deref``.  The WHERE clause, over object states and row dicts alike,
compiles to one generated comprehension per predicate *shape*
(:func:`compile_filter`): ``And`` / ``Or`` / ``Not`` are inlined, and,
for kernels whose rows are object states, a comparison of a one-step
path, or of a two-step path through one reference, against an ``int`` /
``float`` (ordered or ``=``) or a ``str`` (``=`` / ``contains``)
inlines its common case — the value read has exactly the literal's
kind.  Every other leaf, and every other value, goes to one call made
on first use (:func:`compile_leaf`): the leaf over the kernel's path
with the reference :func:`~repro.query.paths.compare`, or a method or
ADT operator through ``send`` / ``adt_eval``.  A two-step path's second
value goes to that compare alone (:func:`value_test`), so the reference
is read once.  Semantics are exactly those of the reference
interpreter, :func:`~repro.query.algebra.evaluate_predicate` over
:func:`~repro.query.paths.evaluate_path`: existential comparisons over
fan-out, ``_eq``'s bool / OID rules, None never ordered, a ``TypeError``
is False.  The source text depends on the shape alone: attribute names
and literals are arguments of the generated factory, never text in it.
:class:`FilterShapes` keeps the factories, so a known shape pays only
the binding.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Sequence

from ..core.obj import ObjectState, copy_value
from ..core.oid import OID
from .ast import AdtPredicate, And, Comparison, Expr, MethodCall, Not, Or
from .paths import Deref, compare

#: A compiled per-row test.
Test = Callable[[Any], bool]
#: A compiled path: every terminal value of the path from one row.
PathReader = Callable[[Any], List[Any]]


# -- paths over object states --------------------------------------------


def compile_path(steps: Sequence[str], deref: Deref) -> PathReader:
    """``evaluate_path(state, steps, deref)`` as a closure (a fresh list)."""
    *walk, last = steps
    if not walk:

        def one_step(state: ObjectState) -> List[Any]:
            value = state.values.get(last)
            return value[:] if isinstance(value, list) else [value]

        return one_step

    def path(state: ObjectState) -> List[Any]:
        frontier = [state]
        for step in walk:
            following = []
            for obj in frontier:
                value = obj.values.get(step)
                for element in value if isinstance(value, list) else (value,):
                    if isinstance(element, OID):
                        referenced = deref(element)
                        if referenced is not None:
                            following.append(referenced)
            frontier = following
        values: List[Any] = []
        for obj in frontier:
            value = obj.values.get(last)
            if isinstance(value, list):
                values.extend(value)
            else:
                values.append(value)
        return values

    return path


def first_of_one(value: Any) -> Any:
    """A one-step path's first terminal value, given the attribute's."""
    if isinstance(value, list):
        return value[0] if value else None
    return value


def compile_first(steps: Sequence[str], deref: Deref) -> Callable[[ObjectState], Any]:
    """The path's first terminal value, or None — the ORDER BY and GROUP
    BY key."""
    if len(steps) == 1:
        attr = steps[0]
        return lambda state: first_of_one(state.values.get(attr))
    path = compile_path(steps, deref)

    def first(state: ObjectState) -> Any:
        values = path(state)
        return values[0] if values else None

    return first


def compile_projection(
    paths: Sequence[Sequence[str]], path_of: Callable[[Sequence[str]], PathReader]
) -> Callable[[Any], Dict[str, Any]]:
    """One projected row: {dotted path -> value, list on fan-out, None
    when missing}, each path compiled by ``path_of`` (a kernel's
    ``path``).  Lists are fresh: a terminal list value belongs to a
    shared, read-only stored state (DESIGN "Object buffer")."""
    columns = [(".".join(steps), path_of(steps)) for steps in paths]

    def project(row: Any) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for key, path in columns:
            values = [
                copy_value(value) if isinstance(value, list) else value
                for value in path(row)
            ]
            if not values:
                out[key] = None
            elif len(values) == 1:
                out[key] = values[0]
            else:
                out[key] = values
        return out

    return project


# -- generated batch filters ---------------------------------------------

#: Generated filter factories one :class:`FilterShapes` keeps at most.
SHAPE_CACHE_SIZE = 256

#: A batch filter: the rows of one batch that satisfy a WHERE clause.
BatchFilter = Callable[[List[Any]], List[Any]]

#: Source text for each comparison a leaf may inline.
_SOURCE_OPS = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "==", "contains": "=="}
#: A leaf that calls its closure on every row.
_CALL = ("call",)
#: The comparisons a leaf inlines against an ``int`` / ``float``.
_NUMERIC_OPS = frozenset(("<", "<=", ">", ">=", "="))


def compile_leaf(kernel: Any, leaf: Expr) -> Test:
    """One WHERE leaf as a test of one row, for every leaf and value the
    generated filter does not inline: a comparison over ``kernel.path``
    with the reference :func:`~repro.query.paths.compare`, a method
    through ``kernel.send``, an ADT operator through ``kernel.adt_eval``.
    A leaf the kernel cannot evaluate compiles to a test that raises when
    a row reaches it — the moment the interpreter would have raised;
    ``kernel.refuse(leaf)`` makes that exception for kernels whose rows
    have no behaviour at all (federated rows)."""
    if isinstance(leaf, Comparison):
        path = kernel.path(leaf.path.steps)
        test = partial(compare, leaf.op, literal=leaf.const.value)
        return lambda row: any(map(test, path(row)))
    if kernel.refuse is not None:
        return _raising(kernel.refuse, leaf)
    if isinstance(leaf, MethodCall):
        send = kernel.send
        if send is None:
            return _raising(ValueError, "method predicates require a message sender")
        test = partial(compare, leaf.op, literal=leaf.const.value)
        selector, args = leaf.selector, leaf.args
        path = kernel.path(leaf.path.steps) if leaf.path is not None else None

        def holds(row: Any) -> bool:
            if path is None:
                receivers = [row.oid]
            else:
                receivers = [value for value in path(row) if isinstance(value, OID)]
            return any(test(send(receiver, selector, *args)) for receiver in receivers)

        return holds
    if isinstance(leaf, AdtPredicate):
        if kernel.adt_eval is None:
            return _raising(ValueError, "ADT predicates require an ADT evaluator")
        return partial(kernel.adt_eval, leaf)
    return _raising(ValueError, "unknown expression node %r" % (leaf,))


def _raising(error: Callable[..., Exception], *args: Any) -> Test:
    def refused(row: Any) -> bool:
        raise error(*args)

    return refused


def value_test(leaf: Comparison) -> Test:
    """``leaf``'s comparison of one value a path's last step read: a
    list's elements existentially, as :func:`compile_leaf` tests them."""
    test = partial(compare, leaf.op, literal=leaf.const.value)
    return lambda value: any(map(test, value)) if isinstance(value, list) else test(value)


#: The only names generated code reads besides its parameters.
_GLOBALS = {
    "__builtins__": {"type": type, "str": str}, "NUM": (int, float), "OID": OID, "X": value_test
}


class FilterShapes:
    """Generated batch-filter factories, one per predicate shape.

    A shape is the tree :func:`compile_filter` derives from a WHERE
    clause: its boolean structure plus, for each comparison, whether and
    how it inlines — never an attribute name or a literal.  A new shape
    pays one ``exec``; at :data:`SHAPE_CACHE_SIZE` shapes the cache
    starts over.  Lookups and inserts are single dict operations, so
    concurrent executions need no lock: two that miss on one shape
    both generate it, and the second insert wins.
    """

    __slots__ = ("_factories",)

    def __init__(self) -> None:
        self._factories: Dict[tuple, Callable[..., BatchFilter]] = {}

    def factory(self, shape: tuple) -> Callable[..., BatchFilter]:
        factory = self._factories.get(shape)
        if factory is None:
            namespace: Dict[str, Any] = {}
            code = compile(filter_source(shape), "<generated filter>", "exec")
            exec(code, dict(_GLOBALS), namespace)
            factory = namespace["factory"]
            factory.dereferences = _dereferences(shape)
            if len(self._factories) >= SHAPE_CACHE_SIZE:
                self._factories.clear()
            self._factories[shape] = factory
        return factory

    def clear(self) -> None:
        self._factories.clear()

    def __len__(self) -> int:
        return len(self._factories)


def compile_filter(expr: Expr, kernel: Any, shapes: FilterShapes) -> BatchFilter:
    """The WHERE clause as a batch function: ``rows -> [row for row in
    rows if <expr>]``, generated once per shape and bound here to
    ``kernel`` — its ``path_deref`` if an inlined leaf dereferences, and
    :func:`compile_leaf` over it for every leaf the first time a row
    needs its call.  A kernel whose ``inlines`` is False (row dicts)
    inlines no leaf."""
    args: List[Any] = [None, partial(compile_leaf, kernel)]
    factory = shapes.factory(filter_shape(expr, args, kernel.inlines))
    if factory.dereferences:
        args[0] = kernel.path_deref
    return factory(*args)


def _dereferences(shape: tuple) -> bool:
    """Does a filter of ``shape`` call ``D``: has it an inlined two-step leaf?"""
    if shape[0] in ("and", "or", "not"):
        return any(_dereferences(part) for part in shape[1:])
    return len(shape) == 3 and shape[2] == 2


def filter_shape(expr: Expr, args: List[Any], inline: bool = True) -> tuple:
    """``expr``'s shape; appends the generated factory's arguments to
    ``args``, leaf by leaf: the leaf itself, then, for an inlined
    comparison, its path steps and its literal.  With ``inline`` False
    every leaf is a call."""
    kind = type(expr)
    if kind is Comparison:
        args.append(expr)
        op, steps, literal = expr.op, expr.path.steps, expr.const.value
        literal_type = type(literal)
        if not inline or len(steps) > 2:
            return _CALL
        if (literal_type is int or literal_type is float) and op in _NUMERIC_OPS:
            guard = "num"
        elif literal_type is str and (op == "=" or op == "contains"):
            guard = "str"
        else:
            return _CALL
        args.extend(steps)
        args.append(literal)
        return (guard, op, len(steps))
    if kind is And or kind is Or:
        return (
            "and" if kind is And else "or",
            *[filter_shape(part, args, inline) for part in expr.operands],
        )
    if kind is Not:
        return ("not", filter_shape(expr.operand, args, inline))
    args.append(expr)
    return _CALL


def filter_source(shape: tuple) -> str:
    """The factory's source for one shape.  Only generated names and the
    operators of :data:`_SOURCE_OPS` appear in it.

    Leaf ``i`` binds ``E<i>`` (the leaf), ``A<i>`` (first step), ``B<i>``
    (second step, two-step paths only) and ``K<i>`` (literal).  Its
    inline case is taken only when the value read has exactly the
    literal's kind — ``int`` or ``float`` (never ``bool``) against a
    number, ``str`` against a string — and, on a two-step path, the
    first value is one ``OID``; a dangling reference reads no value, so
    it does not match.  A second value of another kind goes to ``G<i>``,
    the leaf's compare over one value (:func:`value_test`, through
    ``X``), so the reference is not read again; everything else calls
    ``H<i>``, the leaf's call, made by ``C`` (:func:`compile_leaf` over
    the kernel).  Both are made on first use.
    """
    params = ["D", "C"]
    closures: List[str] = []

    def emit(node: tuple) -> str:
        kind = node[0]
        if kind in ("and", "or"):
            return "(%s)" % (" %s " % kind).join(emit(part) for part in node[1:])
        if kind == "not":
            return "(not %s)" % emit(node[1])
        leaf = len(closures)
        h, e, a, b, k = ("%s%d" % (name, leaf) for name in "HEABK")
        closures.append(h)
        params.append(e)
        call = "(%s or (%s := C(%s)))(row)" % (h, h, e)
        if kind == "call":
            return call
        _, op, length = node
        guard = "in NUM" if kind == "num" else "is str"
        compare = "(w%d %s %s)" % (leaf, _SOURCE_OPS[op], k)
        if length == 1:
            params.extend((a, k))
            return "(%s if type(w%d := row.values.get(%s)) %s else %s)" % (
                compare, leaf, a, guard, call,
            )
        params.extend((a, b, k))
        g = "G%d" % leaf
        closures.append(g)
        second = "(%s if type(w%d := s%d.values.get(%s)) %s else (%s or (%s := X(%s)))(w%d))" % (
            compare, leaf, leaf, b, guard, g, g, e, leaf,
        )
        return (
            "((%s if (s%d := D(v%d)) is not None else False)"
            " if type(v%d := row.values.get(%s)) is OID else %s)"
            % (second, leaf, leaf, leaf, a, call)
        )

    test = emit(shape)
    return (
        "def factory(%s):\n"
        "    %s = None\n"
        "    def batch(rows):\n"
        "        nonlocal %s\n"
        "        return [row for row in rows if %s]\n"
        "    return batch\n"
        % (", ".join(params), " = ".join(closures), ", ".join(closures), test)
    )
