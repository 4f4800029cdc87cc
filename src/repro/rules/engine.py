"""Deductive capabilities (Section 5.4).

A datalog-flavoured rule engine over objects: base facts come from
explicit assertions or from *class mappings* that project stored objects
into predicates (the [BALL88] coupling of a rule system with an OODB).
Inference is semi-naive forward chaining to fixpoint with stratified
negation; a backward-chaining prover handles goal-directed queries.
Every derivation is recorded as a justification, feeding the truth
maintenance and contradiction machinery in :mod:`repro.rules.truth`.

Terms: constants are arbitrary hashable values (OIDs included); variables
are :class:`Var` instances or strings starting with ``?``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import RuleError
from ..query.ast import Query

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database


class Var:
    """A logic variable."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Var", self.name))

    def __repr__(self) -> str:
        return "?%s" % self.name


def _term(value: Any) -> Any:
    """Convenience: strings beginning with '?' become variables."""
    if isinstance(value, str) and value.startswith("?") and len(value) > 1:
        return Var(value[1:])
    return value


Fact = Tuple[str, Tuple[Any, ...]]


def fact(predicate: str, *args: Any) -> Fact:
    return (predicate, tuple(args))


class Literal:
    """One body element of a rule: an atom, possibly negated."""

    __slots__ = ("predicate", "terms", "negated")

    def __init__(self, predicate: str, terms: Sequence[Any], negated: bool = False) -> None:
        self.predicate = predicate
        self.terms = tuple(_term(t) for t in terms)
        self.negated = negated

    def variables(self) -> Set[Var]:
        return {t for t in self.terms if isinstance(t, Var)}

    def __repr__(self) -> str:
        text = "%s(%s)" % (self.predicate, ", ".join(repr(t) for t in self.terms))
        return "not " + text if self.negated else text


class Rule:
    """``head :- body``; safety-checked at construction."""

    __slots__ = ("head", "body", "name")

    def __init__(self, head: Literal, body: Sequence[Literal], name: str = "") -> None:
        if head.negated:
            raise RuleError("rule heads may not be negated")
        positive_vars: Set[Var] = set()
        for literal in body:
            if not literal.negated:
                positive_vars |= literal.variables()
        unsafe = head.variables() - positive_vars
        if unsafe:
            raise RuleError(
                "unsafe rule: head variables %s not bound by a positive body literal"
                % sorted(v.name for v in unsafe)
            )
        for literal in body:
            if literal.negated and literal.variables() - positive_vars:
                raise RuleError(
                    "unsafe negation in %r: variables must be bound positively"
                    % (literal,)
                )
        self.head = head
        self.body = list(body)
        self.name = name or "rule_%s" % head.predicate

    def __repr__(self) -> str:
        return "<%s: %r :- %s>" % (
            self.name,
            self.head,
            ", ".join(repr(l) for l in self.body),
        )


def rule(head_pred: str, head_terms: Sequence[Any], *body: Tuple, name: str = "") -> Rule:
    """Builder: ``rule("anc", ["?x","?z"], ("par", ["?x","?y"]), ...)``.

    Body tuples are ``(predicate, terms)`` or ``(predicate, terms, "not")``.
    """
    literals = []
    for element in body:
        negated = len(element) == 3 and element[2] == "not"
        literals.append(Literal(element[0], element[1], negated))
    return Rule(Literal(head_pred, head_terms), literals, name=name)


class ClassMapping:
    """Projects instances of a class into base facts.

    ``predicate(oid, attr1_value, attr2_value, ...)`` for every instance
    in the hierarchy of ``class_name``.
    """

    __slots__ = ("predicate", "class_name", "attributes")

    def __init__(self, predicate: str, class_name: str, attributes: Sequence[str]) -> None:
        self.predicate = predicate
        self.class_name = class_name
        self.attributes = list(attributes)


class RuleEngine:
    """Forward/backward inference with justification recording."""

    def __init__(self, db: Optional["Database"] = None) -> None:
        self.db = db
        self._base: Set[Fact] = set()
        self._rules: List[Rule] = []
        self._mappings: List[ClassMapping] = []
        #: derived fact -> list of (rule name, frozenset of supporting facts)
        self.justifications: Dict[Fact, List[Tuple[str, FrozenSet[Fact]]]] = {}
        self._derived: Set[Fact] = set()
        self._fresh = False

    # -- knowledge base ------------------------------------------------------

    def assert_fact(self, predicate: str, *args: Any) -> Fact:
        entry = fact(predicate, *args)
        self._base.add(entry)
        self._fresh = False
        return entry

    def retract_fact(self, predicate: str, *args: Any) -> bool:
        entry = fact(predicate, *args)
        present = entry in self._base
        self._base.discard(entry)
        self._fresh = False  # truth maintenance: derived facts recomputed
        return present

    def add_rule(self, new_rule: Rule) -> None:
        self._rules.append(new_rule)
        self._fresh = False

    def map_class(self, predicate: str, class_name: str, attributes: Sequence[str]) -> None:
        """Register a class-to-predicate projection (requires a database)."""
        if self.db is None:
            raise RuleError("class mappings require a database-bound engine")
        self.db.schema.get_class(class_name)
        for attr in attributes:
            self.db.schema.attribute(class_name, attr)
        self._mappings.append(ClassMapping(predicate, class_name, attributes))
        self._fresh = False

    def _mapped_facts(self) -> Iterable[Fact]:
        """Base facts of the class mappings, read through the query front
        door: what a hierarchy query shows the current subject — its
        snapshot, authorization and lazily coerced values."""
        for mapping in self._mappings:
            for state in self.db.execute(Query(mapping.class_name)).states:
                values = state.values
                yield fact(
                    mapping.predicate,
                    state.oid,
                    *(values.get(attr) for attr in mapping.attributes),
                )

    # -- stratification -----------------------------------------------------------

    def _strata_of(self, rules: List[Rule]) -> List[List[Rule]]:
        """Order rules into strata; negative dependencies must not cycle."""
        predicates = {r.head.predicate for r in rules}
        stratum: Dict[str, int] = {p: 0 for p in predicates}
        changed = True
        iterations = 0
        limit = (len(predicates) + 1) * (len(rules) + 1) + 1
        while changed:
            changed = False
            iterations += 1
            if iterations > limit:
                raise RuleError(
                    "rules are not stratifiable (negation through recursion)"
                )
            for r in rules:
                head = r.head.predicate
                for literal in r.body:
                    if literal.predicate not in stratum:
                        continue
                    needed = stratum[literal.predicate] + (1 if literal.negated else 0)
                    if stratum[head] < needed:
                        stratum[head] = needed
                        changed = True
        levels: Dict[int, List[Rule]] = {}
        for r in rules:
            levels.setdefault(stratum[r.head.predicate], []).append(r)
        return [levels[level] for level in sorted(levels)]

    # -- forward chaining -------------------------------------------------------------

    def infer(self) -> Set[Fact]:
        """Run to fixpoint; returns the set of derived (non-base) facts."""
        base: Set[Fact] = set(self._base)
        if self.db is not None:
            base |= set(self._mapped_facts())
        known, derived, justifications = self._fixpoint(base, self._rules)
        self.justifications = justifications
        self._derived = derived
        self._all_known = known
        self._fresh = True
        return set(self._derived)

    def _fixpoint(self, base_facts: Set[Fact], rules: List[Rule]):
        """Semi-naive evaluation of ``rules`` over ``base_facts``."""
        known: Set[Fact] = set(base_facts)
        base_snapshot = set(known)
        justifications: Dict[Fact, List[Tuple[str, FrozenSet[Fact]]]] = {}

        by_predicate: Dict[str, Set[Fact]] = {}
        for entry in known:
            by_predicate.setdefault(entry[0], set()).add(entry)

        for stratum_rules in self._strata_of(rules):
            # Semi-naive iteration: after the first full round, a rule
            # only re-fires through bindings that touch at least one fact
            # derived in the previous round (the delta), so a transitive
            # closure costs O(edges x paths) instead of re-joining the
            # whole relation every round.
            delta_by_predicate: Dict[str, Set[Fact]] = dict(by_predicate)
            first_round = True
            while True:
                new_facts: Set[Fact] = set()
                for r in stratum_rules:
                    positive_positions = [
                        index
                        for index, literal in enumerate(r.body)
                        if not literal.negated
                    ]
                    if first_round or not positive_positions:
                        evaluations = [(None, self._satisfy(r.body, known, by_predicate))]
                    else:
                        evaluations = [
                            (
                                position,
                                self._satisfy(
                                    r.body,
                                    known,
                                    by_predicate,
                                    delta_by_predicate,
                                    position,
                                ),
                            )
                            for position in positive_positions
                        ]
                    for _position, matches in evaluations:
                        for binding, support in matches:
                            derived = self._substitute(r.head, binding)
                            if derived not in known and derived not in new_facts:
                                new_facts.add(derived)
                            if derived not in base_snapshot:
                                justifications.setdefault(derived, [])
                                just = (r.name, frozenset(support))
                                if just not in justifications[derived]:
                                    justifications[derived].append(just)
                first_round = False
                if not new_facts:
                    break
                known |= new_facts
                delta_by_predicate = {}
                for entry in new_facts:
                    by_predicate.setdefault(entry[0], set()).add(entry)
                    delta_by_predicate.setdefault(entry[0], set()).add(entry)

        return known, known - base_snapshot, justifications

    def _satisfy(
        self,
        body: Sequence[Literal],
        known: Set[Fact],
        by_predicate: Dict[str, Set[Fact]],
        delta_by_predicate: Optional[Dict[str, Set[Fact]]] = None,
        delta_position: Optional[int] = None,
    ) -> Iterable[Tuple[Dict[Var, Any], List[Fact]]]:
        """All bindings satisfying a conjunctive body against ``known``.

        With ``delta_position`` set, the literal at that index matches
        only facts from ``delta_by_predicate`` (the semi-naive restriction).
        """

        def candidates_for(index: int, literal: Literal):
            if index == delta_position and delta_by_predicate is not None:
                return delta_by_predicate.get(literal.predicate, ())
            return by_predicate.get(literal.predicate, ())

        def extend(
            index: int, binding: Dict[Var, Any], support: List[Fact]
        ) -> Iterable[Tuple[Dict[Var, Any], List[Fact]]]:
            if index == len(body):
                yield dict(binding), list(support)
                return
            literal = body[index]
            if literal.negated:
                ground = self._substitute(literal, binding)
                if ground not in known:
                    yield from extend(index + 1, binding, support)
                return
            for candidate in candidates_for(index, literal):
                new_binding = self._unify(literal.terms, candidate[1], binding)
                if new_binding is not None:
                    support.append(candidate)
                    yield from extend(index + 1, new_binding, support)
                    support.pop()

        yield from extend(0, {}, [])

    @staticmethod
    def _unify(
        terms: Tuple[Any, ...], args: Tuple[Any, ...], binding: Dict[Var, Any]
    ) -> Optional[Dict[Var, Any]]:
        if len(terms) != len(args):
            return None
        out = dict(binding)
        for term, arg in zip(terms, args):
            if isinstance(term, Var):
                bound = out.get(term, _UNBOUND)
                if bound is _UNBOUND:
                    out[term] = arg
                elif bound != arg:
                    return None
            elif term != arg:
                return None
        return out

    @staticmethod
    def _substitute(literal: Literal, binding: Dict[Var, Any]) -> Fact:
        args = tuple(
            binding[t] if isinstance(t, Var) else t for t in literal.terms
        )
        return (literal.predicate, args)

    # -- goal-directed (backward-style) evaluation ------------------------------

    def relevant_predicates(self, goal: str) -> Set[str]:
        """Predicates the goal can depend on (rule-graph closure)."""
        rules_by_head: Dict[str, List[Rule]] = {}
        for r in self._rules:
            rules_by_head.setdefault(r.head.predicate, []).append(r)
        relevant: Set[str] = set()
        stack = [goal]
        while stack:
            predicate = stack.pop()
            if predicate in relevant:
                continue
            relevant.add(predicate)
            for r in rules_by_head.get(predicate, ()):
                for literal in r.body:
                    stack.append(literal.predicate)
        return relevant

    def ask(self, predicate: str, *pattern: Any) -> List[Tuple[Any, ...]]:
        """Goal-directed query: infer only what the goal can depend on.

        The relevance restriction (a light-weight magic-sets transform,
        [BANC86]'s "recursive query processing strategies") evaluates only
        rules whose head predicate the goal transitively references, over
        only the base facts of relevant predicates — so asking about one
        small predicate never materializes the whole model.  Semantics
        match :meth:`query`; the full fixpoint cache is left untouched.
        """
        relevant = self.relevant_predicates(predicate)
        rules = [r for r in self._rules if r.head.predicate in relevant]
        base = {entry for entry in self._base if entry[0] in relevant}
        if self.db is not None:
            base |= {
                entry for entry in self._mapped_facts() if entry[0] in relevant
            }
        known, _derived, _just = self._fixpoint(base, rules)
        out = []
        for pred, args in sorted(known, key=_fact_sort_key):
            if pred != predicate or len(args) != len(pattern):
                continue
            if all(
                wanted is None or isinstance(_term(wanted), Var) or wanted == got
                for wanted, got in zip(pattern, args)
            ):
                out.append(args)
        return out

    # -- queries --------------------------------------------------------------------------

    def query(self, predicate: str, *pattern: Any) -> List[Tuple[Any, ...]]:
        """All known facts matching a pattern (``None``/vars are wildcards)."""
        if not self._fresh:
            self.infer()
        out = []
        for pred, args in sorted(self._all_known, key=_fact_sort_key):
            if pred != predicate or len(args) != len(pattern):
                continue
            if all(
                wanted is None or isinstance(_term(wanted), Var) or wanted == got
                for wanted, got in zip(pattern, args)
            ):
                out.append(args)
        return out

    def holds(self, predicate: str, *args: Any) -> bool:
        """Backward-style ground query (over the forward fixpoint)."""
        if not self._fresh:
            self.infer()
        return fact(predicate, *args) in self._all_known

    def prove(self, predicate: str, *args: Any) -> Optional[List[str]]:
        """Goal-directed proof of a ground fact.

        Returns the chain of rule names justifying the goal (empty list
        for base facts), or None when unprovable.  Uses the recorded
        justifications, so it reflects the same semantics as :meth:`infer`.
        """
        if not self._fresh:
            self.infer()
        goal = fact(predicate, *args)
        if goal in self._base or (self._all_known - self._derived) >= {goal}:
            if goal in self._all_known and goal not in self._derived:
                return []
        if goal not in self._all_known:
            return None
        chain: List[str] = []
        current = goal
        seen: Set[Fact] = set()
        while current in self.justifications and current not in seen:
            seen.add(current)
            rule_name, support = self.justifications[current][0]
            chain.append(rule_name)
            next_derived = [f for f in support if f in self.justifications]
            if not next_derived:
                break
            current = next_derived[0]
        return chain

    # -- introspection ------------------------------------------------------------

    @property
    def derived_fact_count(self) -> int:
        if not self._fresh:
            self.infer()
        return len(self._derived)

    _all_known: Set[Fact] = set()


_UNBOUND = object()


def _fact_sort_key(entry: Fact):
    pred, args = entry
    return (pred, tuple(repr(a) for a in args))
