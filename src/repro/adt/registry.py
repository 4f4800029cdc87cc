"""Abstract data types (Section 5.5).

"The creation of user-defined types ... has some difficult and
interesting consequences on database system architecture" [BLOO87,
STON86a].  kimdb ADTs are *value domains*: a registered type contributes

* a validator — making the type usable as an attribute domain;
* named operations — usable as predicates in OQL
  (``overlaps(r.shape, [0, 0, 4, 4])``).

Access methods for those predicates are ordinary indexes in the
database's :class:`~repro.index.manager.IndexManager` (an index whose
``operation`` names the predicate, e.g. the spatial grid), which the
cost model probes instead of scanning — integrating user-defined
predicates into the optimization framework (the open issue the paper
highlights; experiment E14).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..errors import SchemaError
from ..query.ast import AdtPredicate
from ..query.paths import Deref, evaluate_path

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database

Validator = Callable[[Any], bool]
Operation = Callable[..., Any]


class AdtType:
    __slots__ = ("name", "validator", "operations")

    def __init__(self, name: str, validator: Validator) -> None:
        self.name = name
        self.validator = validator
        self.operations: Dict[str, Operation] = {}


class AdtRegistry:
    """User-defined types and operations for one database."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        self._types: Dict[str, AdtType] = {}
        #: operation name -> (type name, fn)
        self._operations: Dict[str, Tuple[str, Operation]] = {}

    # -- registration -----------------------------------------------------------

    def register_type(self, name: str, validator: Validator) -> AdtType:
        if name in self._types:
            raise SchemaError("ADT %r is already registered" % (name,))
        adt = AdtType(name, validator)
        self._types[name] = adt
        self.db.schema.register_value_domain(name, validator)
        return adt

    def register_operation(self, type_name: str, op_name: str, fn: Operation) -> None:
        adt = self._types.get(type_name)
        if adt is None:
            raise SchemaError("unknown ADT %r" % (type_name,))
        if op_name in self._operations:
            raise SchemaError("ADT operation %r is already registered" % (op_name,))
        adt.operations[op_name] = fn
        self._operations[op_name] = (type_name, fn)

    def has_operation(self, op_name: str) -> bool:
        """True when ``op_name`` names a registered ADT operation.

        The semantic analyzer uses this to reject unknown ADT predicates
        at compile time instead of at residual-evaluation time.
        """
        return op_name in self._operations

    # -- evaluation (residual predicates) ------------------------------------------

    def evaluate(self, predicate: AdtPredicate, state: ObjectState, deref: Deref) -> bool:
        entry = self._operations.get(predicate.name)
        if entry is None:
            raise SchemaError("unknown ADT operation %r" % (predicate.name,))
        type_name, fn = entry
        validator = self._types[type_name].validator
        values = self._terminal_values(predicate, state, deref, validator)
        for value in values:
            if value is None or not validator(value):
                continue
            if fn(value, *predicate.args):
                return True
        return False

    def _terminal_values(
        self, predicate: AdtPredicate, state: ObjectState, deref: Deref, validator: Validator
    ) -> List[Any]:
        """Terminal values of the predicate path, ADT-list aware.

        ADT values are often encoded as lists (e.g. a rectangle's four
        corners), which the generic path walker would fan out element by
        element.  The final step is therefore read *raw*: when the whole
        attribute value validates as the ADT it is the single candidate;
        otherwise list values fan out as usual (set of ADT values).
        """
        steps = predicate.path.steps
        if len(steps) == 1:
            holders = [state]
        else:
            holder_values = evaluate_path(state, steps[:-1], deref)
            holders = []
            for value in holder_values:
                if isinstance(value, OID):
                    holder = deref(value)
                    if holder is not None:
                        holders.append(holder)
        out: List[Any] = []
        for holder in holders:
            raw = holder.values.get(steps[-1])
            if raw is None:
                continue
            if validator(raw):
                out.append(raw)
            elif isinstance(raw, list):
                out.extend(element for element in raw if validator(element))
        return out

    def call(self, op_name: str, value: Any, *args: Any) -> Any:
        """Direct (non-query) invocation of an ADT operation."""
        entry = self._operations.get(op_name)
        if entry is None:
            raise SchemaError("unknown ADT operation %r" % (op_name,))
        return entry[1](value, *args)


def attach(db: "Database") -> AdtRegistry:
    registry = AdtRegistry(db)
    db.adt = registry
    return registry
