"""Object state and object handles.

An :class:`ObjectState` is the raw stored form of an object: its OID, the
name of the single class it is an instance of (core concept 3) and its
attribute values.  An :class:`ObjectHandle` is the encapsulated,
application-facing view: per core concept 6 all access goes through the
handle, which routes reads through the attribute interface and behavior
through message passing with late binding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional

from ..errors import AttributeNotFoundError
from .oid import OID

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..database import Database


def copy_value(value: Any) -> Any:
    """A stored value with every list in it fresh (lists are the only
    mutable thing a stored value can hold)."""
    if isinstance(value, list):
        return [
            copy_value(element) if isinstance(element, list) else element
            for element in value
        ]
    return value


class ObjectState:
    """The persistent state of one object.

    ``wire_row`` is unset until the server's frame encoder first sends
    the state; it then keeps the JSON text of the state's wire row
    (:func:`repro.server.protocol.encode_frame`).  A stored state never
    changes — a write installs a new one — so the kept text cannot go
    stale; :meth:`copy` does not carry it.
    """

    __slots__ = ("oid", "class_name", "values", "wire_row")

    def __init__(self, oid: OID, class_name: str, values: Dict[str, Any]) -> None:
        self.oid = oid
        self.class_name = class_name
        self.values = values

    def get(self, name: str, default: Any = None) -> Any:
        return self.values.get(name, default)

    def copy(self) -> "ObjectState":
        """A copy the caller owns: the values dict and every (nested)
        list are new; everything else a value can hold is immutable."""
        values = self.values.copy()
        for key, val in self.values.items():
            if isinstance(val, list):
                values[key] = copy_value(val)
        return ObjectState(self.oid, self.class_name, values)

    def references(self) -> Iterator[OID]:
        """All OIDs this object refers to (single and set-valued)."""
        for value in self.values.values():
            if isinstance(value, OID):
                yield value
            elif isinstance(value, list):
                for element in value:
                    if isinstance(element, OID):
                        yield element

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ObjectState)
            and other.oid == self.oid
            and other.class_name == self.class_name
            and other.values == self.values
        )

    def __repr__(self) -> str:
        return "<ObjectState %r %s %r>" % (self.oid, self.class_name, self.values)


class ObjectHandle:
    """Encapsulated view of a stored object.

    Handles are cheap and transient; they hold only the database reference
    and the OID.  Attribute reads fetch the current committed (or
    transaction-local) state; attribute writes and deletes route through
    the database so indexes, logging and locks stay consistent.
    """

    __slots__ = ("_db", "oid")

    def __init__(self, db: "Database", oid: OID) -> None:
        self._db = db
        self.oid = oid

    # -- identity / metadata --------------------------------------------

    @property
    def class_name(self) -> str:
        return self._db.class_of(self.oid)

    @property
    def database(self) -> "Database":
        return self._db

    def is_instance_of(self, class_name: str, strict: bool = False) -> bool:
        """Membership test; non-strict includes subclass instances."""
        actual = self.class_name
        if strict:
            return actual == class_name
        return self._db.schema.is_subclass(actual, class_name)

    # -- state access ------------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        # read_state, not get_state: inside a transaction with snapshot
        # reads on, attribute access agrees with the transaction's query
        # snapshot (repeatable reads) instead of chasing current state.
        # It returns a copy, so a list value is the caller's to edit.
        state = self._db.read_state(self.oid)
        if name not in state.values:  # every read is coerced: exactly the declared keys
            raise AttributeNotFoundError(
                "class %s has no attribute %r" % (state.class_name, name)
            )
        return state.values.get(name)

    def __setitem__(self, name: str, value: Any) -> None:
        self._db.update(self.oid, {name: value})

    def get(self, name: str, default: Any = None) -> Any:
        try:
            value = self[name]
        except AttributeNotFoundError:
            return default
        return default if value is None else value

    def fetch(self, name: str) -> Optional["ObjectHandle"]:
        """Dereference a reference-valued attribute to another handle."""
        value = self[name]
        if value is None:
            return None
        if not isinstance(value, OID):
            raise AttributeNotFoundError(
                "attribute %r of %r is not a reference" % (name, self.oid)
            )
        return ObjectHandle(self._db, value)

    def fetch_all(self, name: str) -> list:
        """Dereference a set-valued reference attribute to handles."""
        value = self[name]
        if value is None:
            return []
        if isinstance(value, OID):
            return [ObjectHandle(self._db, value)]
        return [
            ObjectHandle(self._db, element)
            for element in value
            if isinstance(element, OID)
        ]

    def state(self) -> ObjectState:
        """A copy of the full transaction-consistent state."""
        return self._db.read_state(self.oid)

    def to_dict(self) -> Dict[str, Any]:
        """Attribute values as a plain dict (copy)."""
        return self._db.read_state(self.oid).values

    # -- behavior ---------------------------------------------------------

    def send(self, selector: str, *args: Any, **kwargs: Any) -> Any:
        """Send a message; the method binds at run time (late binding)."""
        return self._db.send(self.oid, selector, *args, **kwargs)

    def super_send(self, above: str, selector: str, *args: Any, **kwargs: Any) -> Any:
        """Send a message resolved strictly above class ``above``."""
        meth = self._db.schema.resolve_method_above(self.class_name, selector, above)
        return meth.invoke(self, *args, **kwargs)

    def responds_to(self, selector: str) -> bool:
        return self._db.schema.defines_or_inherits_method(self.class_name, selector)

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ObjectHandle)
            and other.oid == self.oid
            and other._db is self._db
        )

    def __hash__(self) -> int:
        return hash((id(self._db), self.oid))

    def __repr__(self) -> str:
        try:
            cls = self.class_name
        except Exception:  # deleted or detached object
            cls = "?"
        return "<%s %r>" % (cls, self.oid)
