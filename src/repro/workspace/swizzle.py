"""Pointer swizzling: memory-resident objects à la LOOM/ORION.

Section 3.3: "A much better solution is to store logical object
identifiers within the objects in the database, and convert them to
memory pointers to related objects ... as an object is fetched from the
database, the object identifiers embedded in the object are converted to
memory pointers that will point to some descriptors for the objects that
the object references.  The referenced objects may later be fetched as
necessary."

A :class:`MemoryObject` is the in-memory form.  Its reference slots hold
the stored OIDs until a traversal follows one (swizzling on dereference,
in Moss's terms): :meth:`MemoryObject.ref` and :meth:`MemoryObject.refs`
resolve the OID through the workspace's OID table — a resident hit or
one fault — and then install the direct pointer, so subsequent accesses
are "a few memory lookups" (the order-of-magnitude claim of Section
4.2, experiment E5).  Under the ``"none"`` policy they never install
one: every traversal goes through the OID table.  A dangling reference
keeps its OID.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set

from ..core.oid import OID
from ..errors import ObjectNotFoundError

if TYPE_CHECKING:  # pragma: no cover
    from .cache import ObjectWorkspace


class MemoryObject:
    """The memory-resident form of one object.

    Primitive attribute values are stored directly; reference slots hold
    an OID until first traversed and a direct pointer to the resident
    :class:`MemoryObject` after.  :meth:`set` records the names it
    changed; the workspace writes exactly those back through the
    database, so the full database machinery (validation, indexes, WAL)
    still applies — the paper's point that memory-resident management
    *extends* database capabilities rather than bypassing them.
    """

    __slots__ = ("oid", "class_name", "values", "changed", "_workspace")

    def __init__(
        self,
        oid: OID,
        class_name: str,
        values: Dict[str, Any],
        workspace: "ObjectWorkspace",
    ) -> None:
        self.oid = oid
        self.class_name = class_name
        self.values = values
        #: Names :meth:`set` changed since the last flush (None: none).
        self.changed: Optional[Set[str]] = None
        self._workspace = workspace

    @property
    def dirty(self) -> bool:
        return bool(self.changed)

    # -- reads ---------------------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        return self.values.get(name)

    def get(self, name: str, default: Any = None) -> Any:
        value = self.values.get(name)
        return default if value is None else value

    def ref(self, name: str) -> Optional["MemoryObject"]:
        """Traverse one reference attribute, faulting if necessary.

        After the first traversal the slot holds a direct pointer (not
        under ``"none"``), so the next ``ref`` is a plain attribute read.
        """
        value = self.values.get(name)
        if type(value) is MemoryObject:  # hot path: already a pointer
            return value
        if not isinstance(value, OID):
            return None
        target = self._follow(value)
        if target is not None and self._workspace.policy != "none":
            self.values[name] = target  # install the direct pointer
        return target

    def refs(self, name: str) -> List["MemoryObject"]:
        """Traverse a set-valued reference attribute."""
        value = self.values.get(name)
        if not isinstance(value, list):
            single = self.ref(name)
            return [single] if single is not None else []
        out: List[MemoryObject] = []
        for position, element in enumerate(value):
            if type(element) is MemoryObject:  # hot path
                out.append(element)
            elif isinstance(element, OID):
                target = self._follow(element)
                if target is not None:
                    if self._workspace.policy != "none":
                        value[position] = target
                    out.append(target)
        return out

    def _follow(self, oid: OID) -> Optional["MemoryObject"]:
        try:
            return self._workspace.load(oid)
        except ObjectNotFoundError:
            return None

    def _pending_refs(self) -> List[OID]:
        """OIDs this object's slots still hold."""
        out: List[OID] = []
        for value in self.values.values():
            if isinstance(value, OID):
                out.append(value)
            elif isinstance(value, list):
                out.extend(element for element in value if isinstance(element, OID))
        return out

    # -- writes ----------------------------------------------------------------

    def set(self, name: str, value: Any) -> None:
        """Local update; persisted at workspace flush."""
        self.values[name] = value
        if self.changed is None:
            self.changed = {name}
        else:
            self.changed.add(name)

    def changes(self) -> Dict[str, Any]:
        """The changed values, converted back to storable ones (pointers
        -> OIDs)."""
        return {name: _unswizzle(self.values.get(name)) for name in self.changed}

    def __repr__(self) -> str:
        return "<MemoryObject %s %r%s>" % (
            self.class_name,
            self.oid,
            " dirty" if self.changed else "",
        )


def _unswizzle(value: Any) -> Any:
    if isinstance(value, MemoryObject):
        return value.oid
    if isinstance(value, list):
        return [_unswizzle(element) for element in value]
    return value
