"""Pointer swizzling: memory-resident objects à la LOOM/ORION.

Section 3.3: "A much better solution is to store logical object
identifiers within the objects in the database, and convert them to
memory pointers to related objects ... as an object is fetched from the
database, the object identifiers embedded in the object are converted to
memory pointers that will point to some descriptors for the objects that
the object references.  The referenced objects may later be fetched as
necessary."

A :class:`MemoryObject` is the in-memory form: its slots keep their
OIDs, and :meth:`MemoryObject.ref`/:meth:`MemoryObject.refs` resolve
one through the workspace's OID table the first time a traversal
follows it (swizzling on dereference, in Moss's terms), then keep the
direct pointer (not under ``"none"``), so later accesses are "a few
memory lookups" (Section 4.2, experiment E5).  A dangling reference
keeps its OID; a target the reader may not read raises
``AuthorizationError``, admitting nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set

from ..core.obj import copy_value
from ..core.oid import OID
from ..errors import ObjectNotFoundError

if TYPE_CHECKING:  # pragma: no cover
    from .cache import ObjectWorkspace


class MemoryObject:
    """The memory-resident form of one object.

    It shares the object buffer's read-only stored dict until a caller
    could change it: the first :meth:`set`, read of :attr:`values`, or
    ``[]``/:meth:`get` of a list value copies it, once, and the shared
    dict stays as the :attr:`baseline`.  A followed reference keeps its
    OID there; its pointer lives in a table beside it.  :meth:`set`
    records the names it changed; the workspace writes exactly those
    back through the database (validation, indexes, WAL still apply).
    """

    __slots__ = ("oid", "class_name", "changed", "_values", "_baseline", "_pointers", "_workspace")

    #: Not a sequence: ``in`` and ``list()`` would index 0, 1, ... forever.
    __iter__ = None

    def __init__(
        self, oid: OID, class_name: str, values: Dict[str, Any], workspace: "ObjectWorkspace"
    ) -> None:
        self.oid = oid
        self.class_name = class_name
        #: Names :meth:`set` changed since the last flush (None: none).
        self.changed: Optional[Set[str]] = None
        self._values = values  # shared and read-only until copied
        self._baseline: Optional[Dict[str, Any]] = None  # the shared dict, once copied
        #: Followed references (name -> MemoryObject, or a list), made at the first.
        self._pointers: Optional[Dict[str, Any]] = None
        self._workspace = workspace

    @property
    def dirty(self) -> bool:
        return bool(self.changed)

    @property
    def values(self) -> Dict[str, Any]:
        """The object's own values (copied on first access); reference
        slots hold OIDs unless :meth:`set` stored a memory object."""
        if self._baseline is None:
            self._baseline = self._values
            self._values = {
                name: copy_value(value) if isinstance(value, list) else value
                for name, value in self._values.items()
            }
        return self._values

    @property
    def baseline(self) -> Dict[str, Any]:
        """The stored dict this object was loaded from, or last wrote
        back: its workspace's write-back compares the stored state with it."""
        return self._values if self._baseline is None else self._baseline

    # -- reads ---------------------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        value = self._values.get(name)
        if type(value) is list and self._baseline is None:
            return self.values[name]
        return value

    def get(self, name: str, default: Any = None) -> Any:
        value = self[name]
        return default if value is None else value

    def ref(self, name: str) -> Optional["MemoryObject"]:
        """Traverse one reference attribute, faulting if necessary.

        After the first traversal the pointer table holds the target
        (not under ``"none"``), so the next ``ref`` is a dict lookup.
        """
        pointers = self._pointers
        if pointers is not None:
            target = pointers.get(name)
            if type(target) is MemoryObject:  # hot path: already followed
                return target
        value = self._values.get(name)
        if type(value) is MemoryObject:  # stored there by set()
            return value
        if not isinstance(value, OID):
            return None
        workspace = self._workspace
        try:
            target = workspace.load(value)
        except ObjectNotFoundError:  # dangling: the slot keeps its OID
            return None
        if workspace.policy != "none":
            if pointers is None:
                self._pointers = pointers = {}
            pointers[name] = target
        return target

    def refs(self, name: str) -> List["MemoryObject"]:
        """Traverse a set-valued reference attribute; the caller owns
        the returned list."""
        pointers = self._pointers
        if pointers is not None:
            targets = pointers.get(name)
            if type(targets) is list:  # hot path: already followed
                return targets[:]
        value = self._values.get(name)
        if not isinstance(value, list):
            single = self.ref(name)
            return [single] if single is not None else []
        workspace = self._workspace
        out: List[MemoryObject] = []
        for element in value:
            if type(element) is MemoryObject:
                out.append(element)
            elif isinstance(element, OID):
                try:
                    out.append(workspace.load(element))
                except ObjectNotFoundError:  # dangling: skipped
                    pass
        if workspace.policy != "none":
            if pointers is None:
                self._pointers = pointers = {}
            pointers[name] = out[:]
        return out

    def _pending_refs(self) -> List[OID]:
        """OIDs this object's slots hold."""
        out: List[OID] = []
        for value in self._values.values():
            if isinstance(value, OID):
                out.append(value)
            elif isinstance(value, list):
                out.extend(element for element in value if isinstance(element, OID))
        return out

    # -- writes ----------------------------------------------------------------

    def set(self, name: str, value: Any) -> None:
        """Local update; persisted at workspace flush."""
        self.values[name] = value
        if self._pointers is not None:
            self._pointers.pop(name, None)
        if self.changed is None:
            self.changed = {name}
        else:
            self.changed.add(name)

    def changes(self) -> Dict[str, Any]:
        """The changed values, converted back to storable ones (pointers
        -> OIDs)."""
        return {name: _unswizzle(self._values.get(name)) for name in self.changed or ()}

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
