"""The object workspace: a virtual-memory object cache over a database.

"Object-oriented database systems which manage memory-resident objects
extend the capabilities of database systems to the virtual-memory
workspace for the applications" (Section 3.3).  The workspace loads
objects once, swizzles their references, serves repeated traversals from
memory, and writes dirty objects back through the database at flush so
queries, indexing and recovery remain correct.

Swizzling policies (the E5 ablation).  Admission shares the stored
state, which is copied on first write, and its slots keep their OIDs; a
traversal resolves an OID through the workspace's OID table, keyed by
the OID's value, when it first follows it (swizzling on dereference;
see :mod:`repro.workspace.swizzle`):

* ``"lazy"``  — a followed OID faults its object in, and the object's
  pointer table, made at its first followed reference, then holds the
  direct pointer (LOOM).
* ``"eager"`` — loading an object immediately loads every object
  reachable from it, breadth-first; a followed reference then gets a
  direct pointer, as under lazy.
* ``"none"``  — no pointer is installed and every traversal goes
  through the OID table (the unswizzled baseline).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

from ..core.oid import OID
from ..errors import KimDBError
from ..obs.metrics import Counter, MetricsRegistry
from .swizzle import MemoryObject

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database

_POLICIES = ("lazy", "eager", "none")


class WorkspaceStats:
    """``hits`` / ``faults`` / ``hit_rate`` of one workspace's counters.

    The one ``*Stats`` view left: ``benchmarks/ledger/workloads/
    oo1_traverse.py`` reads ``workspace.stats.hits`` / ``.faults`` and
    the ledger's files are frozen by BENCHMARK.json.  Everything else
    reads ``workspace.metrics`` by name; this goes when the ledger does.
    """

    __slots__ = ("_hits", "_faults")

    def __init__(self, hits: Counter, faults: Counter) -> None:
        self._hits = hits
        self._faults = faults

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def faults(self) -> int:
        return self._faults.value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.faults
        return self.hits / total if total else 0.0


class ObjectWorkspace:
    """An application's private cache of memory-resident objects."""

    def __init__(self, db: "Database", policy: str = "lazy") -> None:
        if policy not in _POLICIES:
            raise KimDBError(
                "unknown swizzling policy %r (expected one of %s)"
                % (policy, ", ".join(_POLICIES))
            )
        self.db = db
        self.policy = policy
        #: The OID table, keyed by ``oid.value``: an OID's class hint
        #: never splits one object in two, and an int hashes in C.
        self._resident: Dict[int, MemoryObject] = {}
        #: Private registry: workspaces are per-application caches, and
        #: the E5 ablation compares several of them over one database, so
        #: their counts must not mix in the database-wide registry.
        self.metrics = MetricsRegistry()
        self._m_hits = self.metrics.counter("workspace.hits")
        self._m_faults = self.metrics.counter("workspace.faults")
        self._m_writebacks = self.metrics.counter("workspace.writebacks")
        self.stats = WorkspaceStats(self._m_hits, self._m_faults)
        self.metrics.derived("workspace.hit_rate", lambda: self.stats.hit_rate)

    # -- loading ------------------------------------------------------------

    def __contains__(self, oid: OID) -> bool:
        return oid.value in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def load(self, oid: OID) -> MemoryObject:
        """Fetch an object into the workspace (cache hit if resident).

        Under the eager policy, loading pulls the referenced objects in
        iteratively (breadth-first), so arbitrarily deep reference chains
        never hit the interpreter's recursion limit.
        """
        resident = self._resident.get(oid.value)
        if resident is not None:
            self._m_hits.value += 1
            return resident
        memory_object = self._admit(oid)
        if self.policy == "eager":
            queue, resident = [memory_object], self._resident
            while queue:
                for referenced in queue.pop()._pending_refs():
                    if referenced.value not in resident and self.db.exists(referenced):
                        queue.append(self._admit(referenced))
        return memory_object

    def _admit(self, oid: OID) -> MemoryObject:
        """Fault ``oid`` in: read its shared stored state (authorized and
        S-locked like ``get_state``) and hand it to the memory object as
        it is — it is copied on first write (see :class:`MemoryObject`)."""
        state = self.db.get_shared_state(oid)
        self._m_faults.value += 1
        memory_object = MemoryObject(state.oid, state.class_name, state.values, self)
        self._resident[oid.value] = memory_object
        return memory_object

    # -- traversal helpers -----------------------------------------------------

    def closure(
        self,
        roots: Iterable[OID],
        attributes: Iterable[str],
        max_depth: Optional[int] = None,
    ) -> List[MemoryObject]:
        """Transitive closure through the named reference attributes.

        The CAx access pattern of the paper: "traverse a large collection
        of objects, recursively from one object to other objects related
        to it."  Returns objects in first-visit order.
        """
        attribute_list = list(attributes)
        visited: Set[OID] = set()
        order: List[MemoryObject] = []
        frontier = [(self.load(oid), 0) for oid in roots]
        while frontier:
            memory_object, depth = frontier.pop()
            if memory_object.oid in visited:
                continue
            visited.add(memory_object.oid)
            order.append(memory_object)
            if max_depth is not None and depth >= max_depth:
                continue
            for attr in attribute_list:
                for neighbour in memory_object.refs(attr):
                    if neighbour.oid not in visited:
                        frontier.append((neighbour, depth + 1))
        return order

    # -- write-back --------------------------------------------------------------

    def dirty_objects(self) -> List[MemoryObject]:
        return [obj for obj in self._resident.values() if obj.dirty]

    def flush(self) -> int:
        """Write all dirty objects back through the database.

        Runs in one transaction so a workspace flush is atomic.  Returns
        the number of objects written.
        """
        dirty = self.dirty_objects()
        if not dirty:
            return 0
        with self.db._auto_txn():
            for memory_object in dirty:
                self.db.update(memory_object.oid, memory_object.changes())
                memory_object.changed = None
                self._m_writebacks.inc()
        return len(dirty)

    def evict(self, oid: OID) -> None:
        """Drop one object (must not be dirty)."""
        memory_object = self._resident.get(oid.value)
        if memory_object is None:
            return
        if memory_object.dirty:
            raise KimDBError("cannot evict dirty object %r; flush first" % (oid,))
        del self._resident[oid.value]

    def clear(self) -> None:
        """Drop everything (dirty objects lose their local edits).  The
        pointer tables go too, so the dropped objects are not cyclic
        garbage: reference counting frees them."""
        for memory_object in self._resident.values():
            memory_object._pointers = None
        self._resident.clear()

    def __repr__(self) -> str:
        return "<ObjectWorkspace %s: %d resident, %d dirty>" % (
            self.policy,
            len(self._resident),
            len(self.dirty_objects()),
        )
