"""The object workspace: a private copy of shared objects, written back.

Memory-resident objects "extend the capabilities of database systems to
the virtual-memory workspace" (Section 3.3), and CAx needs "checkout
and checkin of objects between a shared database and private
databases": here they are one mechanism.  The workspace loads objects
once, serves traversals from memory (swizzling policies ``"lazy"``,
``"eager"`` and ``"none"``, the E5 ablation; see
:mod:`repro.workspace.swizzle`), takes local edits and deletes, and
writes them back through the database, so queries, indexes and
recovery stay correct.

Write-back (``flush``, and ``checkin``, which then releases the
workspace) is one routine: in one transaction, in OID order, it
X-locks and reads each edited, deleted or checked-out object.  A stored
state that is neither the object's baseline
(:attr:`MemoryObject.baseline`) nor equal to it means a commit landed
since the load, and then nothing is written.  ``force`` skips the check, as does an object loaded under a
``pessimistic`` checkout's persistent lock.  A written state becomes
the new baseline."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, NamedTuple, Optional, Set

from ..core.obj import ObjectState
from ..core.oid import OID
from ..errors import KimDBError, ObjectNotFoundError, TransactionError
from ..obs.metrics import Counter, MetricsRegistry
from ..txn.locks import X, object_resource
from .swizzle import MemoryObject

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database

_POLICIES = ("lazy", "eager", "none")

#: Workspace numbers: default names, and persistent-lock owner ids far
#: above the transaction counter.
_numbers = itertools.count()
_LOCK_OWNER_BASE = 1 << 40


class CheckinConflict(NamedTuple):
    """An object whose stored state moved since it was loaded: the
    ``baseline`` values, ``theirs`` (the stored state now, None once
    deleted) and ``mine`` (the changed values, None for a local delete)."""

    oid: OID
    baseline: Dict[str, Any]
    theirs: Optional[ObjectState]
    mine: Optional[Dict[str, Any]]


@dataclass
class CheckinReport:
    """One write-back; with conflicts, nothing was written."""

    written: List[OID] = field(default_factory=list)
    deleted: List[OID] = field(default_factory=list)
    unchanged: List[OID] = field(default_factory=list)
    conflicts: List[CheckinConflict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.conflicts


class WorkspaceStats:
    """``hits`` / ``faults`` / ``hit_rate`` of one workspace's counters, for
    the frozen ledger's ``oo1_traverse``; all else reads ``metrics``."""

    __slots__ = ("_hits", "_faults")

    def __init__(self, hits: Counter, faults: Counter) -> None:
        self._hits, self._faults = hits, faults

    hits = property(lambda self: self._hits.value)
    faults = property(lambda self: self._faults.value)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.faults
        return self.hits / total if total else 0.0


class ObjectWorkspace:
    """An application's private copy of shared objects; ``pessimistic``
    makes :meth:`checkout` take a persistent X lock on each object first."""

    def __init__(
        self, db: "Database", policy: str = "lazy", name: str = "", pessimistic: bool = False
    ) -> None:
        if policy not in _POLICIES:
            raise KimDBError(
                "unknown swizzling policy %r (expected one of %s)"
                % (policy, ", ".join(_POLICIES))
            )
        self.db = db
        self.policy = policy
        number = next(_numbers)
        self.name = name or "workspace-%d" % number
        self.pessimistic = pessimistic
        self._lock_owner = _LOCK_OWNER_BASE + number
        #: The OID table, keyed by ``oid.value``: an OID's class hint
        #: never splits one object in two, and an int hashes in C.
        self._resident: Dict[int, MemoryObject] = {}
        #: Resident objects deleted locally, and those checked out (by
        #: ``oid.value``).
        self._deleted: Set[int] = set()
        self._checked_out: Set[int] = set()
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

    def checkout(self, oids: Iterable[OID]) -> List[OID]:
        """Load the objects that are not resident yet, a ``pessimistic``
        workspace under a persistent X lock taken first; returns them.
        Checked-out objects are validated at write-back, edited or not."""
        taken = []
        for oid in oids:
            if oid.value in self._resident:
                continue
            if self.pessimistic:
                self.db.locks.acquire(self._lock_owner, object_resource(oid), X)
            self.load(oid)
            self._checked_out.add(oid.value)
            taken.append(oid)
        return taken

    # -- traversal helpers -----------------------------------------------------

    def closure(
        self, roots: Iterable[OID], attributes: Iterable[str], max_depth: Optional[int] = None
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

    # -- local edits -------------------------------------------------------------

    def _editable(self, oid: OID) -> MemoryObject:
        memory_object = self._resident.get(oid.value)
        if memory_object is None or oid.value in self._deleted:
            raise TransactionError(
                "object %r is not checked out (or locally deleted) in %s" % (oid, self.name)
            )
        return memory_object

    def update(self, oid: OID, changes: Dict[str, Any]) -> None:
        """Local partial update of a resident object, validated against
        the schema so the private copy stays well-typed."""
        memory_object = self._editable(oid)
        self.db.schema.validate_state(memory_object.class_name, changes, partial=True)
        for name, value in changes.items():
            memory_object.set(name, value)

    def delete(self, oid: OID) -> None:
        """Local delete of a resident object."""
        self._editable(oid)
        self._deleted.add(oid.value)

    def _edited(self, memory_object: MemoryObject) -> bool:
        return bool(memory_object.changed) or memory_object.oid.value in self._deleted

    def edited(self) -> List[OID]:
        """OIDs with local edits or a local delete, in OID order."""
        return sorted(obj.oid for obj in self._resident.values() if self._edited(obj))

    # -- write-back --------------------------------------------------------------

    def flush(self) -> int:
        """Write every local edit and delete back; returns how many
        objects were written.  Raises ``TransactionError`` naming the
        conflicting OIDs, and then writes nothing."""
        report = self._write_back(force=False)
        if report.conflicts:
            raise TransactionError(
                "workspace %s: %s changed since loaded; nothing written"
                % (self.name, ", ".join(repr(c.oid) for c in report.conflicts))
            )
        return len(report.written) + len(report.deleted)

    def checkin(self, force: bool = False) -> CheckinReport:
        """Write back like :meth:`flush`, but return the report; once
        written, the workspace is released.  ``force=True`` overwrites
        concurrent changes."""
        report = self._write_back(force)
        if report.ok:
            self.release()
        return report

    def _write_back(self, force: bool) -> CheckinReport:
        """The one write-back (see the module docstring)."""
        report, written, dropped = CheckinReport(), [], []
        objects = sorted(self._resident.values(), key=attrgetter("oid"))
        checked_out = self._checked_out
        pending = [obj for obj in objects if self._edited(obj) or obj.oid.value in checked_out]
        report.unchanged = [obj.oid for obj in objects if not self._edited(obj)]
        if not pending:
            return report
        db, locks = self.db, self.db.locks
        with db._auto_txn() as txn:
            # The persistent locks serve the write-back and come back
            # before it ends, so nobody else can take them in between.
            held = locks.transfer(self._lock_owner, txn.txn_id)
            try:
                stored = []
                for obj in pending:
                    try:
                        state = db._load_for_write(txn, obj.oid)
                    except ObjectNotFoundError:
                        state = None
                    stored.append(state)
                    baseline = obj.baseline
                    # ``repr`` when ``==`` fails: a NaN read twice is no change.
                    if force or self.pessimistic and obj.oid.value in checked_out or (
                        state is not None
                        and (state.values == baseline or repr(state.values) == repr(baseline))
                    ):
                        continue
                    mine = None if obj.oid.value in self._deleted else obj.changes()
                    theirs = state and state.copy()
                    report.conflicts.append(CheckinConflict(obj.oid, baseline, theirs, mine))
                if report.conflicts:
                    return report
                for obj, state in zip(pending, stored):
                    if state is None or obj.oid.value in self._deleted:
                        dropped.append(obj.oid)
                        if state is not None:  # else vanished, and forced
                            db.delete(obj.oid)
                            report.deleted.append(obj.oid)
                    elif obj.changed:
                        db.update(obj.oid, obj.changes())
                        written.append((obj, db.storage.load(obj.oid).values))
                        report.written.append(obj.oid)
            finally:
                locks.transfer(txn.txn_id, self._lock_owner, held)
        for oid in dropped:
            del self._resident[oid.value]
            self._deleted.discard(oid.value)
        for obj, stored_values in written:
            # The new baseline, shared; the pointers go, as a forced
            # write may have kept another writer's references.
            obj._values, obj._baseline = stored_values, None
            obj._pointers = obj.changed = None
            self._m_writebacks.inc()
        return report

    def evict(self, oid: OID) -> None:
        """Drop one object (must have no local edit)."""
        memory_object = self._resident.get(oid.value)
        if memory_object is None:
            return
        if self._edited(memory_object):
            raise KimDBError("cannot evict edited object %r; flush first" % (oid,))
        del self._resident[oid.value]

    def clear(self) -> None:
        """Drop everything (local edits are lost).  The pointer tables
        go too, so the dropped objects are not cyclic garbage: reference
        counting frees them."""
        for memory_object in self._resident.values():
            memory_object._pointers = None
        self._resident.clear()
        self._deleted.clear()
        self._checked_out.clear()

    def release(self) -> None:
        """Drop everything and the persistent locks, writing nothing."""
        self.db.locks.release_all(self._lock_owner)
        self.clear()

    def __repr__(self) -> str:
        return "<ObjectWorkspace %s %s: %d resident, %d edited>" % (
            self.name, self.policy, len(self._resident), len(self.edited())
        )
