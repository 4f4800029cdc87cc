"""MVCC version store: before-images keyed by OID + commit timestamp.

The paper names concurrency control for concurrent transactions a core
open problem for OODBs; this module is the engine's answer for *read*
concurrency.  Writers keep strict two-phase locking (their X locks are
what make in-place updates safe), but before the first in-place write a
transaction makes to an object it installs the object's **before-image**
here.  A read-only query then runs against a :class:`Snapshot` — the
state of the world as of a monotonic commit timestamp — without taking
any scan locks at all: visibility is resolved per object by walking the
version chain back past every write the snapshot must not see.

Visibility rule (``resolve``): given reader snapshot ``S`` over object
``o`` with current stored state ``cur``,

* the reader's own transaction's writes are always visible
  (read-your-own-writes): an own-chain entry short-circuits to ``cur``;
* otherwise walk the chain newest-first; every entry that is
  *invisible* — written by an uncommitted transaction, or committed
  with ``commit_ts > S.ts`` — steps the result back to that entry's
  before-image; the first *visible* committed entry ends the walk.

Because writers hold X locks, at most one uncommitted writer exists per
object and chain entries are naturally ordered newest-first, so the
invisible entries form a prefix of the chain and the walk is exact.
A ``None`` before-image means "did not exist": inserts made after the
snapshot disappear from its scans, deletes made after it are
resurrected from their before-images.

Garbage collection contract: a committed entry with timestamp ``c`` is
needed only by snapshots with ``ts < c``; :meth:`VersionStore.gc`
reclaims every committed entry at or below the oldest live snapshot's
timestamp (all of them when no snapshot is live — future snapshots
begin at the current commit horizon).  Uncommitted entries always
survive; their writer is still running.  An aborted writer's entries
stay as invisible tombstones while snapshots need them
(:meth:`VersionStore.abort`).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..errors import ObjectNotFoundError
from ..obs.metrics import MetricsRegistry

#: Objects one query execution's path memo keeps at most; once full it
#: admits no more (:meth:`SnapshotView.path_memo`).
PATH_MEMO_SIZE = 4096
#: Objects a path memo keeps before, with no hit yet, it stops keeping:
#: a miss that keeps costs ~0.25 us more than one that does not, so
#: references that never repeat would run ~15 % slower (DESIGN "Path
#: memo" has the sweep behind the value).
PATH_MEMO_PROBE = 64
_UNKEPT = object()
#: A dereference: an OID's state, or None.
Deref = Callable[[OID], Optional[ObjectState]]


class _Entry:
    """One before-image: ``txn_id`` overwrote ``oid``; the state before
    its first write was ``before`` (None = the object did not exist)."""

    __slots__ = ("txn_id", "oid", "classes", "before", "commit_ts", "aborted_before")

    def __init__(
        self,
        txn_id: int,
        oid: OID,
        class_name: str,
        before: Optional[ObjectState],
    ) -> None:
        self.txn_id = txn_id
        self.oid = oid
        #: Every extent the writer had the object in: the class it wrote
        #: and, when it moved the object, the before-image's class.
        self.classes = {class_name}
        if before is not None:
            self.classes.add(before.class_name)
        self.before = before
        #: Stamped at commit (monotonic); None while the writer runs.
        self.commit_ts: Optional[int] = None
        #: Set when the writer aborted with snapshots live: the entry is a
        #: tombstone (never committed, so invisible to every snapshot)
        #: that snapshots with a lower id may still need.
        self.aborted_before: Optional[int] = None


class Snapshot:
    """A read timestamp: everything committed at or before ``ts``."""

    __slots__ = ("snapshot_id", "ts", "txn_id", "reads", "_opened_clock")

    def __init__(self, snapshot_id: int, ts: int, txn_id: Optional[int]) -> None:
        self.snapshot_id = snapshot_id
        self.ts = ts
        #: Owning transaction (read-your-own-writes); None for the
        #: ephemeral snapshot of an autocommit read.
        self.txn_id = txn_id
        #: Objects resolved through this snapshot (SysSnapshot).
        self.reads = 0
        self._opened_clock = time.perf_counter()

    @property
    def age_seconds(self) -> float:
        return time.perf_counter() - self._opened_clock

    def __repr__(self) -> str:
        return "<Snapshot %d ts=%d txn=%s>" % (
            self.snapshot_id,
            self.ts,
            self.txn_id,
        )


class VersionStore:
    """In-memory version chains + the commit-timestamp authority.

    All structural state is guarded by ``_store_mutex`` (a leaf in the
    engine lock lattice: nothing else is ever acquired while holding
    it).  Commit-timestamp allocation and entry stamping are one atomic
    step, and snapshot opening reads the commit horizon under the same
    mutex, so a snapshot either sees all of a commit or none of it.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._store_mutex = threading.Lock()
        #: Newest-first before-image chains.
        self._chains: Dict[OID, List[_Entry]] = {}
        #: Uncommitted entries per writer, by OID, install order.
        self._txn_entries: Dict[int, Dict[OID, _Entry]] = {}
        self._snapshots: Dict[int, Snapshot] = {}
        self._next_snapshot_id = 1
        #: The commit horizon: timestamp of the newest committed write.
        self._last_commit_ts = 0
        self._entry_count = 0
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._m_opened = self.metrics.counter("txn.snapshot.opened")
        self._m_closed = self.metrics.counter("txn.snapshot.closed")
        self._m_reads = self.metrics.counter("txn.snapshot.reads")
        self._m_reclaimed = self.metrics.counter("txn.snapshot.gc_reclaimed")
        self._m_live = self.metrics.gauge("txn.snapshot.live")
        self._m_entries = self.metrics.gauge("txn.snapshot.version_entries")

    # -- writer side --------------------------------------------------------

    def record_before(
        self,
        txn_id: int,
        oid: OID,
        class_name: str,
        before: Optional[ObjectState],
    ) -> None:
        """Install ``oid``'s before-image for writer ``txn_id``.

        Called immediately *before* the in-place storage mutation while
        the writer holds its X lock — a snapshot reader that sees the
        new stored state is guaranteed to also see the chain entry that
        steps it back.  Only the first write per (txn, oid) installs an
        entry: the transaction's effects become visible atomically at
        its commit timestamp, so intermediate states are never needed —
        a later write only adds the class it moved the object to.
        """
        with self._store_mutex:
            mine = self._txn_entries.setdefault(txn_id, {})
            entry = mine.get(oid)
            if entry is None:
                entry = mine[oid] = _Entry(txn_id, oid, class_name, before)
                self._chains.setdefault(oid, []).insert(0, entry)
                self._entry_count += 1
                self._m_entries.set(self._entry_count)
            else:
                entry.classes.add(class_name)

    def commit(self, txn_id: int) -> Optional[int]:
        """Stamp the writer's entries with a fresh commit timestamp.

        Called after the WAL commit record is durable and before locks
        are released.  Allocation and stamping are atomic with respect
        to snapshot opening, so no snapshot can observe half a commit.
        Returns the timestamp (None if the transaction wrote nothing).
        """
        with self._store_mutex:
            entries = self._txn_entries.pop(txn_id, None)
            if not entries:
                return None
            self._last_commit_ts += 1
            ts = self._last_commit_ts
            for entry in entries.values():
                entry.commit_ts = ts
            if not self._snapshots:
                self._reclaim_locked(self._last_commit_ts)
            return ts

    def abort(self, txn_id: int) -> None:
        """Retire the writer's entries (its undo restored storage).

        A live snapshot may have loaded the writer's in-place image
        before the undo and not resolved it yet.  So with snapshots live
        the entries stay linked as tombstones: never committed, they are
        invisible to every snapshot, which steps back to ``before`` — the
        restored image.  GC drops them once every snapshot opened before
        the abort has closed; with none live they go at once.
        """
        with self._store_mutex:
            entries = self._txn_entries.pop(txn_id, None)
            if not entries:
                return
            for entry in entries.values():
                if self._snapshots:
                    entry.aborted_before = self._next_snapshot_id
                else:
                    self._unlink_locked(entry)
            self._m_entries.set(self._entry_count)

    def rename_class(self, old_name: str, new_name: str) -> None:
        """File every entry under ``old_name`` under ``new_name`` (a class
        rename): a before-image must name a class the schema still has."""
        with self._store_mutex:
            for chain in self._chains.values():
                for entry in chain:
                    if old_name in entry.classes:
                        entry.classes.remove(old_name)
                        entry.classes.add(new_name)
                    before = entry.before
                    if before is not None and before.class_name == old_name:
                        entry.before = ObjectState(before.oid, new_name, before.values)

    # -- snapshot lifecycle --------------------------------------------------

    def open_snapshot(self, txn_id: Optional[int] = None) -> Snapshot:
        with self._store_mutex:
            snapshot = Snapshot(self._next_snapshot_id, self._last_commit_ts, txn_id)
            self._next_snapshot_id += 1
            self._snapshots[snapshot.snapshot_id] = snapshot
            self._m_opened.inc()
            self._m_live.set(len(self._snapshots))
        return snapshot

    def close_snapshot(self, snapshot: Snapshot) -> None:
        """Release a snapshot and reclaim versions nothing can read."""
        with self._store_mutex:
            if self._snapshots.pop(snapshot.snapshot_id, None) is None:
                return
            self._m_closed.inc()
            self._m_live.set(len(self._snapshots))
            self.gc_locked()

    def live_snapshots(self) -> List[Snapshot]:
        with self._store_mutex:
            return [self._snapshots[sid] for sid in sorted(self._snapshots)]

    # -- reader side ---------------------------------------------------------

    def resolve(
        self,
        oid: OID,
        snapshot: Snapshot,
        current: Optional[ObjectState],
    ) -> Optional[ObjectState]:
        """The state of ``oid`` visible to ``snapshot`` (None = absent).

        ``current`` is the present stored state (or None when the object
        is gone from storage); the chain walk steps it back past every
        write the snapshot must not see.
        """
        snapshot.reads += 1
        self._m_reads.inc()
        chain = self._chains.get(oid) if self._chains else None  # no hash while none exist
        if chain is None:
            return current
        with self._store_mutex:
            result = current
            for entry in chain:
                if entry.txn_id == snapshot.txn_id:
                    # Own write: a transaction always reads its writes.
                    return current
                if entry.commit_ts is not None and entry.commit_ts <= snapshot.ts:
                    break
                result = entry.before
            return result

    def resolve_page(
        self, snapshot: Snapshot, states: Sequence[ObjectState]
    ) -> Sequence[Optional[ObjectState]]:
        """:meth:`resolve` for a page of current stored states.

        The caller reads the states first and only then calls this: a
        writer installs its entry before it mutates storage, so a body
        the read saw has its chain by now.  Reads count once per state;
        the chain walk runs only for objects with a live chain.  Returns
        ``states`` itself when none has one, else a new list holding
        each state's visible version (None = absent).
        """
        chains = self._chains
        plain = len(states)
        out = states
        if chains and not chains.keys().isdisjoint(state.oid for state in states):
            out = []
            for state in states:
                if state.oid in chains:
                    plain -= 1
                    out.append(self.resolve(state.oid, snapshot, state))
                else:
                    out.append(state)
        self.count_reads(snapshot, plain)
        return out

    def count_reads(self, snapshot: Snapshot, n: int) -> None:
        """Count ``n`` objects read through ``snapshot``."""
        snapshot.reads += n
        self._m_reads.inc(n)

    def changed(self, snapshot: Snapshot) -> Dict[OID, Set[str]]:
        """OIDs ``snapshot`` does not read as stored, with their classes.

        An object is changed when its newest chain entry belongs to
        another writer and is invisible to the snapshot; every other
        object resolves to its current stored state, so an index over
        current values is exact for it.  Each OID maps to every class
        its chain is filed under (the snapshot-time class among them).
        """
        if not self._chains:
            return {}
        with self._store_mutex:
            out: Dict[OID, Set[str]] = {}
            for oid, chain in self._chains.items():
                newest = chain[0]
                if newest.txn_id == snapshot.txn_id or (
                    newest.commit_ts is not None and newest.commit_ts <= snapshot.ts
                ):
                    continue
                out[oid] = set().union(*(entry.classes for entry in chain))
            return out

    def written(self, snapshot: Snapshot) -> Dict[OID, Set[str]]:
        """OIDs ``snapshot``'s own transaction wrote, with their classes."""
        if snapshot.txn_id is None or not self._txn_entries:
            return {}
        with self._store_mutex:
            mine = self._txn_entries.get(snapshot.txn_id, {})
            return {oid: set(entry.classes) for oid, entry in mine.items()}

    # -- garbage collection ----------------------------------------------------

    def gc(self) -> int:
        """Reclaim entries no live (or future) snapshot can need."""
        with self._store_mutex:
            return self.gc_locked()

    def gc_locked(self) -> int:
        if not self._chains:
            return 0  # nothing to reclaim: skip the horizon and the walk
        horizon = min(
            (snap.ts for snap in self._snapshots.values()),
            default=self._last_commit_ts,
        )
        return self._reclaim_locked(horizon)

    def _reclaim_locked(self, horizon: int) -> int:
        """Unlink committed entries at or below ``horizon``, and the
        tombstones of aborts no live snapshot predates — compared by
        snapshot id, since an abort moves no commit timestamp."""
        oldest = min(self._snapshots, default=self._next_snapshot_id)
        reclaimed = []
        for chain in self._chains.values():
            for entry in chain:
                if entry.commit_ts is not None:
                    if entry.commit_ts <= horizon:
                        reclaimed.append(entry)
                elif entry.aborted_before is not None and entry.aborted_before <= oldest:
                    reclaimed.append(entry)
        for entry in reclaimed:
            self._unlink_locked(entry)
        if reclaimed:
            self._m_reclaimed.inc(len(reclaimed))
            self._m_entries.set(self._entry_count)
        return len(reclaimed)

    def _unlink_locked(self, entry: _Entry) -> None:
        chain = self._chains.get(entry.oid)
        if chain is None or entry not in chain:
            return
        chain.remove(entry)
        self._entry_count -= 1
        if not chain:
            del self._chains[entry.oid]

    # -- introspection ---------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return self._entry_count

    def snapshot_rows(self) -> Iterator[Dict[str, Any]]:
        """SysSnapshot rows: one per live snapshot, fresh per scan."""
        for snap in self.live_snapshots():
            yield {
                "snapshot": snap.snapshot_id,
                "ts": snap.ts,
                "txn": snap.txn_id,
                "age": snap.age_seconds,
                "reads": snap.reads,
                "entries": self._entry_count,
            }

    def __repr__(self) -> str:
        return "<VersionStore ts=%d entries=%d snapshots=%d>" % (
            self._last_commit_ts,
            self._entry_count,
            len(self._snapshots),
        )


class SnapshotView:
    """Snapshot-aware read hooks: one per snapshot, living as long as it.

    Wraps a :class:`Snapshot` together with the database's storage
    callables (passed in by the owner — this module never reaches into
    the database) and exposes exactly the hooks the physical operators
    need: :attr:`deref` for probe dereferencing, :meth:`path_memo` for
    one execution's path steps and :meth:`scan_pages` for extent scans,
    all resolving visibility through the store.  ``load`` reads a
    stored state (raising :class:`ObjectNotFoundError` for a missing
    OID) and ``scan_pages`` a class's pages of stored states (the
    storage manager's); both come coerced to their class's current
    definition.  A before-image a version chain serves instead was
    coerced when it was written, so it goes through ``coerce``
    (``coerce(class_name, state)``) again: a schema change may have
    come since.  A path memo watches ``storage.write_stamp``, which
    every write and every schema change moves.  The view itself keeps
    nothing: the storage manager's object buffer serves repeat reads.
    ``ephemeral`` marks per-query snapshots the query path must close
    itself (transaction-bound snapshots are closed when the transaction
    finishes).
    """

    def __init__(
        self,
        store: VersionStore,
        snapshot: Snapshot,
        load: Callable[[OID], ObjectState],
        scan_pages: Callable[[str], Iterator[Sequence[ObjectState]]],
        coerce: Callable[[str, ObjectState], ObjectState],
        storage: Any,
        ephemeral: bool = False,
    ) -> None:
        self.store = store
        self.snapshot = snapshot
        self._load = load
        self._scan_pages = scan_pages
        self._coerce = coerce
        self._storage = storage
        self.ephemeral = ephemeral
        #: An OID's state as the snapshot sees it, or None.
        self.deref: Deref = self._reader(False)[0]

    def path_memo(self) -> Tuple[Deref, Callable[[], None]]:
        """:attr:`deref` remembered for one query execution's path steps,
        and the ``flush`` that counts its hits as snapshot reads (DESIGN
        "Path memo")."""
        return self._reader(True)

    def _reader(self, keep: bool) -> Tuple[Deref, Callable[[], None]]:
        """The view's dereference and the ``flush`` that counts its hits.

        A read loads the stored state (None for a missing OID) and
        resolves it through the store; a before-image served instead of
        the stored state is coerced.  With ``keep`` it remembers each
        result, None too, for up to :data:`PATH_MEMO_SIZE` objects; a hit
        serves it unless ``storage.write_stamp`` has moved since, which
        drops everything kept.  Once it keeps :data:`PATH_MEMO_PROBE`
        objects with no hit yet, it stops keeping and only reads."""
        load, resolve, snapshot = self._load, self.store.resolve, self.snapshot
        coerce, storage = self._coerce, self._storage
        kept: Dict[int, Optional[ObjectState]] = {}
        get = kept.get
        stamp = storage.write_stamp
        hits = 0
        keeping = keep

        def read(oid: OID) -> Optional[ObjectState]:
            nonlocal stamp, hits, keeping
            if keeping:
                state = get(oid.value, _UNKEPT)
                if state is not _UNKEPT:
                    if storage.write_stamp == stamp:
                        hits += 1
                        return state
                    kept.clear()
                    stamp = storage.write_stamp
            try:
                current: Optional[ObjectState] = load(oid)
            except ObjectNotFoundError:
                current = None
            state = resolve(oid, snapshot, current)
            if state is not current and state is not None:  # a before-image
                state = coerce(state.class_name, state)
            if keeping and len(kept) < PATH_MEMO_SIZE:
                kept[oid.value] = state
                if not hits and len(kept) == PATH_MEMO_PROBE:
                    keeping = False
                    kept.clear()
            return state

        def flush() -> None:
            nonlocal hits
            self.store.count_reads(snapshot, hits)
            hits = 0

        return read, flush

    def scan_pages(self, class_name: str) -> Iterator[Sequence[ObjectState]]:
        """The class extent as the snapshot sees it, a storage page of
        visible states per sequence — shared and read-only, like the
        states in it: the storage page itself when it is read as stored.

        Each OID comes out once, wherever a write moves its record while
        the scan runs.  A record moved ahead of the scan shows up again
        on a page with a chain for it (the writer installs its entry
        before it touches storage), and is dropped there; one moved off
        the pages the scan reads, or deleted, comes back at the end."""
        store, snapshot, coerce = self.store, self.snapshot, self._coerce
        scanned: List[Sequence[ObjectState]] = []
        seen: Optional[Set[OID]] = None  # built at the first page with a chain
        for page in self._scan_pages(class_name):
            if not page:
                continue
            visible = store.resolve_page(snapshot, page)
            if visible is not page:
                if seen is None:
                    seen = {state.oid for states in scanned for state in states}
                # A reclassed object shows up once, in its snapshot-time
                # class: here only if that is this extent, else resurrected.
                # A row that is not the page's own is a before-image.
                visible = [
                    state if state is row else coerce(class_name, state)
                    for state, row in zip(visible, page)
                    if state is not None
                    and state.class_name == class_name
                    and state.oid not in seen
                ]
            if seen is None:
                scanned.append(page)
            else:
                seen.update(state.oid for state in page)
            yield visible
        # Resurrection: objects of this class the snapshot sees that the
        # storage scan missed — another writer deleted or moved them, or
        # this transaction moved them onto a page grown since it began.
        missed = [
            oid
            for oid, classes in sorted({**self.changed(), **store.written(snapshot)}.items())
            if class_name in classes
        ]
        if not missed:
            return
        if seen is None:
            seen = {state.oid for states in scanned for state in states}
        resurrected = []
        for oid in missed:
            if oid not in seen:
                state = self.deref(oid)
                if state is not None and state.class_name == class_name:
                    resurrected.append(state)
        if resurrected:
            yield resurrected

    def scan(self, class_name: str) -> Iterator[ObjectState]:
        """:meth:`scan_pages`, a row at a time."""
        for page in self.scan_pages(class_name):
            yield from page

    def changed(self) -> Dict[OID, Set[str]]:
        return self.store.changed(self.snapshot)

    def __repr__(self) -> str:
        return "<SnapshotView %r%s>" % (
            self.snapshot,
            " ephemeral" if self.ephemeral else "",
        )
