"""Transaction lifecycle.

Conventional short transactions with ACID semantics (requirement 2 of the
paper's minimum definition): strict two-phase locking via the lock
manager, logical undo for rollback, WAL records for durability.  The
database layer appends a ``(replaced, after)`` pair to the
transaction's write log for every mutation — the record bytes the write
replaced and the state it stored; abort hands them newest-first to the
manager's ``compensate`` hook, then both paths release all locks.  The
log is plain values, so a finished transaction is freed by reference
counting and never becomes cyclic garbage.  BEGIN goes into the WAL
just before a transaction's first write, and COMMIT or ABORT only after
a BEGIN: a read-only transaction appends nothing and takes no
group-commit turn.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.obj import ObjectState
from ..errors import TransactionError
from ..obs.metrics import MetricsRegistry
from .locks import LockManager
from .wal import WriteAheadLog

ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


class Transaction:
    """One unit of work."""

    def __init__(self, txn_id: int, manager: "TransactionManager") -> None:
        self.txn_id = txn_id
        self._manager = manager
        self.status = ACTIVE
        #: Wall-clock begin timestamp (display only; ages use the
        #: perf_counter twin below per the obs clock convention).
        self.started_at = time.time()  # lint: ignore[wall-clock-duration]
        self._started_clock = time.perf_counter()
        #: The write log: one ``(replaced, after)`` pair per mutation, in
        #: order — the record bytes replaced and the state stored
        #: (``Database._write``; ``None`` = "did not exist").
        self.writes: List[Tuple[Optional[bytes], Optional[ObjectState]]] = []
        #: Whether BEGIN is in the log: it goes out just before the
        #: transaction's first write (:meth:`TransactionManager.log_begin`),
        #: so a transaction that writes nothing logs and syncs nothing.
        self.logged = False
        #: Lock-escalation bookkeeping (maintained by the database):
        #: object-lock counts per class, and classes escalated to a
        #: class-level lock ("S" or "X").
        self.object_lock_counts: Dict[str, int] = {}
        self.escalated_classes: Dict[str, str] = {}
        #: The transaction's read snapshot (a
        #: :class:`~repro.versions.store.Snapshot`), opened lazily by
        #: the database at the transaction's first snapshot read and
        #: closed by the manager when the transaction finishes.
        self.snapshot = None
        #: The :class:`~repro.versions.store.SnapshotView` over
        #: ``snapshot``, built beside it: every read of the transaction
        #: shares it; dropped at finish.
        self.view = None

    # -- state ------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self.status == ACTIVE

    @property
    def operations(self) -> int:
        """Mutation count, for tests and the WAL experiment."""
        return len(self.writes)

    @property
    def age_seconds(self) -> float:
        """Seconds since begin (perf_counter-based)."""
        return time.perf_counter() - self._started_clock

    def _require_active(self) -> None:
        if self.status != ACTIVE:
            raise TransactionError(
                "transaction %d is %s, not active" % (self.txn_id, self.status)
            )

    # -- completion ----------------------------------------------------------

    def commit(self) -> None:
        self._manager.commit(self)

    def abort(self) -> None:
        self._manager.abort(self)

    # -- context manager: commit on success, abort on exception --------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.status != ACTIVE:
            return False
        if exc_type is None:
            self.commit()
        else:
            self.abort()
        return False

    def __repr__(self) -> str:
        return "<Transaction %d %s (%d ops)>" % (
            self.txn_id,
            self.status,
            self.operations,
        )


class _ThreadState(threading.local):
    """A thread's current transaction and rollback flag.  The class-level
    defaults answer a thread that never set them, without the raised
    and caught ``AttributeError`` of ``getattr`` on a plain local."""

    txn: Optional[Transaction] = None
    rolling_back = False


class TransactionManager:
    """Begins, commits and aborts transactions; tracks the per-thread
    current transaction so the database can autocommit single operations.
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        locks: LockManager,
        registry: Optional[MetricsRegistry] = None,
        version_store=None,
    ) -> None:
        self.wal = wal
        self.locks = locks
        #: Optional :class:`~repro.versions.store.VersionStore`: commit
        #: stamps before-images with the new commit timestamp, abort
        #: discards them, and finish closes the transaction's snapshot.
        self.version_store = version_store
        self._next_id = 1
        self._id_mutex = threading.Lock()
        self._active: Dict[int, Transaction] = {}
        self._current = _ThreadState()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._m_active = self.metrics.gauge("txn.active")
        self._m_commits = self.metrics.counter("txn.commits")
        self._m_aborts = self.metrics.counter("txn.aborts")
        #: ``compensate(txn, replaced, after)`` undoes one logged write on
        #: abort; the database sets it (its write path, pair swapped).
        self.compensate: Callable[..., None] = lambda txn, replaced, after: None

    # -- current-transaction tracking ---------------------------------------

    @property
    def current(self) -> Optional[Transaction]:
        txn = self._current.txn
        if txn is not None and not txn.is_active:
            self._current.txn = None
            return None
        return txn

    @property
    def rolling_back(self) -> bool:
        """True while this thread's abort is replaying compensations:
        cascading side-effects (composite delete propagation) are
        suppressed — each mutation has its own compensation."""
        return self._current.rolling_back

    def begin(self) -> Transaction:
        if self.current is not None:
            raise TransactionError(
                "transaction %d is already active on this thread"
                % self.current.txn_id
            )
        with self._id_mutex:
            txn_id = self._next_id
            self._next_id += 1
        txn = Transaction(txn_id, self)
        self._active[txn_id] = txn
        self._m_active.set(len(self._active))
        self._current.txn = txn
        return txn

    def log_begin(self, txn: Transaction) -> None:
        """Log ``txn``'s BEGIN unless it is in the log already; the
        database calls it before each write's storage change."""
        if not txn.logged:
            self.wal.log_begin(txn.txn_id)
            txn.logged = True

    def attach(self, txn: Transaction) -> None:
        """Bind ``txn`` as the calling thread's current transaction.

        With :meth:`detach` this lets one thread interleave several
        transactions (park one, work under another, come back), while
        the engine's thread-local autocommit logic keeps working
        unchanged.
        """
        current = self.current
        if current is not None and current is not txn:
            raise TransactionError(
                "transaction %d is already active on this thread; cannot "
                "attach transaction %d" % (current.txn_id, txn.txn_id)
            )
        txn._require_active()
        self._current.txn = txn

    def detach(self) -> Optional[Transaction]:
        """Unbind and return the calling thread's current transaction.

        The transaction stays active (locks, undo log, WAL state are
        untouched) — it is merely no longer this thread's implicit
        transaction.  Returns ``None`` when the thread had none.
        """
        txn = self.current
        self._current.txn = None
        return txn

    @contextlib.contextmanager
    def bound(self, txn: Transaction) -> Iterator[Transaction]:
        """Run a block with ``txn`` attached to the calling thread.

        On exit the binding is removed again (unless the transaction
        already finished inside the block, which clears it itself).
        """
        self.attach(txn)
        try:
            yield txn
        finally:
            if self._current.txn is txn:
                self._current.txn = None

    def commit(self, txn: Transaction) -> None:
        txn._require_active()
        if txn.logged:
            self.wal.log_commit(txn.txn_id)
        # Only after the commit record is durable does the write become
        # visible: stamping the version-store entries with the new
        # commit timestamp is what moves the snapshot horizon forward.
        if self.version_store is not None:
            self.version_store.commit(txn.txn_id)
        txn.status = COMMITTED
        self._finish(txn)
        self._m_commits.inc()

    def abort(self, txn: Transaction) -> None:
        txn._require_active()
        # Compensate newest-first while still holding all locks.
        self._current.rolling_back = True
        try:
            for replaced, after in reversed(txn.writes):
                self.compensate(txn, replaced, after)
        finally:
            self._current.rolling_back = False
        if txn.logged:
            self.wal.log_abort(txn.txn_id)
        if self.version_store is not None:
            self.version_store.abort(txn.txn_id)
        txn.status = ABORTED
        self._finish(txn)
        self._m_aborts.inc()

    def _finish(self, txn: Transaction) -> None:
        txn.view = None
        if txn.snapshot is not None:
            if self.version_store is not None:
                self.version_store.close_snapshot(txn.snapshot)
            txn.snapshot = None
        self.locks.release_all(txn.txn_id)
        self._active.pop(txn.txn_id, None)
        self._m_active.set(len(self._active))
        if self._current.txn is txn:
            self._current.txn = None

    # -- introspection --------------------------------------------------------

    def active_transactions(self) -> List[int]:
        return sorted(self._active)

    def active_snapshot(self) -> List[Transaction]:
        """The live :class:`Transaction` objects, id order (SysTransaction)."""
        return [self._active[txn_id] for txn_id in sorted(self._active)]

    def abort_all_active(self) -> None:
        """Abort every in-flight transaction (shutdown path)."""
        for txn_id in self.active_transactions():
            txn = self._active.get(txn_id)
            if txn is not None and txn.is_active:
                self.abort(txn)
