"""The kimdb database facade.

Ties the subsystems together into the paper's definition of an OODB: "a
persistent and sharable repository and manager of an object-oriented
database" supporting the core data model *and* all conventional database
features with object-consistent semantics — declarative queries with
optimization, secondary indexing, transactions with locking and WAL
recovery, authorization, schema evolution, versions, composite objects
and views (each implemented in its own subpackage and reachable from
here).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .analysis.diagnostics import DiagnosticReport
from .analysis.plancache import PlanCache
from .analysis.rewrite import RewriteResult, rewrite_query
from .analysis.semantic import SemanticAnalyzer
from .core.attribute import AttributeDef
from .core.klass import ClassDef
from .core.method import MethodDef
from .core.obj import ObjectHandle, ObjectState, copy_value
from .core.oid import OID, OIDGenerator
from .core.schema import Schema
from .errors import ObjectNotFoundError, QueryError, SemanticError, TransactionError
from .index.manager import IndexManager
from .obs.explain import ExplainResult, operator_tree
from .obs.metrics import MetricsRegistry
from .obs.querystats import QueryStats
from .obs.tracing import Tracer
from .obs.waits import WaitProfiler
from .query.ast import AdtPredicate, Query, structural_key
from .query.executor import Executor, ResultSet
from .query.parser import lift_literals, parse_query
from .query.planner import EmptyScan, Plan, Planner, SystemScan
from .storage.clustering import ClusteringPolicy, NoClustering
from .storage.manager import StorageManager
from .storage.serializer import decode_object
from .txn.locks import (
    DATABASE,
    IS,
    IX,
    S,
    X,
    LockManager,
    class_resource,
    object_resource,
)
from .txn.recovery import checkpoint as _checkpoint
from .txn.recovery import recover as _recover
from .txn.transaction import Transaction, TransactionManager
from .txn.wal import WriteAheadLog
from .versions.store import SnapshotView, VersionStore

if TYPE_CHECKING:  # pragma: no cover
    from .workspace.cache import ObjectWorkspace


class _AutoTxn:
    """:meth:`Database._auto_txn`'s scope: the calling thread's current
    transaction, or a new one that commits on exit (aborts on an error)."""

    __slots__ = ("_txns", "_begun")

    def __init__(self, txns: TransactionManager) -> None:
        self._txns = txns
        self._begun: Optional[Transaction] = None

    def __enter__(self) -> Transaction:
        current = self._txns.current
        if current is not None:
            return current
        self._begun = self._txns.begin()
        return self._begun

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._begun is not None:
            return self._begun.__exit__(exc_type, exc, tb)
        return False


class QueryStream:
    """A closable handle over a streaming query (:meth:`Database.select_iter`).

    Pulls the Volcano pipeline lazily; the pipeline already contains the
    caller's visibility check.  ``close()`` is the whole point of the
    class: it deterministically closes every pipeline operator (stopping
    the underlying scans), releases an ephemeral snapshot and runs the
    same finish as :meth:`Database.execute` — an abandoned stream (a
    disconnected client) can never pin the version-GC horizon until
    garbage collection happens to run.
    """

    def __init__(
        self,
        db: "Database",
        pipeline,
        snapshot,
        source: Optional[str],
        started: float,
    ) -> None:
        self._db = db
        self._pipeline = pipeline
        #: The stream's :class:`~repro.versions.store.SnapshotView`
        #: (None for a proven-empty scan).  Ephemeral snapshots are
        #: closed by :meth:`close`, which moves the version GC horizon.
        self._snapshot = snapshot
        #: Query text and start clock, kept for the finish (counters,
        #: fingerprint statistics) that close() runs.
        self._source = source
        self._started = started
        self._rows = pipeline.rows()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def __iter__(self) -> "QueryStream":
        return self

    def __next__(self) -> ObjectHandle:
        return ObjectHandle(self._db, self._next_row().oid)

    def next_state(self) -> ObjectState:
        """Next visible row as its :class:`ObjectState` (server fetch path).

        Returns (a copy of) the snapshot-resolved state instead of a live
        handle — a handle read would see the *current* stored value, not
        the stream's snapshot.
        """
        return self._next_row().copy()

    def next_shared_state(self) -> ObjectState:
        """Next visible row as the stream's own state, not a copy.

        The state is shared and read-only (DESIGN "Stored states are
        shared and read-only"): the caller may read it but must not
        mutate it or hand it on to code that might.  For readers that
        only serialise a row — the server's fetch encodes it straight
        into a frame — and so have no use for :meth:`next_state`'s copy.
        """
        return self._next_row()

    def _next_row(self) -> ObjectState:
        if not self._closed:
            for state in self._rows:
                return state
            self.close()
        raise StopIteration

    def close(self) -> None:
        """Close pipeline operators and release stream-held resources.

        Idempotent.  Only an ephemeral snapshot — not one bound to the
        caller's transaction — is closed.  Elapsed covers open-to-close:
        for a stream, the client's pull pace *is* the query's latency as
        the server sees it.
        """
        if self._closed:
            return
        self._closed = True
        self._pipeline.close()
        self._db._read_close(self._snapshot)
        self._db._finish(self._pipeline, self._source, self._started)

    def __enter__(self) -> "QueryStream":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class Database:
    """An object-oriented database.

    Parameters
    ----------
    path:
        Base path for durable databases (``<path>`` holds data pages,
        ``<path>.meta`` the catalog, ``<path>.wal`` the log).  ``None``
        creates an ephemeral in-memory database.
    clustering:
        A :class:`~repro.storage.clustering.ClusteringPolicy`; defaults
        to no clustering.
    sync_on_commit:
        fsync the WAL on commit (durable databases only); one sync
        covers every transaction whose commit record it flushed.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        page_size: int = 4096,
        buffer_capacity: int = 256,
        clustering: Optional[ClusteringPolicy] = None,
        sync_on_commit: bool = True,
    ) -> None:
        self.path = path
        #: The database-wide observability registry: every subsystem's
        #: counters (buffer.*, pager.*, wal.*, locks.*, index.*,
        #: query.*) report here; ``db.metrics.snapshot()`` is the one
        #: place to read them all.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(capacity=512, registry=self.metrics)
        #: Wait-event profiler: every stall (lock waits, buffer misses,
        #: page I/O, WAL flushes) lands here, tagged with the waiting
        #: transaction; queryable through the SysWaitEvent system view.
        self.waits = WaitProfiler(registry=self.metrics)
        self.storage = StorageManager(
            path, page_size, buffer_capacity, self.metrics, waits=self.waits
        )
        # The persisted catalog is read before anything captures the
        # schema, so a reopened database is wired exactly like a new one.
        catalog = self.storage.load_extra_metadata().get("schema")
        self.schema = Schema.from_dict(catalog) if catalog else Schema()
        # Coerce once, where a state leaves storage; a schema change
        # drops every state coerced before it.
        self.storage.coerce = self.schema.coerce
        self.schema.on_change = self.storage.forget_states
        self.locks = LockManager(self.metrics, waits=self.waits)
        self.wal = WriteAheadLog(
            path + ".wal" if path else None,
            sync_on_commit=sync_on_commit,
            registry=self.metrics,
            waits=self.waits,
            tracer=self.tracer,
        )
        # Torn-page protection: the buffer pool logs a durable full-page
        # image into the WAL before every dirty page write-back, so
        # recovery can re-image a page whose write a crash tore.
        if path is not None:
            self.storage.buffer.attach_page_image_log(
                self.wal.log_page_image, self.wal.sync
            )
        #: MVCC before-image store: writers install pre-mutation states
        #: here (keyed by OID + commit timestamp) so snapshot readers can
        #: reconstruct the database as of their begin timestamp without
        #: blocking or being blocked by writers.
        self.version_store = VersionStore(self.metrics)
        self.txns = TransactionManager(
            self.wal, self.locks, registry=self.metrics,
            version_store=self.version_store,
        )
        self.txns.compensate = self._compensate
        self.waits.current_txn = self._current_txn_id
        self.clustering = clustering or NoClustering()
        self._oids = OIDGenerator()
        self.indexes = IndexManager(
            self.schema, self.storage.scan_class, self._deref, self.metrics
        )
        # Imported here, not at module top: sysviews pulls in the multidb
        # and query layers, which import repro.obs — an eager import from
        # the obs package initializer would cycle through storage.buffer.
        from .obs.sysviews import SystemCatalog

        #: System statistics views (SysStat, SysWaitEvent, SysLock, ...),
        #: queryable like any class through the standard pipeline.
        self.syscat = SystemCatalog(self)
        self.planner = Planner(
            self.schema, self.indexes, self.storage.count_class, self._extent_pages,
            system_catalog=self.syscat,
        )
        #: Plan cache: one template per query shape, one plan per exact
        #: text.  Like the shape statistics below, it purges itself when
        #: it finds the epoch moved (``_epoch``: schema evolution, index
        #: create/drop); extent-size doubling invalidates per text.
        self.plan_cache = PlanCache(self._epoch, self.storage.directory, self.metrics)
        #: Per-query-shape statistics accumulator (SysQueryStat);
        #: recorded at executor close — stale fingerprints describe a
        #: dead world.
        self.query_stats = QueryStats(self._epoch, self.metrics)
        # Waits recorded on a request thread inherit its trace context,
        # so SysWaitEvent rows link back to the client's trace id.
        self.waits.current_trace = lambda: self.tracer.current_trace
        #: The finished pipeline of the last *user* query (system-view
        #: queries never replace it — observing must not perturb the
        #: observed); :attr:`last_operator_stats` reads it.
        self._last_pipeline = None
        self._executor = Executor(
            self._deref, self.storage.scan_pages, self.send, self._adt_eval
        )
        #: Generated WHERE filters, one per predicate shape, shared by
        #: every execution's kernel (``repro.query.compiler``).
        self.filter_shapes = self._executor.shapes
        self._m_parses = self.metrics.counter("query.parses")
        self._m_checks = self.metrics.counter("query.checks")
        self._m_plans = self.metrics.counter("query.plans")
        self._m_executes = self.metrics.counter("query.executes")
        self._m_query_rows = self.metrics.counter("query.rows")
        self._m_examined = self.metrics.counter("query.rows_examined")
        self._m_matched = self.metrics.counter("query.rows_matched")
        self._m_probes = self.metrics.counter("query.index_probes")
        self._m_query_seconds = self.metrics.histogram("query.seconds")
        self._m_rewrites = self.metrics.counter("rewrite.queries")
        self._m_rewrite_rules = self.metrics.counter("rewrite.rules_applied")
        self._m_rewrite_contradictions = self.metrics.counter(
            "rewrite.contradictions"
        )
        # Cost-model decision family (benchgate-gated): how many plans
        # were costed, how many candidates were weighed, and the
        # estimated-vs-actual row totals that expose mis-estimation.
        self._m_cost_decisions = self.metrics.counter("query.cost.decisions")
        self._m_cost_candidates = self.metrics.counter("query.cost.candidates")
        self._m_cost_estimated_rows = self.metrics.counter(
            "query.cost.estimated_rows"
        )
        self._m_cost_actual_rows = self.metrics.counter("query.cost.actual_rows")
        #: Mutation hooks: fn(kind, old_state, new_state); kind in
        #: {"insert", "update", "delete"}.  Pre-hooks may raise to veto.
        self._pre_hooks: List[Callable[[str, Optional[ObjectState], Optional[ObjectState]], None]] = []
        self._post_hooks: List[Callable[[str, Optional[ObjectState], Optional[ObjectState]], None]] = []
        #: Optional subsystem managers, attached by their modules.
        self.authz = None  # set by repro.authz.attach()
        self.mac = None  # set by repro.authz.mandatory.attach_mandatory()
        self.adt = None  # set by repro.adt.attach()
        self.versions = None  # set by repro.versions.attach()
        self.composites = None  # set by repro.composite.attach()
        self.notifications = None  # set by repro.versions.notify.attach()
        self.views = None  # set by repro.views.attach()
        self.roles = None  # set by repro.semantics.attach_roles()
        self.temporal = None  # set by repro.semantics.attach_temporal()
        self.sessions = None  # set by repro.server.Server (SysSession source)
        self._closed = False

        if path is not None:
            _recover(self.wal, self.storage)
            self._oids.advance_past(self.storage.directory.max_oid_value())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush data pages, persist the catalog, truncate the WAL."""
        self.storage.save_metadata({"schema": self.schema.to_dict()})
        _checkpoint(self.wal, self.storage)

    def analyze(self) -> None:
        """Drop cached plans (counted as ``analyze.runs``).

        The planner costs every decision from exact live counts, so
        there are no statistics to collect; this remains only because
        existing callers invoke it, and goes with ROADMAP item 2.
        """
        self.metrics.counter("analyze.runs").inc()
        self.plan_cache.purge()

    def _epoch(self) -> Tuple[int, int]:
        """The world cached query state describes: (schema version,
        index epoch).  Read under leaf cache mutexes, so lock-free."""
        return self.schema.version, self.indexes.epoch

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the database down; safe to call more than once.

        Idempotence matters to the server front end, whose shutdown path
        may race an explicit ``close()`` with the ``with``-statement
        ``__exit__`` — the second call is a no-op instead of flushing
        through already-closed files.
        """
        if self._closed:
            return
        self._closed = True
        self.txns.abort_all_active()
        if self.path is not None:
            self.checkpoint()
        self.storage.close()
        self.wal.close()
        for index in self.indexes.all_indexes():  # see StorageManager.close
            index.clear()
        self.filter_shapes.clear()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # schema definition (delegates, plus heap/locking awareness)
    # ------------------------------------------------------------------

    def define_class(
        self,
        name: str,
        superclasses: Sequence[str] = ("Object",),
        attributes: Sequence[AttributeDef] = (),
        methods: Sequence[MethodDef] = (),
        abstract: bool = False,
        doc: str = "",
        versionable: bool = False,
    ) -> ClassDef:
        return self.schema.define_class(
            name,
            superclasses=superclasses,
            attributes=attributes,
            methods=methods,
            abstract=abstract,
            doc=doc,
            versionable=versionable,
        )

    # Index creation (delegation kept here so applications rarely need
    # to touch the manager directly).

    def create_class_index(self, class_name: str, attribute: str, name: Optional[str] = None):
        return self.indexes.create_class_index(class_name, attribute, name)

    def create_hierarchy_index(self, rooted_class: str, attribute: str, name: Optional[str] = None):
        return self.indexes.create_hierarchy_index(rooted_class, attribute, name)

    def create_nested_index(self, target_class: str, path: Sequence[str], name: Optional[str] = None):
        return self.indexes.create_nested_index(target_class, path, name)

    # ------------------------------------------------------------------
    # internal plumbing
    # ------------------------------------------------------------------

    def _deref(self, oid: OID) -> Optional[ObjectState]:
        try:
            return self.storage.load(oid)
        except ObjectNotFoundError:
            return None

    def _deref_class(self, oid: OID) -> Optional[str]:
        entry = self.storage.directory.try_lookup(oid)
        return entry[0] if entry else None

    def _extent_pages(self, class_name: str) -> int:
        if not self.storage.has_heap(class_name):
            return 0
        return self.storage.heap_for(class_name).page_count

    def _current_txn_id(self) -> Optional[int]:
        """Wait-profiler provider: the calling thread's transaction id."""
        current = self.txns.current
        return current.txn_id if current is not None else None

    def _adt_eval(self, predicate: AdtPredicate, state: ObjectState) -> bool:
        if self.adt is None:
            raise TransactionError(
                "ADT predicate %r used but no ADT registry attached" % predicate.name
            )
        return self.adt.evaluate(predicate, state, self._deref)

    def _auto_txn(self) -> _AutoTxn:
        """Use the current transaction, or wrap the operation in one."""
        return _AutoTxn(self.txns)

    #: Object locks per (txn, class) before escalating to a class lock.
    #: The classic granularity trade: thousands of object locks cost more
    #: than one class lock once fine-grain concurrency no longer pays.
    lock_escalation_threshold: int = 256

    def _lock(self, txn: Transaction, oid: OID, class_name: str, write: bool) -> None:
        top, mid, leaf = (IX, IX, X) if write else (IS, IS, S)
        self.locks.acquire(txn.txn_id, DATABASE, top)
        escalated = txn.escalated_classes.get(class_name)
        if escalated is not None and (not write or escalated == X):
            return  # the class lock already covers this access
        self.locks.acquire(txn.txn_id, class_resource(class_name), mid)
        count = txn.object_lock_counts.get(class_name, 0) + 1
        txn.object_lock_counts[class_name] = count
        if count >= self.lock_escalation_threshold:
            mode = X if write else S
            self.locks.acquire(txn.txn_id, class_resource(class_name), mode)
            txn.escalated_classes[class_name] = mode
            return
        self.locks.acquire(txn.txn_id, object_resource(oid), leaf)

    def add_pre_hook(self, hook) -> None:
        self._pre_hooks.append(hook)

    def add_post_hook(self, hook) -> None:
        self._post_hooks.append(hook)

    def _check_authz(self, action: str, class_name: str, oid: Optional[OID] = None) -> None:
        if self.authz is not None:
            self.authz.check(action, class_name, oid)
        if self.mac is not None and (oid is not None or action != "read"):
            # Class-level reads (queries) are filtered per object instead
            # of denied outright — no covert existence channel.
            self.mac.check(action, class_name, oid)

    # ------------------------------------------------------------------
    # object lifecycle
    # ------------------------------------------------------------------

    def _write(
        self,
        txn: Transaction,
        before: Optional[ObjectState],
        after: Optional[ObjectState],
        near: Optional[OID] = None,
        compensating: bool = False,
    ) -> None:
        """The one mutation primitive (DESIGN "One write path").

        ``before is None`` inserts ``after``, ``after is None`` deletes
        ``before``, both present overwrite — a differing ``class_name``
        moves the object between extents.  The log keeps the bytes the
        storage manager stored and replaced, and the transaction's write
        log the replaced bytes with ``after``; snapshot readers keep
        ``before`` as given, and indexes and hooks, which hold what
        readers see, get both images coerced to the current class
        definition.  Compensation (:meth:`_compensate`) is this call
        with the pair swapped: locks are still held, a rollback cannot
        be vetoed (no pre-hooks), abort drops the version chain (no
        entry).
        """
        state = before if after is None else after
        kind = "insert" if before is None else "delete" if after is None else "update"
        coerce = self.schema.coerce
        old = None if before is None else coerce(before.class_name, before)
        new = None if after is None else coerce(after.class_name, after)
        if not compensating:
            # ``before`` was read under its X lock (_load_for_write);
            # only a new identity — an insert, a reclass's target
            # class — is locked here, so each write counts once
            # toward escalation.
            if before is None or before.class_name != state.class_name:
                self._lock(txn, state.oid, state.class_name, write=True)
            for hook in self._pre_hooks:
                hook(kind, old, new)
            # Entry first (None = "did not exist"), then the storage
            # mutation: a snapshot reader that sees the new stored state
            # must also see the entry that hides it.
            self.version_store.record_before(
                txn.txn_id, state.oid, state.class_name, before and before.copy()
            )
        self.txns.log_begin(txn)
        replaced = None
        if before is None:
            image = self.storage.store_new(after, near=near)
            self.indexes.notify_insert(new)
            self.wal.log_insert(txn.txn_id, after, image)
        elif after is None:
            replaced = self.storage.remove(before.oid)
            self.indexes.notify_delete(old)
            self.wal.log_delete(txn.txn_id, before, replaced)
        else:
            images = self.storage.overwrite(after)
            replaced = images[0]
            self.indexes.notify_update(old, new)
            self.wal.log_update(txn.txn_id, before, after, images)
        if not compensating:
            txn.writes.append((replaced, after))
        for hook in self._post_hooks:
            hook(kind, old, new)

    def _compensate(
        self, txn: Transaction, replaced: Optional[bytes], after: Optional[ObjectState]
    ) -> None:
        """``txns.compensate``: undo one write by putting back the record
        bytes it replaced, decoded only now and as stored — not coerced,
        so a record written under an older class definition comes back
        byte for byte, as recovery's undo brings it back."""
        before = None if replaced is None else decode_object(replaced)
        self._write(txn, after, before, compensating=True)

    def new(
        self,
        class_name: str,
        values: Optional[Dict[str, Any]] = None,
        near: Optional[OID] = None,
    ) -> ObjectHandle:
        """Create and store a new instance of ``class_name``.

        Missing attributes take their declared defaults; the state is
        validated against the schema (domains, multiplicity, required).
        ``near`` overrides the clustering policy's placement hint.
        """
        self._check_authz("create", class_name)
        state_values = self.schema.default_state(class_name)
        state_values.update(values or {})
        self.schema.validate_state(class_name, state_values, self._deref_class)
        state = ObjectState(self._oids.next(class_name), class_name, state_values)
        if near is None:
            near = self.clustering.neighbour_for(self.schema, state)
        with self._auto_txn() as txn:
            self._write(txn, None, state, near=near)
        return ObjectHandle(self, state.oid)

    def get(self, oid: OID) -> ObjectHandle:
        """Handle for an existing object (raises if absent)."""
        self.storage.directory.lookup(oid)
        return ObjectHandle(self, oid)

    def get_state(self, oid: OID) -> ObjectState:
        """Current stored state (read-locked under the active txn).

        A copy the caller owns: stored states are shared and read-only
        (DESIGN "Object buffer"), so every state or list value that
        leaves the engine is a copy.
        """
        return self.get_shared_state(oid).copy()

    def get_shared_state(self, oid: OID) -> ObjectState:
        """:meth:`get_state` without the copy: authorized, S-locked under
        the active txn, coerced — and shared and read-only.  A
        workspace's memory object shares it and copies it on first
        write; the server's ``get`` sends it as is."""
        class_name = self.storage.directory.lookup(oid)[0]
        if self.authz is not None or self.mac is not None:
            self._check_authz("read", class_name, oid)
        current = self.txns.current
        if current is not None:
            self._lock(current, oid, class_name, write=False)
        return self.storage.load(oid)

    def read_state(self, oid: OID) -> ObjectState:
        """Transaction-consistent state: the handle-read path.

        Inside a transaction, resolves the object through the
        transaction's view of its begin snapshot (built lazily and
        shared with its queries) — so ``h["attr"]`` agrees with what the
        same transaction's queries see, including its own uncommitted
        writes (the version store short-circuits the reader's own chain
        to the current stored state).
        Outside a transaction this is exactly :meth:`get_state`.  Either
        way the caller owns the returned copy.
        """
        if self.txns.current is None:
            return self.get_state(oid)
        # The current stored state may already be gone (a concurrent
        # committed delete) while the snapshot still sees the object, so
        # resolve through the version store before deciding existence.
        state = self._snapshot_view().deref(oid)
        if state is None:
            raise ObjectNotFoundError(
                "object %r is not visible to this transaction's snapshot" % (oid,)
            )
        self._check_authz("read", state.class_name, oid)
        return state.copy()

    def exists(self, oid: OID) -> bool:
        return self.storage.contains(oid)

    def class_of(self, oid: OID) -> str:
        return self.storage.class_of(oid)

    def _load_for_write(self, txn: Transaction, oid: OID) -> ObjectState:
        """X-lock ``oid`` under ``txn``, *then* read its stored image.

        Strict 2PL: a writer parked on the lock must wake up to the
        image the previous holder committed (or rolled back to), not to
        one it read before waiting — that image may never have been
        committed, and writing it back resurrects or loses an update.
        """
        class_name = self.storage.class_of(oid)
        self._lock(txn, oid, class_name, write=True)
        state = self.storage.load(oid)
        if state.class_name != class_name:  # reclassed while we waited
            self._lock(txn, oid, state.class_name, write=True)
        return state

    def update(self, oid: OID, changes: Dict[str, Any]) -> ObjectHandle:
        """Apply a partial update to one object."""
        class_name = self.storage.class_of(oid)
        self._check_authz("write", class_name, oid)
        self.schema.validate_state(
            class_name, changes, self._deref_class, partial=True
        )
        with self._auto_txn() as txn:
            stored = self._load_for_write(txn, oid)
            new = stored.copy()
            new.values.update({name: copy_value(value) for name, value in changes.items()})
            self._write(txn, stored, new)
        return ObjectHandle(self, oid)

    def put_state(self, state: ObjectState) -> None:
        """Replace an object's full state (migration paths)."""
        self._check_authz("write", state.class_name, state.oid)
        self.schema.validate_state(state.class_name, state.values, self._deref_class)
        with self._auto_txn() as txn:
            self._write(txn, self._load_for_write(txn, state.oid), state.copy())

    def delete(self, oid: OID) -> None:
        """Delete an object (composite dependents cascade via hooks)."""
        self._check_authz("delete", self.storage.class_of(oid), oid)
        with self._auto_txn() as txn:
            self._write(txn, self._load_for_write(txn, oid), None)

    # ------------------------------------------------------------------
    # behavior
    # ------------------------------------------------------------------

    def send(self, oid: OID, selector: str, *args: Any, **kwargs: Any) -> Any:
        """Message passing with late binding (core concept 6)."""
        class_name = self.storage.class_of(oid)
        meth = self.schema.resolve_method(class_name, selector)
        return meth.invoke(ObjectHandle(self, oid), *args, **kwargs)

    # ------------------------------------------------------------------
    # extents and queries
    # ------------------------------------------------------------------

    def instances(self, class_name: str, hierarchy: bool = True) -> Iterator[ObjectHandle]:
        """All instances, physically ordered per class (see :meth:`_scan`)."""
        for state in self._scan(class_name, hierarchy):
            yield ObjectHandle(self, state.oid)

    def _scan(self, class_name: str, hierarchy: bool = True) -> Iterator[ObjectState]:
        """The extent's shared states, through the snapshot scan that
        ``execute`` runs: a transaction's own view, or outside one an
        ephemeral snapshot, closed when the generator ends or is closed.
        Lock-free, and each object comes out once, even when the
        caller's own updates move its record ahead of the scan or
        reclass it."""
        classes = self.schema.hierarchy_of(class_name) if hierarchy else [class_name]
        view = self._snapshot_view()
        try:
            seen = set()
            for cls in classes:
                for state in view.scan(cls):
                    if state.oid not in seen:
                        seen.add(state.oid)
                        yield state
        finally:
            self._read_close(view)

    def count(self, class_name: str, hierarchy: bool = True) -> int:
        """How many objects :meth:`instances` yields.  The directory's
        counts, read once the snapshot is open, are exact unless it reads
        an object of these classes differently from storage (``changed``,
        read after them: a writer files its chain first); then it scans."""
        classes = self.schema.hierarchy_of(class_name) if hierarchy else [class_name]
        view = self._snapshot_view()
        try:
            stored = sum(self.storage.count_class(cls) for cls in classes)
            changed = self.version_store.changed(view.snapshot)
        finally:
            self._read_close(view)
        scope = set(classes)
        if all(scope.isdisjoint(filed) for filed in changed.values()):
            return stored
        return sum(1 for _ in self._scan(class_name, hierarchy))

    def check(self, query: Union[str, Query]) -> DiagnosticReport:
        """Semantic analysis only: type-check without planning or running.

        Returns the full :class:`~repro.analysis.diagnostics.DiagnosticReport`
        (truthy when the query is well-typed).  The same analysis gates
        :meth:`plan`, :meth:`execute` and :meth:`explain` — an ill-typed
        query raises :class:`~repro.errors.SemanticError` before the
        planner sees it.
        """
        return self._prepare(query, plan=False)[1]

    def plan(self, query: Union[str, Query]) -> Plan:
        return self._prepare(query)[0]

    def execute(self, query: Union[str, Query]) -> ResultSet:
        """Plan and run a query, returning the full result set object."""
        result, _report = self._execute(query, analyze=False)
        return result

    def _prepare(
        self, query: Union[str, Query], plan: bool = True, fresh: bool = False
    ):
        """The one query front door: ``(plan, report, was_view)``.

        Exact-text probe → the shape's template → cold path: parse →
        system/user split → authorization on the *named* target
        (granting read on a view and not its base class is the paper's
        content-based authorization) → view rewrite → semantic gate →
        static rewrite → planner → publish.  A hand-built :class:`Query`
        has no text: it runs the gate and the rewrite, then probes the
        cache by its exact normalized structure.  A plan served by the cache
        is a copy with ``cached`` set (:meth:`Plan.served`), so the flag
        is this call's.  ``check()`` passes ``plan=False``: it gets the
        report back even when the query is ill-typed (no raise) and
        stops before the planner, so the plan is None.  ``explain()``
        passes ``fresh=True``: its analysis runs cold, so every
        diagnostic it renders points into its own text, and only an
        exact repeat's plan comes from the cache.
        """
        source = query if isinstance(query, str) else None
        lifted = None
        if source is not None:
            if plan and not fresh:
                # Authz, the visibility predicate and the snapshot are NOT
                # cached — they are per-caller and per-transaction, so all
                # re-run on every hit.
                text = self.plan_cache.get_source(source)
                if text is not None:
                    self._check_authz("read", text.plan.query.target_class)
                    return text.plan.served(), text.report, False
                lifted = lift_literals(source)
                entry = self.plan_cache.get(lifted[0]) if lifted else None
                if entry is not None:
                    return self._bind(entry, lifted[1], source)
            with self.tracer.span("query.parse"):
                query = parse_query(source)
            self._m_parses.inc()
        # The world the cold path plans in: the cache keeps nothing from it
        # if DDL moves the epoch first.
        epoch = self._epoch()
        # System views are observability metadata, not stored objects: no
        # authorization named target, no view rewrite, no static rewrite,
        # no cache (and, at execution, no snapshot — reading statistics
        # must never block on user data).
        system = self.syscat.is_system(query.target_class)
        was_view = False
        if not system:
            self._check_authz("read", query.target_class)
            if self.views is not None:
                was_view = self.views.is_view(query.target_class)
                query = self.views.rewrite(query)
        report = self._gate(query, source, system)
        if plan and not report.ok:
            raise SemanticError(
                report.render(), report.diagnostics, source=report.source
            )
        # Gate verdicts depend on literal kinds only, which the shape
        # fixes; but some messages quote literal values, so only a clean
        # report is shared by a shape's bindings.
        bindable = not report.diagnostics
        gated = query
        rewritten = None
        if report.ok and not system:
            rewritten = self._rewrite(query, report)
            query = rewritten.query
        if not plan:
            return None, report, was_view
        # View-targeted queries are planned fresh each time: a view
        # redefinition would not bump the schema epoch the cache keys on.
        cacheable = not (system or was_view)
        exact = source
        if cacheable and source is None:
            # A hand-built Query has no text to lift and is never
            # templated: its exact key is its normalized structure with
            # the literals, a tuple, so it never equals a text.
            exact = (rewritten.fingerprint, structural_key(query.where))
        if cacheable and (fresh or source is None):
            text = self.plan_cache.get_source(exact)
            if text is not None:
                return text.plan.served(), report, was_view
        planned = self._plan(query, report.pruned_classes, rewritten)
        if cacheable and source is None:
            self.plan_cache.put(exact[:1], planned, report, exact, None, epoch)
        elif cacheable:
            # Imported here, not at module top: a program that runs no
            # query text does no template work, not even this import.
            from .analysis.template import make_template

            lifted = lifted or lift_literals(source)
            template = None
            if bindable:
                template = make_template(
                    gated, lifted[1], rewritten.shape, planned.shape
                )
            self.plan_cache.put(lifted[0], planned, report, source, template, epoch)
        return planned, report, was_view

    def _bind(self, entry, values: List[Any], source: str):
        """Serve a query text from its shape's template: bind the literals,
        then re-run the rewrite and the cost decision that read them."""
        template = entry.template
        query = template.bind(values)
        self._check_authz("read", query.target_class)
        report = DiagnosticReport(source)
        rewritten = self._rewrite(query, report, template.rewrite_shape)
        planned = self._plan(rewritten.query, (), rewritten, template.plan_shape)
        planned.cached = True
        self.plan_cache.remember(entry, source, planned, report)
        return planned, report, False

    def _plan(
        self,
        query: Query,
        exclude_classes: Sequence[str],
        rewritten: Optional[RewriteResult],
        shape=None,
    ) -> Plan:
        with self.tracer.span("query.plan", target=query.target_class):
            planned = self.planner.plan(
                query,
                exclude_classes=exclude_classes,
                facts=rewritten.facts if rewritten is not None else None,
                shape=shape,
            )
        planned.rewrite = rewritten
        self._m_plans.inc()
        self._record_cost_decision(planned)
        return planned

    def _gate(
        self, query: Query, source: Optional[str], system: bool
    ) -> DiagnosticReport:
        """The one semantic gate: type-check against the schema, or for
        a system view against the system catalog's column definitions."""
        with self.tracer.span("query.check", target=query.target_class):
            if system:
                report = self.syscat.check(query, source)
            else:
                report = SemanticAnalyzer(self.schema, self.adt).check(
                    query, source=source
                )
        self._m_checks.inc()
        return report

    def _rewrite(
        self, query: Query, report: DiagnosticReport, shape=None
    ) -> RewriteResult:
        """The static analysis pass between the gate and the planner.

        Normalizes the WHERE clause and runs interval/type-domain
        analysis; the resulting facts (proven contradiction, sargable
        ranges) feed the planner.  REW diagnostics (informational, never
        errors) are appended to the semantic report so every downstream
        consumer (EXPLAIN, the server's error payloads, ``check()``)
        sees them.  ``shape`` is a template's rewrite shape.
        """
        with self.tracer.span("query.rewrite", target=query.target_class):
            rewritten = rewrite_query(
                self.schema, query, exclude_classes=report.pruned_classes,
                shape=shape,
            )
        self._m_rewrites.inc()
        if rewritten.rules:
            self._m_rewrite_rules.inc(len(rewritten.rules))
        if rewritten.facts.contradiction:
            self._m_rewrite_contradictions.inc()
        report.diagnostics.extend(rewritten.diagnostics)
        return rewritten

    def _record_cost_decision(self, plan: Plan) -> None:
        """Count one fresh planning decision under ``query.cost.*``."""
        decision = plan.cost
        if decision is None:
            return  # system and proven-empty scans: nothing was weighed
        self._m_cost_decisions.inc()
        self._m_cost_candidates.inc(len(decision.candidates))

    def _visibility(self, was_view: bool) -> Optional[Callable[[ObjectState], bool]]:
        """This execution's row-visibility predicate (None: all visible).

        One predicate per execution, evaluated *inside* the pipeline on
        the snapshot-resolved row's own OID and class, before ORDER BY,
        LIMIT and aggregation.  Discretionary per-object filtering is
        skipped for view-targeted queries (the right to the view *is*
        the content-based authorization); mandatory filtering never is
        (discretionary rights never override classification).  Built per
        caller when the read opens — each manager's ``reader()`` binds
        the subject current *now*, so a subject switch mid-stream cannot
        change what an open stream returns — and handed to the compiler,
        never cached with the plan.
        """
        readers = (
            manager.reader()
            for manager in (None if was_view else self.authz, self.mac)
            if manager is not None
        )
        deciders = [allowed for allowed in readers if allowed is not None]
        if not deciders:
            return None
        return lambda row: all(
            allowed(row.oid, row.class_name) for allowed in deciders
        )

    def _read_open(self, plan: Plan) -> Optional[SnapshotView]:
        """Open a query's read side: the view :meth:`_read_close` takes.

        Every read runs lock-free against an MVCC snapshot: inside a
        transaction its begin snapshot, opened once at the first read
        and reused with its view (repeatable reads across the whole
        transaction); outside one an ephemeral snapshot.  A plan that
        touches no storage (proven-empty scan, system view) opens
        nothing.
        """
        if isinstance(plan.access, (EmptyScan, SystemScan)):
            return None
        return self._snapshot_view()

    def _snapshot_view(self) -> SnapshotView:
        """The calling thread's read view (see :meth:`_read_open`).

        A transaction builds its view with its snapshot at the first
        read and keeps it until it finishes; outside a transaction each
        call builds an ephemeral one.
        """
        current = self.txns.current
        if current is None:
            return self._new_view(self.version_store.open_snapshot(None), ephemeral=True)
        if current.view is None:
            current.snapshot = self.version_store.open_snapshot(current.txn_id)
            current.view = self._new_view(current.snapshot, ephemeral=False)
        return current.view

    def _new_view(self, snapshot, ephemeral: bool) -> SnapshotView:
        return SnapshotView(
            self.version_store,
            snapshot,
            self.storage.load,
            self.storage.scan_pages,
            self.schema.coerce,
            self.storage,
            ephemeral=ephemeral,
        )

    def _read_close(self, snapshot: Optional[SnapshotView]) -> None:
        """Undo :meth:`_read_open`: release an ephemeral snapshot, which
        moves the version-GC horizon.  A transaction's bound snapshot is
        left alone — it ends with that transaction."""
        if snapshot is not None and snapshot.ephemeral:
            self.version_store.close_snapshot(snapshot.snapshot)

    def _finish(
        self,
        pipeline,
        source: Optional[str],
        started: float,
        waits: Optional[Dict[str, float]] = None,
    ) -> None:
        """The one query tail, for drained results and closed streams.

        Bumps the ``query.*`` counters off the pipeline's live counters
        and, for user queries, keeps the pipeline for the operator stats and folds
        the execution into the shape accumulator — keyed on the rewrite's
        shape fingerprint, so every literal binding of a shape, and every
        spelling that normalizes alike, shares one SysQueryStat row.
        ``cached`` is this execution's own plan-cache verdict (the
        served copy carries it).  System views and hand-built plans
        carry no rewrite and stop after the counters: observing the
        statistics must not perturb them.
        """
        seconds = time.perf_counter() - started
        self._m_executes.inc()
        self._m_query_rows.inc(pipeline.root.rows_out)
        self._m_examined.inc(pipeline.examined)
        self._m_matched.inc(pipeline.matched)
        self._m_probes.inc(pipeline.index_probes)
        self._m_query_seconds.observe(seconds)
        plan = pipeline.plan
        if isinstance(plan.access, SystemScan):
            return
        self._last_pipeline = pipeline
        rewrite = getattr(plan, "rewrite", None)
        if rewrite is None:
            return
        self.query_stats.record(
            rewrite.fingerprint,
            plan.query.target_class,
            source,
            seconds,
            pipeline.examined,
            pipeline.matched,
            pipeline.index_probes,
            cache_hit=bool(plan.cached),
            waits=waits,
        )
        # Estimated-vs-actual row totals: the ratio of these counters is
        # the cost model's aggregate estimation error (EXPLAIN shows the
        # per-query version via SysQueryStat).
        cost = getattr(plan, "cost", None)
        if cost is not None:
            self._m_cost_estimated_rows.inc(int(round(cost.estimated_rows)))
            self._m_cost_actual_rows.inc(pipeline.matched)

    def _execute(self, query: Union[str, Query], analyze: bool):
        source = query if isinstance(query, str) else None
        started = time.perf_counter()
        with self.tracer.span("query.execute"):
            plan, report, was_view = self._prepare(query, fresh=analyze)
            snapshot = self._read_open(plan)
            try:
                with self.tracer.span(
                    "query.run", access=plan.access.description
                ), self.waits.capture() as waited:
                    if isinstance(plan.access, SystemScan):
                        view = plan.query.target_class
                        result = self._executor.execute_rows(
                            plan,
                            self.syscat.kernel(view),
                            self.syscat.scan,
                            timed=analyze,
                        )
                    else:
                        result = self._executor.execute(
                            plan,
                            timed=analyze,
                            snapshot=snapshot,
                            visible=self._visibility(was_view),
                        )
            finally:
                self._read_close(snapshot)
            if analyze:
                result.analysis = operator_tree(result.plan, result.pipeline)
            self._finish(result.pipeline, source, started, waited)
            return result, report

    def explain(self, query: Union[str, Query]) -> ExplainResult:
        """EXPLAIN ANALYZE: run the query, return the annotated plan.

        The result carries the per-node plan tree (rows produced and
        elapsed time read off the live operator counters, index-vs-scan
        access path) as structured data (``.tree``) and as a rendered
        string (``.render()`` / ``str()``) — the Section 2.2 feedback
        loop between the optimizer's estimates and observed work, made
        auditable.
        """
        with self.tracer.span("query.explain"):
            result, report = self._execute(query, analyze=True)
        rewrite = getattr(result.plan, "rewrite", None)
        entry = (
            self.query_stats.get(rewrite.fingerprint)
            if rewrite is not None
            else None
        )
        return ExplainResult(
            result.plan,
            result.analysis,
            result,
            diagnostics=report,
            querystats=entry,
        )

    def select(self, query: Union[str, Query]) -> List[Any]:
        """Convenience: run a query and return handles (no projections).

        System-view queries (``db.select("SysWaitEvent where ...")``)
        return the statistics row dicts directly — there are no objects
        behind them to hand out.
        """
        result = self.execute(query)
        if result.system:
            return list(result.rows or [])
        return [ObjectHandle(self, oid) for oid in result.oids]

    def select_iter(self, query: Union[str, Query]) -> QueryStream:
        """Stream query results as handles, one at a time.

        The Volcano pipeline is pulled lazily: nothing is materialized,
        and abandoning the stream (or a LIMIT upstream) stops the
        underlying scan early.  Aggregates and projections need the
        materializing :meth:`execute` path and are rejected here.
        Per-object authorization and mandatory filtering run inside the
        pipeline, the same check in the same position as :meth:`execute`.

        Returns a :class:`QueryStream` (iterable, context manager).  The
        stream runs lock-free against its begin snapshot, which is
        closed — moving the version GC horizon — when the stream is
        exhausted or closed.
        """
        source = query if isinstance(query, str) else None
        started = time.perf_counter()
        plan, _report, was_view = self._prepare(query)
        if isinstance(plan.access, SystemScan):
            raise QueryError(
                "select_iter yields object handles; system views have "
                "none — use execute() or select()"
            )
        if plan.query.aggregates:
            raise QueryError("select_iter does not support aggregate queries")
        if plan.query.projections is not None:
            raise QueryError("select_iter does not support projection queries")
        snapshot = self._read_open(plan)
        try:
            pipeline = self._executor.pipeline(
                plan, snapshot=snapshot, visible=self._visibility(was_view)
            )
            pipeline.open()
        except BaseException:
            self._read_close(snapshot)
            raise
        return QueryStream(self, pipeline, snapshot, source, started)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    @property
    def last_operator_stats(self) -> Optional[List[Dict[str, Any]]]:
        """Per-operator counters of the last user query, leaf first (the
        SysOperator view), built from its finished pipeline when read."""
        pipeline = self._last_pipeline
        return pipeline.operator_stats() if pipeline is not None else None

    _UNSET = object()

    def configure_observability(
        self,
        slow_threshold: Any = _UNSET,
        tracing: Optional[bool] = None,
        wait_profiling: Optional[bool] = None,
    ) -> None:
        """Adjust the observability layer at runtime.

        ``slow_threshold`` (seconds, or None to disable the slow log)
        forwards to :meth:`~repro.obs.tracing.Tracer.set_slow_threshold`;
        ``tracing`` and ``wait_profiling`` toggle span recording and the
        wait-event profiler.  Omitted arguments leave settings untouched.
        """
        if slow_threshold is not Database._UNSET:
            self.tracer.set_slow_threshold(slow_threshold)
        if tracing is not None:
            self.tracer.enabled = bool(tracing)
        if wait_profiling is not None:
            self.waits.enabled = bool(wait_profiling)

    # ------------------------------------------------------------------
    # transactions & workspaces
    # ------------------------------------------------------------------

    def transaction(self) -> Transaction:
        """Begin an explicit transaction (usable as a context manager)."""
        return self.txns.begin()

    def workspace(self, name: str = "", pessimistic: bool = False) -> "ObjectWorkspace":
        """A private copy for long-duration (checkout/checkin) work."""
        # Imported here: a program that opens no workspace loads none.
        from .workspace.cache import ObjectWorkspace

        return ObjectWorkspace(self, name=name, pessimistic=pessimistic)

    def __repr__(self) -> str:
        return "<Database %s: %d classes, %d objects>" % (
            self.path or "memory",
            sum(1 for _ in self.schema.user_classes()),
            len(self.storage.directory),
        )
