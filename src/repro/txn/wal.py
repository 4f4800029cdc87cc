"""Write-ahead log.

Logical logging: every committed mutation is recorded as an insert,
update (with before- and after-images) or delete (with before-image),
framed with a CRC so torn tails are detected instead of replayed.  An
image is an encoded object record: the storage manager hands over the
bytes it stored and replaced, so a write is encoded once, and the log
encodes a state only when a record arrives without its bytes.  The
log is the durability boundary — data pages may be flushed lazily; after
a crash, :mod:`repro.txn.recovery` repeats history from the last
checkpoint and rolls back losers.
"""

from __future__ import annotations

import struct
import threading
import time
import zlib
from typing import Iterator, List, Optional, Tuple

from ..core.obj import ObjectState
from ..errors import RecoveryError
from ..faults import fsync_file, wrap_file
from ..obs.metrics import MetricsRegistry
from ..obs.waits import WaitProfiler
from ..storage.serializer import decode_object, encode_object

# Record types.
BEGIN = 1
INSERT = 2
UPDATE = 3
DELETE = 4
COMMIT = 5
ABORT = 6
CHECKPOINT = 7
#: Physical full-page image, logged by the buffer pool before a page
#: write-back (torn-page protection).  Recovery re-images a page whose
#: checksum fails from the newest image in the log.  Images live in a
#: *companion* physical log (``<path>.pages``), not the logical log:
#: interleaving 4 KiB snapshots with logical records would bloat replay
#: and couple two log streams with independent lifecycles.
PAGE_IMAGE = 8

_TYPE_NAMES = {
    BEGIN: "BEGIN",
    INSERT: "INSERT",
    UPDATE: "UPDATE",
    DELETE: "DELETE",
    COMMIT: "COMMIT",
    ABORT: "ABORT",
    CHECKPOINT: "CHECKPOINT",
    PAGE_IMAGE: "PAGE_IMAGE",
}

_FRAME = struct.Struct(">IIBQ")  # crc, payload length, type, txn id
_PAGE_HEAD = struct.Struct(">I")  # page id prefix of a PAGE_IMAGE payload
_U32 = struct.Struct(">I")  # an image's length prefix
_NO_IMAGE = _U32.pack(0)


def _frame_crc(record_type: int, payload: bytes) -> int:
    """A frame's checksum: CRC-32 of the payload followed by the type
    byte, computed without copying the payload."""
    return zlib.crc32(bytes((record_type,)), zlib.crc32(payload))


class LogRecord:
    """One log entry; ``before``/``after`` are object states or None, and
    ``images`` their encodings as ``(before, after)`` bytes when the
    writer has them (None where it has not: :meth:`payload` encodes).

    ``PAGE_IMAGE`` records carry ``page_id``/``page_data`` instead — a
    physical snapshot, not a logical mutation.
    """

    __slots__ = (
        "lsn", "record_type", "txn_id", "before", "after", "images", "page_id", "page_data",
    )

    def __init__(
        self,
        record_type: int,
        txn_id: int,
        before: Optional[ObjectState] = None,
        after: Optional[ObjectState] = None,
        lsn: int = -1,
        page_id: Optional[int] = None,
        page_data: Optional[bytes] = None,
        images: Tuple[Optional[bytes], Optional[bytes]] = (None, None),
    ) -> None:
        self.record_type = record_type
        self.txn_id = txn_id
        self.before = before
        self.after = after
        self.images = images
        self.lsn = lsn
        self.page_id = page_id
        self.page_data = page_data

    def payload(self) -> bytes:
        if self.record_type == PAGE_IMAGE:
            return _PAGE_HEAD.pack(self.page_id) + (self.page_data or b"")
        parts = []
        for state, encoded in zip((self.before, self.after), self.images):
            if state is None:
                parts.append(_NO_IMAGE)
            else:
                if encoded is None:
                    encoded = encode_object(state)
                parts.append(_U32.pack(len(encoded)))
                parts.append(encoded)
        return b"".join(parts)

    @classmethod
    def from_payload(cls, record_type: int, txn_id: int, payload: bytes, lsn: int) -> "LogRecord":
        if record_type == PAGE_IMAGE:
            (page_id,) = _PAGE_HEAD.unpack_from(payload, 0)
            return cls(
                record_type,
                txn_id,
                lsn=lsn,
                page_id=page_id,
                page_data=payload[_PAGE_HEAD.size :],
            )
        pos = 0
        states: List[Optional[ObjectState]] = []
        for _ in range(2):
            (length,) = struct.unpack_from(">I", payload, pos)
            pos += 4
            if length == 0:
                states.append(None)
            else:
                states.append(decode_object(payload[pos : pos + length]))
                pos += length
        return cls(record_type, txn_id, states[0], states[1], lsn)

    def __repr__(self) -> str:
        return "<LogRecord %d %s txn=%d>" % (
            self.lsn,
            _TYPE_NAMES.get(self.record_type, "?"),
            self.txn_id,
        )


class WriteAheadLog:
    """Append-only log; in-memory when ``path`` is None (tests, ephemeral).

    ``sync_on_commit`` controls whether COMMIT records fsync — the knob
    experiment E13 sweeps.  A commit is an append phase and a sync
    phase: committers append their COMMIT record under the log mutex and
    then enqueue on a condition-variable coordinator where one of them —
    the batch leader — performs a single flush+fsync that durably covers
    *every* commit appended before it ran.  A transaction's ``append``
    only returns once a covering sync has completed, so the durability
    contract is that of per-commit fsync; a lone committer is a batch of
    one whose physical I/O sequence (write, flush, fsync) is exactly
    that, which keeps the seeded fault-injection matrices deterministic.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        sync_on_commit: bool = True,
        registry: Optional[MetricsRegistry] = None,
        waits: Optional[WaitProfiler] = None,
        tracer=None,
    ) -> None:
        self.path = path
        self.sync_on_commit = sync_on_commit
        self._waits = waits
        self._tracer = tracer
        #: Serializes every append (frame write + LSN allocation) and
        #: the flush half of a batch sync.
        self._wal_mutex = threading.Lock()
        #: Group-commit coordinator state: committers enqueue their
        #: append sequence number and wait until ``_synced_seq`` covers
        #: it; at most one leader (``_leader_busy``) syncs at a time.
        self._group_cond = threading.Condition()
        self._appended_seq = 0
        self._synced_seq = 0
        self._leader_busy = False
        self._pending: List[int] = []
        self._records: List[LogRecord] = []  # memory mode only
        self._next_lsn = 0
        self._file = None
        self.metrics = registry if registry is not None else MetricsRegistry()
        registry = self.metrics
        self._appends = registry.counter("wal.appends")
        #: A "flush" is the commit-time durability point: file flush for
        #: durable logs, the COMMIT append itself for in-memory logs.
        self._flushes = registry.counter("wal.flushes")
        self._syncs = registry.counter("wal.syncs")
        self._truncates = registry.counter("wal.truncates")
        self._append_bytes = registry.counter("wal.append_bytes")
        #: Torn tails silently truncated during replay — the expected
        #: crash artifact, but one worth *seeing* when it happens.
        self._torn_tails = registry.counter("fault.wal_torn_tail")
        self._image_appends = registry.counter("wal.page_images")
        self._image_bytes = registry.counter("wal.page_image_bytes")
        #: Group-commit telemetry: batches is fsync rounds, commits is
        #: transactions those rounds covered; batch_size their ratio.
        self._group_batches = registry.counter("wal.group_commit.batches")
        self._group_commits = registry.counter("wal.group_commit.commits")
        self._group_batch_size = registry.histogram("wal.group_commit.batch_size")
        #: Companion physical log holding PAGE_IMAGE frames.
        self.pages_path = path + ".pages" if path is not None else None
        self._pages_file = None
        self._page_images: List[LogRecord] = []  # memory mode only
        if path is not None:
            self._file = wrap_file(open(path, "ab"), "wal:%s" % path, registry)
            self._pages_file = wrap_file(
                open(self.pages_path, "ab"), "wal-pages:%s" % self.pages_path, registry
            )
            # Count pre-existing records so LSNs keep increasing.  A
            # corrupt log is not fatal at open time — recovery's explicit
            # replay() reports it to the caller.
            try:
                for _ in self.replay():
                    pass
            except RecoveryError:
                pass

    # -- writing ------------------------------------------------------------

    def append(self, record: LogRecord) -> int:
        with self._wal_mutex:
            record.lsn = self._next_lsn
            self._next_lsn += 1
            self._appends.inc()
            if self._file is None:
                record.images = (None, None)  # the states suffice here
                self._records.append(record)
                if record.record_type == COMMIT:
                    self._flushes.inc()
                return record.lsn
            frame = self._frame(record)
            self._file.write(frame)
            self._append_bytes.inc(len(frame))
            if record.record_type != COMMIT:
                return record.lsn
            self._appended_seq += 1
            seq = self._appended_seq
        # The frame is appended; durability comes from whichever batch
        # sync covers our sequence number.
        self._await_durable(seq, record.txn_id)
        return record.lsn

    @staticmethod
    def _frame(record: LogRecord) -> bytes:
        """The on-disk form of a record: CRC-framed header + payload."""
        payload = record.payload()
        crc = _frame_crc(record.record_type, payload)
        return (
            _FRAME.pack(crc, len(payload), record.record_type, record.txn_id)
            + payload
        )

    def _await_durable(self, seq: int, txn_id: int) -> None:
        """Block until a batch sync covers append sequence ``seq``.

        The classic leader/follower protocol: every committer enqueues
        its sequence; if no sync is in flight the caller elects itself
        leader and performs one, otherwise it waits — by the time it
        wakes, either some batch covered it (done: one fsync amortized
        over the whole queue) or it takes the leader role itself.  Time
        parked behind another leader's sync is a ``WALGroupWait`` wait
        event, recorded once the condition is released.
        """
        cond = self._group_cond
        parked = 0.0
        with cond:
            self._pending.append(seq)
            while True:
                if self._synced_seq >= seq:
                    leader = False
                    break
                if not self._leader_busy:
                    self._leader_busy = leader = True
                    break
                started = time.perf_counter()
                cond.wait()
                parked += time.perf_counter() - started
        if parked and self._waits is not None:
            self._waits.record("WALGroupWait", parked, target=self.path, txn_id=txn_id)
        if leader:
            self._sync_batch(txn_id)

    def _sync_batch(self, txn_id: int) -> None:
        """Leader half: one flush+fsync covering every appended commit.

        On failure (injected crash, I/O error) ``_synced_seq`` does not
        advance — no follower is ever told it is durable by a sync that
        did not complete — but the leader role is always handed back so
        waiters can re-elect and surface the failure on their own
        commit path.
        """
        covered = 0
        completed = False
        try:
            started = time.perf_counter() if self._waits is not None else 0.0
            with self._wal_mutex:
                covered = self._appended_seq
                self._file.flush()
            self._flushes.inc()
            if self._waits is not None:
                self._waits.record(
                    "WALFlush",
                    time.perf_counter() - started,
                    target=self.path,
                    txn_id=txn_id,
                )
            if self.sync_on_commit:
                started = time.perf_counter() if self._waits is not None else 0.0
                fsync_file(self._file)
                self._syncs.inc()
                if self._waits is not None:
                    self._waits.record(
                        "WALSync",
                        time.perf_counter() - started,
                        target=self.path,
                        txn_id=txn_id,
                    )
            completed = True
        finally:
            with self._group_cond:
                if completed:
                    self._synced_seq = max(self._synced_seq, covered)
                    done = [s for s in self._pending if s <= covered]
                    self._pending = [s for s in self._pending if s > covered]
                    self._group_batches.inc()
                    self._group_commits.inc(len(done))
                    self._group_batch_size.observe(len(done))
                self._leader_busy = False
                self._group_cond.notify_all()

    def log_begin(self, txn_id: int) -> None:
        self.append(LogRecord(BEGIN, txn_id))

    def log_insert(
        self, txn_id: int, after: ObjectState, image: Optional[bytes] = None
    ) -> None:
        """Log an insert; ``image`` is ``after``'s encoding when the
        caller has it (the bytes it stored), as in the two below."""
        self.append(LogRecord(INSERT, txn_id, after=after, images=(None, image)))

    def log_update(
        self,
        txn_id: int,
        before: ObjectState,
        after: ObjectState,
        images: Tuple[Optional[bytes], Optional[bytes]] = (None, None),
    ) -> None:
        self.append(LogRecord(UPDATE, txn_id, before=before, after=after, images=images))

    def log_delete(
        self, txn_id: int, before: ObjectState, image: Optional[bytes] = None
    ) -> None:
        self.append(LogRecord(DELETE, txn_id, before=before, images=(image, None)))

    def log_commit(self, txn_id: int) -> None:
        self.append(LogRecord(COMMIT, txn_id))

    def log_abort(self, txn_id: int) -> None:
        self.append(LogRecord(ABORT, txn_id))

    def log_checkpoint(self) -> None:
        self.append(LogRecord(CHECKPOINT, 0))

    def log_page_image(self, page_id: int, data: bytes) -> None:
        """Record a physical full-page image (torn-page protection).

        Logged by the buffer pool immediately before each dirty page
        write-back; not tied to any transaction (txn id 0).  Images go
        to the companion ``.pages`` log, framed exactly like logical
        records so torn image tails are detected the same way.
        """
        record = LogRecord(PAGE_IMAGE, 0, page_id=page_id, page_data=data)
        self._image_appends.inc()
        if self._pages_file is None:
            self._page_images.append(record)
            return
        frame = self._frame(record)
        with self._wal_mutex:
            self._pages_file.write(frame)
        self._image_bytes.inc(len(frame))

    def sync(self) -> None:
        """Force both logs (physical first, then logical) to stable storage.

        Called by the buffer pool before page write-backs — this is the
        write-ahead rule at both levels: a data page never reaches disk
        ahead of its full-page image *or* of the logical records that
        produced it.
        """
        if self._file is None:
            return
        with self._wal_mutex:
            if self._pages_file is not None:
                self._pages_file.flush()
                fsync_file(self._pages_file)
            self._file.flush()
            fsync_file(self._file)
            self._syncs.inc()

    # -- reading ------------------------------------------------------------

    def _frames(
        self, path: str, label: str, allowed
    ) -> Iterator[Tuple[int, int, bytes]]:
        """Intact ``(record_type, txn_id, payload)`` frames of one log file.

        A torn final frame (partial header or payload, or a CRC mismatch
        at the tail) ends iteration — counted, never raised: that is the
        crash case WAL is designed for.  Corruption *before* the tail,
        or a record type outside ``allowed``, raises RecoveryError.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        pos = 0
        while pos < len(data):
            if pos + _FRAME.size > len(data):
                self._note_torn_tail(path, pos, len(data), "torn frame header")
                break
            crc, length, record_type, txn_id = _FRAME.unpack_from(data, pos)
            frame_end = pos + _FRAME.size + length
            if frame_end > len(data):
                self._note_torn_tail(path, pos, len(data), "torn payload")
                break
            payload = data[pos + _FRAME.size : frame_end]
            if _frame_crc(record_type, payload) != crc:
                if frame_end == len(data):
                    self._note_torn_tail(path, pos, len(data), "checksum mismatch")
                    break
                raise RecoveryError("corrupt %s record at offset %d" % (label, pos))
            if record_type not in allowed:
                raise RecoveryError(
                    "unexpected %s record type %d" % (label, record_type)
                )
            yield record_type, txn_id, payload
            pos = frame_end

    def replay(self) -> Iterator[LogRecord]:
        """All intact records, oldest first (torn tails end iteration
        silently, earlier corruption raises — see :meth:`_frames`)."""
        if self._file is None:
            yield from list(self._records)
            return
        with self._wal_mutex:
            self._file.flush()
        lsn = 0
        for record_type, txn_id, payload in self._frames(self.path, "log", _TYPE_NAMES):
            yield LogRecord.from_payload(record_type, txn_id, payload, lsn)
            lsn += 1
        self._next_lsn = max(self._next_lsn, lsn)

    def page_images(self) -> Iterator[LogRecord]:
        """PAGE_IMAGE records from the companion log, oldest first, with
        the same torn-tail tolerance as :meth:`replay`."""
        if self._pages_file is None:
            yield from list(self._page_images)
            return
        with self._wal_mutex:
            self._pages_file.flush()
        for record_type, txn_id, payload in self._frames(
            self.pages_path, "page-image", (PAGE_IMAGE,)
        ):
            yield LogRecord.from_payload(record_type, txn_id, payload, -1)

    def _note_torn_tail(self, path: Optional[str], offset: int, size: int, reason: str) -> None:
        """Count (and trace) a torn tail truncated during replay.

        The truncation itself is correct crash behaviour; the point is
        that it must never be *silent* — operators diagnosing a recovery
        should see how much log was discarded and why.
        """
        self._torn_tails.inc()
        if self._tracer is not None:
            self._tracer.note(
                "wal.torn_tail",
                path=path,
                offset=offset,
                discarded_bytes=size - offset,
                reason=reason,
            )

    def truncate(self) -> None:
        """Discard both logs (after a checkpoint made data pages durable)."""
        self._truncates.inc()
        if self._file is None:
            self._records.clear()
            self._page_images.clear()
            return
        with self._wal_mutex:
            self._file.close()
            self._file = open(self.path, "wb")
            self._file.close()
            self._file = wrap_file(
                open(self.path, "ab"), "wal:%s" % self.path, self.metrics
            )
            self._pages_file.close()
            self._pages_file = open(self.pages_path, "wb")
            self._pages_file.close()
            self._pages_file = wrap_file(
                open(self.pages_path, "ab"),
                "wal-pages:%s" % self.pages_path,
                self.metrics,
            )

    @property
    def record_count(self) -> int:
        if self._file is None:
            return len(self._records)
        return sum(1 for _ in self.replay())

    def close(self) -> None:
        if self._file is not None and not self._file.closed:
            self._file.flush()
            self._file.close()
        if self._pages_file is not None and not self._pages_file.closed:
            self._pages_file.flush()
            self._pages_file.close()
