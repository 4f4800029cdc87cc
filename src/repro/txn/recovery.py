"""Crash recovery: repair pages, repeat history, then roll back losers.

An ARIES-shaped (but logical) recovery over the write-ahead log, with a
physical phase in front:

0. **Repair** — sweep data pages verifying checksums; a corrupt (torn)
   page is re-imaged from the newest PAGE_IMAGE record in the log.  The
   buffer pool logs a full page image before every write-back, so any
   page whose write tore has a durable image to restore.
1. **Analysis** — scan the log from the last CHECKPOINT, collecting the
   set of transactions with a COMMIT record (winners) and those without
   (losers).
2. **Redo** — re-apply every logged mutation in log order, winners and
   losers alike (repeating history).  Redo is idempotent: an insert of an
   already-present object becomes an overwrite, a delete of an absent
   object is skipped.
3. **Undo** — walk losers' mutations newest-first applying before-images.

Recovery itself is idempotent: every phase may be interrupted by a
second crash and re-run from scratch.  Phase 0 only writes CRC-verified
images from the log; the logical passes repeat history again; and the
log is not truncated until a later checkpoint, so nothing recovery needs
is consumed by running it.

The storage operations go through a small applier interface so recovery
can drive either a raw storage manager or a full database (with index
rebuild afterwards).
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..core.obj import ObjectState
from ..storage.manager import StorageManager
from .wal import (
    ABORT,
    BEGIN,
    CHECKPOINT,
    COMMIT,
    DELETE,
    INSERT,
    PAGE_IMAGE,
    UPDATE,
    LogRecord,
    WriteAheadLog,
)


class RecoveryReport:
    """What recovery did, for logging and tests."""

    def __init__(self) -> None:
        self.winners: Set[int] = set()
        self.losers: Set[int] = set()
        self.redone = 0
        self.undone = 0
        self.pages_reimaged = 0
        self.pages_reallocated = 0

    def __repr__(self) -> str:
        return (
            "<RecoveryReport %d winners, %d losers, %d redone, %d undone, "
            "%d pages reimaged>"
            % (
                len(self.winners),
                len(self.losers),
                self.redone,
                self.undone,
                self.pages_reimaged,
            )
        )


def _apply_insert(storage: StorageManager, state: ObjectState) -> None:
    if storage.contains(state.oid):
        storage.overwrite(state)
    else:
        storage.store_new(state)


def _apply_delete(storage: StorageManager, state: ObjectState) -> None:
    if storage.contains(state.oid):
        storage.remove(state.oid)


def recover(wal: WriteAheadLog, storage: StorageManager) -> RecoveryReport:
    """Bring ``storage`` to the state implied by the log.

    Counts ``recovery.*`` into ``wal.metrics`` — the database's registry,
    or the log's own private one when it stands alone.
    """
    report = RecoveryReport()
    registry = wal.metrics
    registry.counter("recovery.runs").inc()
    records = list(wal.replay())

    # Phase 0: physical repair.  Re-extend the file over any allocations
    # the crash reverted, then re-image pages whose checksums fail from
    # the newest PAGE_IMAGE each page has in the companion log.
    images: Dict[int, bytes] = {}
    for record in wal.page_images():
        images[record.page_id] = record.page_data
    report.pages_reallocated = storage.ensure_heap_pages()
    report.pages_reimaged = storage.repair_pages(images)
    if report.pages_reimaged or report.pages_reallocated or storage.directory_stale:
        storage.rebuild_directory()
    registry.counter("recovery.pages_reimaged").inc(report.pages_reimaged)
    registry.counter("recovery.pages_reallocated").inc(report.pages_reallocated)

    # Start from the last checkpoint: earlier records are already durable
    # in the data pages (checkpoint = flush + truncate is the normal path,
    # but a checkpoint record without truncation is also honoured).
    start = 0
    for position, record in enumerate(records):
        if record.record_type == CHECKPOINT:
            start = position + 1
    records = records[start:]

    # Pass 1: analysis.
    seen: Set[int] = set()
    finished: Set[int] = set()
    for record in records:
        if record.record_type == BEGIN:
            seen.add(record.txn_id)
        elif record.record_type == COMMIT:
            report.winners.add(record.txn_id)
            finished.add(record.txn_id)
        elif record.record_type == ABORT:
            finished.add(record.txn_id)
    report.losers = seen - finished

    # Pass 2: redo (repeat history in log order).
    for record in records:
        if record.record_type == INSERT and record.after is not None:
            _apply_insert(storage, record.after)
            report.redone += 1
        elif record.record_type == UPDATE and record.after is not None:
            _apply_insert(storage, record.after)
            report.redone += 1
        elif record.record_type == DELETE and record.before is not None:
            _apply_delete(storage, record.before)
            report.redone += 1

    # Pass 3: undo losers, newest-first.  Aborted transactions already
    # compensated before their ABORT record, and their compensations were
    # regular logged mutations replayed by redo, so only losers remain.
    loser_mutations: List[LogRecord] = [
        record
        for record in records
        if record.txn_id in report.losers
        and record.record_type in (INSERT, UPDATE, DELETE)
    ]
    for record in reversed(loser_mutations):
        if record.record_type == INSERT and record.after is not None:
            _apply_delete(storage, record.after)
        elif record.record_type == UPDATE and record.before is not None:
            _apply_insert(storage, record.before)
        elif record.record_type == DELETE and record.before is not None:
            _apply_insert(storage, record.before)
        report.undone += 1

    storage.flush()
    registry.counter("recovery.redone").inc(report.redone)
    registry.counter("recovery.undone").inc(report.undone)
    return report


def checkpoint(wal: WriteAheadLog, storage: StorageManager) -> None:
    """Make data pages durable, then truncate the log."""
    storage.flush()
    wal.log_checkpoint()
    wal.truncate()


def committed_states(wal: WriteAheadLog) -> Dict[int, int]:
    """Map txn id -> mutation count for committed transactions (tests)."""
    counts: Dict[int, int] = {}
    winners: Set[int] = set()
    for record in wal.replay():
        if record.record_type == COMMIT:
            winners.add(record.txn_id)
        elif record.record_type in (INSERT, UPDATE, DELETE):
            counts[record.txn_id] = counts.get(record.txn_id, 0) + 1
    return {txn: count for txn, count in counts.items() if txn in winners}
