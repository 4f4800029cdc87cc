"""Wait-event profiler: where does the engine spend its blocked time?

The OCB/VOODB benchmark line showed that credible OODB performance work
needs engine-internal event accounting, and every mature database ships
a wait interface (Oracle wait events, Postgres ``pg_stat_activity``,
MySQL performance_schema).  This module is kimdb's: the lock manager,
buffer pool, pager and WAL report every blocking episode as a typed
:class:`WaitEvent` — kind, target, duration, owning transaction and
(for lock waits) the blocking transaction.

The profiler aggregates three ways:

* globally per ``(kind, target)`` — the rows behind the ``SysWaitEvent``
  system view ("which lock / page / log is hottest?");
* per transaction — so ``SysTransaction`` can show how much of a txn's
  life was spent waiting;
* into the shared :class:`~repro.obs.metrics.MetricsRegistry` as
  ``waits.<kind>.count`` counters and ``waits.<kind>.seconds``
  histograms, so waits ride along in every snapshot and bench artifact.

A bounded ring of the most recent events supports the monitor front
end.  All durations are measured with ``time.perf_counter`` (see the
clock convention in :mod:`repro.obs.export`).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry

#: The wait-event taxonomy: every kind the engine emits, mapped to its
#: emitting layer in DESIGN.md.  ``record()`` rejects kinds not listed
#: here, so this tuple (and the DESIGN.md table) stays authoritative;
#: adding a kind is one tuple entry — instruments are created lazily.
WAIT_KINDS = (
    "Lock",        # txn/locks.py — blocked lock acquisition
    "BufferRead",  # storage/buffer.py — pool miss: parse a page from the pager
    "BufferWrite", # storage/buffer.py — dirty eviction / explicit flush
    "PageRead",    # storage/pager.py — raw file read (FilePager only)
    "PageWrite",   # storage/pager.py — raw file write (FilePager only)
    "WALFlush",    # txn/wal.py — commit-time log flush
    "WALSync",     # txn/wal.py — commit-time fsync
    "WALGroupWait",  # txn/wal.py — a committer parked behind another's sync
)

#: Kinds recorded *inside* an episode of another kind: the buffer pool's
#: ``BufferRead``/``BufferWrite`` time spans the pager call that records
#: ``PageRead``/``PageWrite``.  Every roll-up (``total_wait_seconds``,
#: the totals of ``txn_waits``, the per-query wait groups) counts only
#: the outer episode; ``rows()`` and ``by_kind`` still show both.
NESTED_KINDS = frozenset(("PageRead", "PageWrite"))


def _metric_name(kind: str) -> str:
    """``BufferRead`` -> ``buffer_read`` for registry metric names."""
    out = []
    for i, ch in enumerate(kind):
        if ch.isupper() and i > 0:
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


class WaitEvent:
    """One blocking episode, as reported by an engine layer."""

    __slots__ = ("kind", "target", "seconds", "txn_id", "blocker", "trace")

    def __init__(
        self,
        kind: str,
        target: Optional[str],
        seconds: float,
        txn_id: Optional[int] = None,
        blocker: Optional[int] = None,
        trace: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.target = target
        self.seconds = seconds
        self.txn_id = txn_id
        self.blocker = blocker
        self.trace = trace

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "target": self.target,
            "seconds": self.seconds,
            "txn": self.txn_id,
            "blocker": self.blocker,
            "trace": self.trace,
        }

    def __repr__(self) -> str:
        who = " txn=%d" % self.txn_id if self.txn_id is not None else ""
        by = " blocker=%d" % self.blocker if self.blocker is not None else ""
        return "<WaitEvent %s %s %.6fs%s%s>" % (
            self.kind,
            self.target,
            self.seconds,
            who,
            by,
        )


class _Captures(threading.local):
    """A thread's stack of active captures: None until its first
    :meth:`WaitProfiler.capture` (a class-level default, so reading it
    on any other thread raises nothing)."""

    captures: Optional[List[Dict[str, float]]] = None


class _CaptureScope:
    """``WaitProfiler.capture``'s scope: a fresh bucket on the thread's
    capture stack, taken off on exit by identity (not by an equal dict)."""

    __slots__ = ("_local", "_bucket")

    def __init__(self, local: _Captures) -> None:
        self._local = local

    def __enter__(self) -> Dict[str, float]:
        captures = self._local.captures
        if captures is None:
            captures = self._local.captures = []
        bucket: Dict[str, float] = {}
        captures.append(bucket)
        self._bucket = bucket
        return bucket

    def __exit__(self, *exc_info: Any) -> None:
        captures = self._local.captures
        for position in range(len(captures) - 1, -1, -1):
            if captures[position] is self._bucket:
                del captures[position]
                return


class WaitProfiler:
    """Accumulates :class:`WaitEvent` reports from the engine layers.

    Parameters
    ----------
    registry:
        The :class:`MetricsRegistry` (a private one when omitted,
        exposed as ``.metrics``) where every kind gets a
        ``waits.<kind>.count`` counter and ``waits.<kind>.seconds``
        histogram on first use.
    recent_capacity:
        Ring-buffer size for raw recent events (monitor feed).
    txn_capacity:
        How many transactions' wait totals to retain; oldest-seen
        transactions are evicted first so long-lived databases do not
        leak per-txn state.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        recent_capacity: int = 256,
        txn_capacity: int = 512,
    ) -> None:
        self.enabled = True
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.txn_capacity = txn_capacity
        #: Provider for "whose wait is this?" when the reporting layer
        #: has no transaction in hand (buffer/pager/WAL); the database
        #: points this at its transaction manager's per-thread current.
        self.current_txn: Callable[[], Optional[int]] = lambda: None
        #: Provider for the trace id active on the reporting thread; the
        #: database points this at its tracer's ``current_trace``.
        self.current_trace: Callable[[], Optional[str]] = lambda: None
        self._waits_mutex = threading.Lock()
        #: (kind, target) -> [count, total_seconds, max_seconds,
        #:                    last_txn, last_blocker, last_trace]
        self._aggregate: Dict[Tuple[str, Optional[str]], List[Any]] = {}
        #: txn_id -> kind -> [count, total_seconds]  (insertion-ordered
        #: for eviction).
        self._by_txn: Dict[int, Dict[str, List[float]]] = {}
        #: The recent ring: (kind, target, seconds, txn_id, blocker, trace)
        #: tuples, WaitEvent's constructor arguments.
        self._recent: "deque[Tuple[Any, ...]]" = deque(maxlen=recent_capacity)
        self._instruments: Dict[str, Tuple[Any, Any]] = {}
        #: Per-thread stack of active capture dicts (kind -> seconds);
        #: waits are recorded on the blocking thread, so thread-local
        #: capture attributes them to the exact query that blocked.
        self._local = _Captures()

    # -- recording -----------------------------------------------------------

    def _kind_instruments(self, kind: str) -> Tuple[Any, Any]:
        pair = self._instruments.get(kind)
        if pair is None:
            name = _metric_name(kind)
            pair = (
                self.metrics.counter("waits.%s.count" % name),
                self.metrics.histogram("waits.%s.seconds" % name),
            )
            self._instruments[kind] = pair
        return pair

    def record(
        self,
        kind: str,
        seconds: float,
        target: Optional[str] = None,
        txn_id: Optional[int] = None,
        blocker: Optional[int] = None,
    ) -> None:
        """Report one blocking episode of ``seconds`` (perf_counter delta)."""
        instruments = self._instruments.get(kind)
        if instruments is None and kind not in WAIT_KINDS:
            raise ValueError(
                "unknown wait kind %r (known: %s)" % (kind, ", ".join(WAIT_KINDS))
            )
        if not self.enabled:
            return
        if instruments is None:
            instruments = self._kind_instruments(kind)
        if txn_id is None:
            txn_id = self.current_txn()
        trace = self.current_trace()
        captures = self._local.captures
        if captures:
            for capture in captures:
                capture[kind] = capture.get(kind, 0.0) + seconds
        with self._waits_mutex:
            row = self._aggregate.get((kind, target))
            if row is None:
                self._aggregate[(kind, target)] = [
                    1, seconds, seconds, txn_id, blocker, trace,
                ]
            else:
                row[0] += 1
                row[1] += seconds
                if seconds > row[2]:
                    row[2] = seconds
                if txn_id is not None:
                    row[3] = txn_id
                if blocker is not None:
                    row[4] = blocker
                if trace is not None:
                    row[5] = trace
            if txn_id is not None:
                per_txn = self._by_txn.get(txn_id)
                if per_txn is None:
                    while len(self._by_txn) >= self.txn_capacity:
                        self._by_txn.pop(next(iter(self._by_txn)))
                    per_txn = self._by_txn[txn_id] = {}
                totals = per_txn.setdefault(kind, [0, 0.0])
                totals[0] += 1
                totals[1] += seconds
            self._recent.append((kind, target, seconds, txn_id, blocker, trace))
        counter, histogram = instruments
        counter.inc()
        histogram.observe(seconds)

    def capture(self) -> "_CaptureScope":
        """Collect this thread's waits into a ``kind -> seconds`` dict.

        The query-statistics layer wraps each query execution in a
        capture to attribute blocked time to the query's fingerprint.
        Captures nest (an outer capture still sees waits recorded while
        an inner one is active) and cost nothing off-thread: only waits
        recorded *on the capturing thread* land in the dict, which is
        exactly the per-query attribution semantics we want.
        """
        return _CaptureScope(self._local)

    # -- reading -------------------------------------------------------------

    def rows(self) -> List[Dict[str, Any]]:
        """Aggregate rows, one per (kind, target) — the ``SysWaitEvent``
        extent.  Sorted by total wait, hottest first."""
        with self._waits_mutex:
            items = [
                (kind, target, list(values))
                for (kind, target), values in self._aggregate.items()
            ]
        out = []
        for kind, target, (count, total, peak, last_txn, last_blocker, last_trace) in items:
            out.append(
                {
                    "kind": kind,
                    "target": target,
                    "count": count,
                    "total_wait": total,
                    "max_wait": peak,
                    "avg_wait": total / count if count else 0.0,
                    "last_txn": last_txn,
                    "last_blocker": last_blocker,
                    "last_trace": last_trace,
                }
            )
        out.sort(key=lambda row: row["total_wait"], reverse=True)
        return out

    def recent(self, limit: Optional[int] = None) -> List[WaitEvent]:
        """Most recent raw events, newest last."""
        with self._waits_mutex:
            events = list(self._recent)
        if limit is not None:
            events = events[-limit:]
        return [WaitEvent(*event) for event in events]

    def txn_waits(self, txn_id: int) -> Dict[str, Any]:
        """One transaction's accumulated waits: the total (outer episodes
        only, see :data:`NESTED_KINDS`) and every kind on its own."""
        with self._waits_mutex:
            per_txn = {
                kind: list(totals)
                for kind, totals in self._by_txn.get(txn_id, {}).items()
            }
        outer = [t for kind, t in per_txn.items() if kind not in NESTED_KINDS]
        count = sum(int(t[0]) for t in outer)
        seconds = sum(t[1] for t in outer)
        return {
            "count": count,
            "seconds": seconds,
            "by_kind": {
                kind: {"count": int(t[0]), "seconds": t[1]}
                for kind, t in sorted(per_txn.items())
            },
        }

    def total_wait_seconds(self) -> float:
        """Seconds blocked, outer episodes only (:data:`NESTED_KINDS`)."""
        with self._waits_mutex:
            return sum(
                values[1]
                for (kind, _target), values in self._aggregate.items()
                if kind not in NESTED_KINDS
            )

    def reset(self) -> None:
        with self._waits_mutex:
            self._aggregate.clear()
            self._by_txn.clear()
            self._recent.clear()

    def __len__(self) -> int:
        with self._waits_mutex:
            return len(self._aggregate)

    def __repr__(self) -> str:
        return "<WaitProfiler %d targets, %.6fs total%s>" % (
            len(self),
            self.total_wait_seconds(),
            "" if self.enabled else " (disabled)",
        )
