"""Per-query-shape statistics: kimdb's ``pg_stat_statements``.

Every executed user query is keyed on the *shape fingerprint* the
rewrite pass computes: the normalized AST with each literal value
replaced by its type.  So every literal binding of one query shape
accumulates into one row — twenty point lookups with twenty keys are
one row with ``calls == 20`` — and spellings that normalize alike share
it too.  ``source`` is the first text seen.  Each entry carries call
count, rows examined/matched, index probes, plan-cache hits, per-kind
wait seconds and a bucketed latency histogram whose p50/p95/p99 come
straight off the cumulative buckets.

The accumulator is written once per query at executor close (the
database facade's ``_execute`` and the streaming path's
``QueryStream.close``) and read three ways: the ``SysQueryStat`` system
view, the monitor front end (text panel and Prometheus labeled
histogram series) and the server ``stats`` op.

Invalidation contract (see DESIGN.md): accumulated statistics describe
one world, the epoch ``(Schema.version, IndexManager.epoch)``.  Either
bump changes what a fingerprint *means* — the same normalized AST may
now plan differently — so every entry point compares the epoch with the
stored token and a mismatch purges every entry, each counted once under
``query.stats.invalidations``.  System-view queries are never recorded:
observing the observer must not perturb it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry

#: How the wait-kind taxonomy rolls up into per-query wait columns.
#: ``PageRead``/``PageWrite`` are absent: they are nested inside the
#: ``Buffer*`` episodes already counted (``waits.NESTED_KINDS``).
WAIT_GROUPS = {
    "Lock": "lock_wait",
    "BufferRead": "io_wait",
    "BufferWrite": "io_wait",
    "WALFlush": "wal_wait",
    "WALSync": "wal_wait",
    "WALGroupWait": "wal_wait",
}


class QueryStatEntry:
    """Accumulated statistics for one query shape."""

    __slots__ = (
        "fingerprint",
        "target",
        "source",
        "calls",
        "rows_examined",
        "rows_matched",
        "index_probes",
        "plan_cache_hits",
        "latency",
        "wait_seconds",
    )

    def __init__(
        self,
        fingerprint: str,
        target: str,
        source: Optional[str],
        bounds: Sequence[float],
    ) -> None:
        self.fingerprint = fingerprint
        self.target = target
        #: First query text seen for this shape (display only; None for
        #: hand-built Query objects).
        self.source = source
        self.calls = 0
        self.rows_examined = 0
        self.rows_matched = 0
        self.index_probes = 0
        self.plan_cache_hits = 0
        self.latency = Histogram("query.stats.latency", bounds)
        #: Rolled-up wait seconds per group (lock_wait/io_wait/wal_wait).
        self.wait_seconds: Dict[str, float] = {}

    def row(self) -> Dict[str, Any]:
        """One ``SysQueryStat`` row (plain, wire-encodable values)."""
        latency = self.latency
        return {
            "fingerprint": self.fingerprint,
            "target": self.target,
            "source": self.source or "",
            "calls": self.calls,
            "rows_examined": self.rows_examined,
            "rows_matched": self.rows_matched,
            "index_probes": self.index_probes,
            "plan_cache_hits": self.plan_cache_hits,
            "total_seconds": latency.total,
            "mean_seconds": latency.mean,
            "p50": latency.quantile(0.5),
            "p95": latency.quantile(0.95),
            "p99": latency.quantile(0.99),
            "lock_wait": self.wait_seconds.get("lock_wait", 0.0),
            "io_wait": self.wait_seconds.get("io_wait", 0.0),
            "wal_wait": self.wait_seconds.get("wal_wait", 0.0),
        }


class QueryStats:
    """The per-shape accumulator, one per database.

    Thread-safe: server connection threads record concurrently while the
    monitor scans.  ``_querystats_mutex`` is a leaf in the engine lock
    lattice — nothing else is ever acquired while holding it, and it is
    taken only after the query's pipeline has closed; ``epoch`` (called
    under it) must be a lock-free read.
    """

    #: Retained shapes; beyond this the coldest entry (fewest calls,
    #: oldest on ties) is evicted so an ad-hoc storm of distinct shapes
    #: cannot grow the accumulator without bound.
    DEFAULT_CAPACITY = 512

    def __init__(
        self,
        epoch: Callable[[], Tuple[int, int]],
        metrics: Optional[MetricsRegistry] = None,
        capacity: int = DEFAULT_CAPACITY,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.capacity = capacity
        self._bounds = tuple(bounds)
        self._querystats_mutex = threading.Lock()
        self._entries: Dict[str, QueryStatEntry] = {}
        self._epoch = epoch
        #: The epoch the current entries describe.
        self._token: Optional[Tuple[int, int]] = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_recorded = self.metrics.counter("query.stats.recorded")
        self._m_invalidations = self.metrics.counter("query.stats.invalidations")
        self._m_evictions = self.metrics.counter("query.stats.evictions")
        self._m_fingerprints = self.metrics.gauge("query.stats.fingerprints")

    # -- recording ---------------------------------------------------------

    def record(
        self,
        fingerprint: str,
        target: str,
        source: Optional[str],
        seconds: float,
        examined: int,
        matched: int,
        index_probes: int,
        cache_hit: bool,
        waits: Optional[Dict[str, float]] = None,
    ) -> None:
        """Fold one finished query execution into its shape's entry.

        ``waits`` maps raw wait kinds (``Lock``, ``BufferRead``, ...) to
        seconds blocked during this query, as captured by the wait
        profiler on the executing thread; kinds roll up per
        :data:`WAIT_GROUPS`.
        """
        with self._querystats_mutex:
            self._check_epoch()
            entry = self._entries.get(fingerprint)
            if entry is None:
                entry = QueryStatEntry(fingerprint, target, source, self._bounds)
                self._entries[fingerprint] = entry
            entry.calls += 1
            entry.rows_examined += examined
            entry.rows_matched += matched
            entry.index_probes += index_probes
            if cache_hit:
                entry.plan_cache_hits += 1
            if entry.source is None and source is not None:
                entry.source = source
            entry.latency.observe(seconds)
            for kind, seconds_waited in (waits or {}).items():
                group = WAIT_GROUPS.get(kind)
                if group is None:
                    continue
                entry.wait_seconds[group] = (
                    entry.wait_seconds.get(group, 0.0) + seconds_waited
                )
            # Evict only after this call's counters folded in, so a new
            # fingerprint arriving at capacity (calls=1) outlives a
            # colder resident instead of evicting itself at calls=0.
            while len(self._entries) > self.capacity:
                coldest = min(
                    self._entries, key=lambda fp: self._entries[fp].calls
                )
                del self._entries[coldest]
                self._m_evictions.inc()
            self._m_fingerprints.set(len(self._entries))
        self._m_recorded.inc()

    # -- invalidation ------------------------------------------------------

    def _check_epoch(self) -> None:
        """The staleness rule: a moved epoch purges every entry (mutex held)."""
        token = self._epoch()
        if token != self._token:
            if self._entries:
                self._m_invalidations.inc(len(self._entries))
                self._entries.clear()
                self._m_fingerprints.set(0)
            self._token = token

    # -- reading -----------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[QueryStatEntry]:
        with self._querystats_mutex:
            self._check_epoch()
            return self._entries.get(fingerprint)

    def entries(self) -> List[QueryStatEntry]:
        """Live entries, hottest (most calls) first."""
        with self._querystats_mutex:
            self._check_epoch()
            entries = list(self._entries.values())
        entries.sort(key=lambda e: (-e.calls, e.fingerprint))
        return entries

    def rows(self) -> List[Dict[str, Any]]:
        """``SysQueryStat`` rows, hottest first (fresh snapshot per scan)."""
        return [entry.row() for entry in self.entries()]

    def __len__(self) -> int:
        with self._querystats_mutex:
            self._check_epoch()
            return len(self._entries)

    def __repr__(self) -> str:
        return "<QueryStats %d fingerprints>" % len(self)
