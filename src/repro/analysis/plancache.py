"""The normalized-plan cache.

Hot queries pay the parse → semantic-analysis → rewrite → plan pipeline
once: plans are cached under the rewrite pass's normalized-AST
fingerprint, so *structurally equal* queries (same canonical form after
constant folding, NOT-pushdown, CNF and commutative ordering) share one
entry regardless of how they were spelled.  A second map keyed on the
raw source text lets a repeated identical query string skip even parsing.

An entry is valid only for the world it was planned in.  One rule
covers the whole cache: the **epoch** ``(Schema.version,
IndexManager.epoch)`` is compared with the cache's stored token at every
entry point, and a moved epoch — any schema evolution, any index
create/drop — drops every entry.  ANALYZE applies the same purge
(:meth:`PlanCache.purge`), so the next lookup re-plans under the new
catalog.  Per entry, only the **extent scale** is checked: a per-class
``log2`` bucket of extent sizes, so a plan chosen when a class held 100
objects is thrown away once the data has doubled and the scan-vs-probe
tradeoff may have flipped.  The **analysis-facts digest** (contradiction
flag and sargable ranges the plan was built with) is recorded for
observability via ``SysPlanCache``.

Every dropped entry counts once as ``query.plan_cache.invalidations``;
capacity evictions are LRU.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Default maximum number of cached plans.
DEFAULT_CAPACITY = 256


class PlanCacheEntry:
    """One cached plan plus the extent scale it was built under."""

    __slots__ = (
        "fingerprint",
        "plan",
        "report",
        "extent_scale",
        "facts_digest",
        "hits",
        "created",
        "source",
    )

    def __init__(
        self,
        fingerprint: str,
        plan: Any,
        report: Any,
        extent_scale: Any,
        facts_digest: str,
        source: Optional[str],
    ) -> None:
        self.fingerprint = fingerprint
        self.plan = plan
        self.report = report
        self.extent_scale = extent_scale
        self.facts_digest = facts_digest
        self.hits = 0
        self.created = time.perf_counter()
        #: The raw query text this entry was first planned from (None
        #: for hand-built Query objects); display only.
        self.source = source


class PlanCache:
    """LRU cache of planned queries, keyed on normalized-AST fingerprints.

    Thread-safe: the server plans queries from connection threads while
    ANALYZE may purge from another.  The internal mutex is leaf-level —
    no engine lock is ever acquired while holding it, which is why
    ``epoch`` (called under it) must be a lock-free read.
    """

    def __init__(
        self,
        epoch: Callable[[], Tuple[int, int]],
        extent_count: Any,
        metrics: Any,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self._epoch = epoch
        #: The epoch the current entries were planned in.
        self._token: Optional[Tuple[int, int]] = None
        self._extent_count = extent_count
        self._plan_cache_mutex = threading.Lock()
        self._entries: "OrderedDict[str, PlanCacheEntry]" = OrderedDict()
        #: Raw query text -> fingerprint, for the skip-the-parser path.
        self._sources: Dict[str, str] = {}
        self.capacity = capacity
        self._m_hits = metrics.counter("query.plan_cache.hits")
        self._m_misses = metrics.counter("query.plan_cache.misses")
        self._m_invalidations = metrics.counter("query.plan_cache.invalidations")
        self._m_evictions = metrics.counter("query.plan_cache.evictions")

    # -- validity ----------------------------------------------------------

    def _check_epoch(self) -> None:
        """The staleness rule: a moved epoch drops every entry (mutex held)."""
        token = self._epoch()
        if token != self._token:
            self._purge()
            self._token = token

    def _scale_of(self, scope: Any) -> Any:
        """Extent sizes bucketed by bit length: invalidation on doubling."""
        return tuple(
            int(self._extent_count(cls)).bit_length() for cls in sorted(scope)
        )

    def _valid(self, entry: PlanCacheEntry) -> bool:
        return entry.extent_scale == self._scale_of(entry.plan.scope)

    # -- lookup ------------------------------------------------------------

    def get_source(self, source: str) -> Optional[PlanCacheEntry]:
        """Entry for a raw query string — the skip-even-parsing fast path.

        Counts a hit on success but *not* a miss on failure: the caller
        falls through to the fingerprint-level :meth:`get`, which owns
        the hit/miss accounting for the slow path.
        """
        with self._plan_cache_mutex:
            self._check_epoch()
            fingerprint = self._sources.get(source)
            if fingerprint is None:
                return None
            entry = self._entries.get(fingerprint)
            if entry is None:
                del self._sources[source]
                return None
            if not self._valid(entry):
                self._drop(fingerprint)
                self._m_invalidations.inc()
                return None
            self._entries.move_to_end(fingerprint)
            entry.hits += 1
            self._m_hits.inc()
            return entry

    def get(
        self, fingerprint: str, source: Optional[str] = None
    ) -> Optional[PlanCacheEntry]:
        """Entry for a normalized-AST fingerprint (post-rewrite path)."""
        with self._plan_cache_mutex:
            self._check_epoch()
            entry = self._entries.get(fingerprint)
            if entry is not None and not self._valid(entry):
                self._drop(fingerprint)
                self._m_invalidations.inc()
                entry = None
            if entry is None:
                self._m_misses.inc()
                return None
            self._entries.move_to_end(fingerprint)
            entry.hits += 1
            self._m_hits.inc()
            if source is not None:
                self._sources[source] = fingerprint
            return entry

    def put(
        self,
        fingerprint: str,
        plan: Any,
        report: Any,
        facts_digest: str,
        source: Optional[str] = None,
    ) -> PlanCacheEntry:
        entry = PlanCacheEntry(
            fingerprint,
            plan,
            report,
            self._scale_of(plan.scope),
            facts_digest,
            source,
        )
        with self._plan_cache_mutex:
            self._check_epoch()
            self._entries[fingerprint] = entry
            self._entries.move_to_end(fingerprint)
            if source is not None:
                self._sources[source] = fingerprint
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._purge_sources(evicted)
                self._m_evictions.inc()
        return entry

    # -- invalidation ------------------------------------------------------

    def purge(self) -> None:
        """Drop every entry — ANALYZE's half of the staleness rule."""
        with self._plan_cache_mutex:
            self._purge()

    def _purge(self) -> None:
        if self._entries:
            self._m_invalidations.inc(len(self._entries))
            self._entries.clear()
        self._sources.clear()

    def _drop(self, fingerprint: str) -> None:
        self._entries.pop(fingerprint, None)
        self._purge_sources(fingerprint)

    def _purge_sources(self, fingerprint: str) -> None:
        stale = [src for src, fp in self._sources.items() if fp == fingerprint]
        for src in stale:
            del self._sources[src]

    # -- observability -----------------------------------------------------

    def __len__(self) -> int:
        with self._plan_cache_mutex:
            self._check_epoch()
            return len(self._entries)

    def rows(self) -> List[Dict[str, Any]]:
        """Row dicts for the ``SysPlanCache`` system view."""
        now = time.perf_counter()
        with self._plan_cache_mutex:
            self._check_epoch()
            entries = list(self._entries.values())
            schema_epoch, index_epoch = self._token
        out: List[Dict[str, Any]] = []
        for entry in entries:
            rewrite = getattr(entry.plan, "rewrite", None)
            out.append(
                {
                    "fingerprint": entry.fingerprint,
                    "target": entry.plan.query.target_class,
                    "source": entry.source or "",
                    "access": entry.plan.access.description,
                    "hits": entry.hits,
                    "schema_epoch": schema_epoch,
                    "index_epoch": index_epoch,
                    "rules": (
                        ",".join(sorted({name for name, _ in rewrite.rules}))
                        if rewrite is not None
                        else ""
                    ),
                    "age_seconds": now - entry.created,
                }
            )
        return out
