"""The plan cache: one entry per query shape, one plan per exact text.

A query text's *shape* is its token stream with the literals lifted out
(:func:`repro.query.parser.lift_literals`).  Two LRU tables share one
mutex.  **Shapes**: each entry holds the
:class:`~repro.analysis.template.QueryTemplate` the first text of the
shape published — the gated AST with a slot per literal plus the rewrite
and planning work no literal changes — or None for a shape the front
door will not bind (its gate report had diagnostics, or a literal sits
where a binding cannot replace it).  A template is read-only: every
binding builds its own nodes and plans afresh.  **Texts**: the plan an
exact query string was given, so a repeated string costs one dict probe
and skips even the lifter; a hand-built query has no text, so it is kept
by a tuple key in a shape entry of its own.  Each text belongs to its
shape's entry, and evicting the entry drops its texts with it — no scan.

Validity.  One rule covers the whole cache: the **epoch**
``(Schema.version, IndexManager.epoch)`` is compared with the cache's
stored token at every entry point, and a moved epoch — any schema
evolution, any index create/drop — drops every entry.  ANALYZE applies
the same purge (:meth:`PlanCache.purge`).  A template never hands one
binding's plan to another literal, so only an exact text's plan needs
the per-text **extent scale** check: a per-class ``log2`` bucket of
extent sizes, so a plan chosen when a class held 100 objects is dropped
once the data has doubled and the scan-vs-probe tradeoff may have
flipped.  A hit recomputes the buckets only when the directory's
``scale_stamp``, moved by every such crossing, moved since the last check.

Counters: ``query.plan_cache.hits`` counts executions served by a
template or an exact text, ``misses`` every cold path that planned
(:meth:`PlanCache.put`), ``invalidations`` every dropped shape (and
every text dropped for its extent scale), ``evictions`` every shape
dropped by LRU capacity.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

#: Default maximum number of cached shapes, and of cached exact texts.
DEFAULT_CAPACITY = 256


class PlanCacheEntry:
    """One query shape: its template and the exact texts planned under it."""

    __slots__ = ("key", "template", "plan", "source", "texts", "hits", "created")

    def __init__(self, key: Hashable, template: Any, plan: Any, source: Any) -> None:
        self.key = key
        #: The :class:`~repro.analysis.template.QueryTemplate`, or None
        #: when the shape is served by exact texts only.
        self.template = template
        #: The first plan of the shape and its text (SysPlanCache shows them).
        self.plan = plan
        self.source = source
        #: The exact texts of this shape in the texts table.
        self.texts: Set[Hashable] = set()
        self.hits = 0
        self.created = time.perf_counter()


class CachedText:
    """One exact query text's plan, the extent scale it was built under
    and the directory's scale stamp when that scale was last checked."""

    __slots__ = ("entry", "plan", "report", "classes", "extent_scale", "stamp")

    def __init__(
        self, entry: PlanCacheEntry, plan: Any, report: Any, classes: List[str],
        scale: Any, stamp: int,
    ) -> None:
        self.entry = entry
        self.plan = plan
        self.report = report
        self.classes = classes
        self.extent_scale = scale
        self.stamp = stamp


class PlanCache:
    """LRU tables of query shapes and exact texts.

    Thread-safe: the server plans queries from connection threads while
    ANALYZE may purge from another.  The internal mutex is leaf-level —
    no engine lock is ever acquired while holding it, which is why
    ``epoch`` and ``extents`` (used under it) must be lock-free.
    ``extents`` is the object directory: ``count_of_class(name)`` and a
    ``scale_stamp`` that moves whenever a count changes bit length.
    """

    def __init__(
        self,
        epoch: Callable[[], Tuple[int, int]],
        extents: Any,
        metrics: Any,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self._epoch = epoch
        #: The epoch the current entries were planned in.
        self._token: Optional[Tuple[int, int]] = None
        self._extents = extents
        self._plan_cache_mutex = threading.Lock()
        self._entries: "OrderedDict[Hashable, PlanCacheEntry]" = OrderedDict()
        self._texts: "OrderedDict[Hashable, CachedText]" = OrderedDict()
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

    def _scale_of(self, classes: List[str]) -> Any:
        """Extent sizes bucketed by bit length: invalidation on doubling."""
        count = self._extents.count_of_class
        return tuple(count(cls).bit_length() for cls in classes)

    # -- lookup ------------------------------------------------------------

    def get_source(self, source: Hashable) -> Optional[CachedText]:
        """The plan of an exact query text — the skip-even-lifting probe —
        or of a hand-built query's exact key (never equal to a text).

        Counts a hit on success but *not* a miss on failure: the caller
        goes on to the shape's template (:meth:`get`) or the cold path.
        """
        with self._plan_cache_mutex:
            self._check_epoch()
            text = self._texts.get(source)
            if text is None:
                return None
            stamp = self._extents.scale_stamp
            if text.stamp != stamp:
                if text.extent_scale != self._scale_of(text.classes):
                    self._forget(source)
                    self._m_invalidations.inc()
                    return None
                text.stamp = stamp
            self._texts.move_to_end(source)
            self._hit(text.entry)
            return text

    def get(self, key: str) -> Optional[PlanCacheEntry]:
        """The entry of a query shape, if it has a template to bind."""
        with self._plan_cache_mutex:
            self._check_epoch()
            entry = self._entries.get(key)
            if entry is None or entry.template is None:
                return None
            self._hit(entry)
            return entry

    def _hit(self, entry: PlanCacheEntry) -> None:
        self._entries.move_to_end(entry.key)
        entry.hits += 1
        self._m_hits.inc()

    def put(
        self,
        key: Hashable,
        plan: Any,
        report: Any,
        source: Optional[Hashable] = None,
        template: Any = None,
        epoch: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Record one cold path: the shape's entry (with ``template`` unless
        it has one) and the text's plan — unless ``epoch``, the world the
        plan was made in when given, is no longer current."""
        with self._plan_cache_mutex:
            self._check_epoch()
            self._m_misses.inc()
            if epoch is not None and epoch != self._token:
                return
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = PlanCacheEntry(key, template, plan, source)
                while len(self._entries) > self.capacity:
                    _key, evicted = self._entries.popitem(last=False)
                    for text in evicted.texts:
                        del self._texts[text]
                    self._m_evictions.inc()
            if source is not None:
                self._remember(entry, source, plan, report)

    def remember(self, entry: PlanCacheEntry, source: str, plan: Any, report: Any) -> None:
        """Keep a binding's plan for its text, unless its entry was dropped."""
        with self._plan_cache_mutex:
            self._check_epoch()
            if self._entries.get(entry.key) is entry:
                self._remember(entry, source, plan, report)

    def _remember(self, entry: PlanCacheEntry, source: Hashable, plan: Any, report: Any) -> None:
        self._forget(source)
        classes = sorted(plan.scope)
        stamp = self._extents.scale_stamp  # read first: a later move rechecks
        self._texts[source] = CachedText(
            entry, plan, report, classes, self._scale_of(classes), stamp
        )
        entry.texts.add(source)
        while len(self._texts) > self.capacity:
            self._forget(next(iter(self._texts)))

    def _forget(self, source: Hashable) -> None:
        text = self._texts.pop(source, None)
        if text is not None:
            text.entry.texts.discard(source)

    # -- invalidation ------------------------------------------------------

    def purge(self) -> None:
        """Drop every entry — ANALYZE's half of the staleness rule."""
        with self._plan_cache_mutex:
            self._purge()

    def _purge(self) -> None:
        if self._entries:
            self._m_invalidations.inc(len(self._entries))
            self._entries.clear()
        self._texts.clear()

    # -- observability -----------------------------------------------------

    def __len__(self) -> int:
        with self._plan_cache_mutex:
            self._check_epoch()
            return len(self._entries)

    def rows(self) -> List[Dict[str, Any]]:
        """Row dicts for the ``SysPlanCache`` system view: one per shape."""
        now = time.perf_counter()
        with self._plan_cache_mutex:
            self._check_epoch()
            entries = list(self._entries.values())
            schema_epoch, index_epoch = self._token
        out: List[Dict[str, Any]] = []
        for entry in entries:
            rewrite = getattr(entry.plan, "rewrite", None)
            rules = sorted({name for name, _ in rewrite.rules}) if rewrite else []
            out.append(
                {
                    "fingerprint": rewrite.fingerprint if rewrite else "",
                    "target": entry.plan.query.target_class,
                    "source": entry.source if isinstance(entry.source, str) else "",
                    "access": entry.plan.access.description,
                    "hits": entry.hits,
                    "schema_epoch": schema_epoch,
                    "index_epoch": index_epoch,
                    "rules": ",".join(rules),
                    "age_seconds": now - entry.created,
                }
            )
        return out
