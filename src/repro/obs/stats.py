"""ANALYZE-style class and index statistics for the planner.

``Database.analyze()`` walks every user class extent and every
secondary index and distills them into a :class:`StatisticsCatalog`:
per-class row counts and average encoded object size, per-index entry
and distinct-key counts plus an *equi-depth* value histogram (bucket
boundaries chosen so each bucket holds roughly the same number of index
entries — the classical selectivity-estimation structure, robust to
skew where equi-width is not).

The catalog is inert data: it is persisted in the storage catalog
(``save_metadata``), reloaded on reopen, exposed as the ``SysClassStat``
/ ``SysIndexStat`` system views, and handed to ``Planner.plan(...,
stats=)`` as the cost model's preferred statistics source
(:mod:`repro.query.cost`; live cardinalities are the other).

Like the query-fingerprint accumulator, a catalog describes one world:
it is stamped with the schema version and index epoch it was collected
under, and ``stale_reason()`` reports when either has moved on.

This module reaches only public engine APIs (``scan_class``,
``encode_object``, ``Index.tree.range``), so it can be reused against
any storage manager; the database imports it lazily (like sysviews) to
keep ``repro.obs`` importable without the storage package.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .metrics import MetricsRegistry

#: Target bucket count for equi-depth index histograms.
HISTOGRAM_BUCKETS = 16


def _plain(value: Any) -> Any:
    """A JSON-able stand-in for a histogram boundary or bound value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class ClassStat:
    """Row count and sizing for one class extent (direct instances)."""

    __slots__ = ("class_name", "rows", "total_bytes", "avg_bytes")

    def __init__(
        self, class_name: str, rows: int, total_bytes: int, avg_bytes: float
    ) -> None:
        self.class_name = class_name
        self.rows = rows
        self.total_bytes = total_bytes
        self.avg_bytes = avg_bytes

    def to_dict(self) -> Dict[str, Any]:
        return {
            "class_name": self.class_name,
            "rows": self.rows,
            "total_bytes": self.total_bytes,
            "avg_bytes": self.avg_bytes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClassStat":
        return cls(
            str(data["class_name"]),
            int(data["rows"]),
            int(data["total_bytes"]),
            float(data["avg_bytes"]),
        )

    def row(self) -> Dict[str, Any]:
        return self.to_dict()


class IndexStat:
    """Cardinality and value distribution of one secondary index.

    ``boundaries`` are the equi-depth bucket upper bounds over the
    index's normalized key payloads: ``boundaries[i]`` is the largest
    key in bucket ``i``, each bucket holding ~``entries / buckets``
    entries.  ``low``/``high`` are the extreme keys.  Boundaries are
    stored in display form (:func:`_plain`) because they must round-trip
    through the JSON catalog; the future cost model estimates range
    selectivity by counting covered buckets, which needs only ordering.
    """

    __slots__ = (
        "name",
        "kind",
        "target_class",
        "path",
        "entries",
        "distinct_keys",
        "boundaries",
        "depths",
        "low",
        "high",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        target_class: str,
        path: str,
        entries: int,
        distinct_keys: int,
        boundaries: List[Any],
        low: Any,
        high: Any,
        depths: Optional[List[int]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.target_class = target_class
        self.path = path
        self.entries = entries
        self.distinct_keys = distinct_keys
        self.boundaries = boundaries
        # Per-bucket entry counts, parallel to ``boundaries``.  Catalogs
        # persisted before depths existed load with an empty list; the
        # cost model then assumes uniform bucket depth.
        self.depths = list(depths) if depths else []
        self.low = low
        self.high = high

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "target_class": self.target_class,
            "path": self.path,
            "entries": self.entries,
            "distinct_keys": self.distinct_keys,
            "boundaries": list(self.boundaries),
            "depths": list(self.depths),
            "low": self.low,
            "high": self.high,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "IndexStat":
        return cls(
            str(data["name"]),
            str(data["kind"]),
            str(data["target_class"]),
            str(data["path"]),
            int(data["entries"]),
            int(data["distinct_keys"]),
            list(data.get("boundaries", [])),
            data.get("low"),
            data.get("high"),
            depths=[int(d) for d in data.get("depths", [])],
        )

    def row(self) -> Dict[str, Any]:
        """One ``SysIndexStat`` row (histogram rendered as a string)."""
        return {
            "index": self.name,
            "kind": self.kind,
            "target": self.target_class,
            "path": self.path,
            "entries": self.entries,
            "distinct_keys": self.distinct_keys,
            "buckets": len(self.boundaries),
            "low": self.low,
            "high": self.high,
            "histogram": "|".join(str(b) for b in self.boundaries),
        }


class StatisticsCatalog:
    """One ANALYZE run's worth of class and index statistics."""

    def __init__(
        self,
        class_stats: Dict[str, ClassStat],
        index_stats: Dict[str, IndexStat],
        schema_version: int,
        index_epoch: int,
    ) -> None:
        self.class_stats = class_stats
        self.index_stats = index_stats
        self.schema_version = schema_version
        self.index_epoch = index_epoch

    # -- planner-facing reads ---------------------------------------------

    def index_selectivity(self, index_name: str) -> Optional[float]:
        """Average fraction of entries matched by an equality probe."""
        stat = self.index_stats.get(index_name)
        if stat is None or stat.entries == 0 or stat.distinct_keys == 0:
            return None
        return 1.0 / stat.distinct_keys

    def stale_reason(self, schema_version: int, index_epoch: int) -> Optional[str]:
        """Why this catalog no longer describes the live engine, if so."""
        if schema_version != self.schema_version:
            return "schema version moved %d -> %d" % (
                self.schema_version,
                schema_version,
            )
        if index_epoch != self.index_epoch:
            return "index epoch moved %d -> %d" % (self.index_epoch, index_epoch)
        return None

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "index_epoch": self.index_epoch,
            "classes": [stat.to_dict() for stat in self.class_stats.values()],
            "indexes": [stat.to_dict() for stat in self.index_stats.values()],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StatisticsCatalog":
        class_stats = {}
        for item in data.get("classes", []):
            stat = ClassStat.from_dict(item)
            class_stats[stat.class_name] = stat
        index_stats = {}
        for item in data.get("indexes", []):
            stat = IndexStat.from_dict(item)
            index_stats[stat.name] = stat
        return cls(
            class_stats,
            index_stats,
            int(data.get("schema_version", 0)),
            int(data.get("index_epoch", 0)),
        )

    def class_rows_table(self) -> List[Dict[str, Any]]:
        """``SysClassStat`` rows, alphabetical."""
        return [
            self.class_stats[name].row() for name in sorted(self.class_stats)
        ]

    def index_rows_table(self) -> List[Dict[str, Any]]:
        """``SysIndexStat`` rows, alphabetical."""
        return [
            self.index_stats[name].row() for name in sorted(self.index_stats)
        ]

    def __repr__(self) -> str:
        return "<StatisticsCatalog %d classes, %d indexes, schema v%d>" % (
            len(self.class_stats),
            len(self.index_stats),
            self.schema_version,
        )


def equi_depth_histogram(
    key_counts: Iterable[Tuple[Any, int]], buckets: int = HISTOGRAM_BUCKETS
) -> Tuple[List[Any], List[int]]:
    """Equi-depth bucket upper bounds and depths from (key, count) pairs.

    ``key_counts`` must arrive in key order (as ``BTree.range`` yields).
    Each boundary is the key at which the cumulative entry count crosses
    the next 1/buckets quantile; the final boundary is always the
    maximum key, and boundaries never repeat, so heavy keys simply
    widen their bucket's depth rather than duplicating bounds.  The
    returned ``depths`` list is parallel to the boundaries: ``depths[i]``
    is the exact number of entries whose key falls in
    ``(boundaries[i-1], boundaries[i]]`` (first bucket: ``[low,
    boundaries[0]]``), so ``sum(depths) == total entries``.
    """
    ordered = list(key_counts)
    if not ordered:
        return [], []
    total = sum(count for _key, count in ordered)
    if total <= 0:
        return [], []
    boundaries: List[Any] = []
    depths: List[int] = []
    depth = total / float(buckets)
    threshold = depth
    cumulative = 0
    emitted = 0
    for key, count in ordered:
        cumulative += count
        if cumulative >= threshold:
            boundaries.append(_plain(key))
            depths.append(cumulative - emitted)
            emitted = cumulative
            while threshold <= cumulative:
                threshold += depth
    last = _plain(ordered[-1][0])
    if not boundaries or boundaries[-1] != last:
        boundaries.append(last)
        depths.append(cumulative - emitted)
    return boundaries, depths


def equi_depth_boundaries(
    key_counts: Iterable[Tuple[Any, int]], buckets: int = HISTOGRAM_BUCKETS
) -> List[Any]:
    """Just the bucket upper bounds of :func:`equi_depth_histogram`."""
    return equi_depth_histogram(key_counts, buckets)[0]


def collect_statistics(
    schema: Any,
    scan_class: Callable[[str], Iterator[Any]],
    indexes: Any,
    encoded_size: Callable[[Any], int],
    metrics: Optional[MetricsRegistry] = None,
    buckets: int = HISTOGRAM_BUCKETS,
) -> StatisticsCatalog:
    """One full ANALYZE pass over all user classes and indexes.

    ``scan_class`` yields direct-instance states for one class,
    ``encoded_size`` measures one state's stored footprint (the
    serializer's encoding, not Python object overhead).  Metrics land
    under ``analyze.*``.
    """
    registry = metrics if metrics is not None else MetricsRegistry()
    m_runs = registry.counter("analyze.runs")
    m_classes = registry.counter("analyze.classes")
    m_rows = registry.counter("analyze.rows_scanned")
    m_indexes = registry.counter("analyze.indexes")
    m_keys = registry.counter("analyze.index_keys")

    class_stats: Dict[str, ClassStat] = {}
    for class_def in schema.user_classes():
        name = class_def.name
        rows = 0
        total_bytes = 0
        for state in scan_class(name):
            rows += 1
            total_bytes += encoded_size(state)
        class_stats[name] = ClassStat(
            name,
            rows,
            total_bytes,
            (total_bytes / float(rows)) if rows else 0.0,
        )
        m_classes.inc()
        m_rows.inc(rows)

    index_stats: Dict[str, IndexStat] = {}
    for index in indexes.all_indexes():
        if index.operation is not None:
            # An ADT access method keeps no B+-tree keys to histogram;
            # the cost model asks it for its own estimate instead.
            continue
        entries = 0
        distinct = 0
        low: Any = None
        high: Any = None
        key_counts: List[Tuple[Any, int]] = []
        for key, key_entries in index.tree.range():
            count = len(key_entries)
            entries += count
            distinct += 1
            if low is None:
                low = key
            high = key
            key_counts.append((key, count))
        boundaries, depths = equi_depth_histogram(key_counts, buckets)
        index_stats[index.name] = IndexStat(
            index.name,
            index.kind,
            index.target_class,
            ".".join(index.path),
            entries,
            distinct,
            boundaries,
            _plain(low),
            _plain(high),
            depths=depths,
        )
        m_indexes.inc()
        m_keys.inc(distinct)

    m_runs.inc()
    return StatisticsCatalog(
        class_stats,
        index_stats,
        getattr(schema, "version", 0),
        getattr(indexes, "epoch", 0),
    )
