"""Metric instruments and the registry that owns them.

The paper's closing section makes performance benchmarking a research
direction in its own right; the OCB/VOODB line of work showed that
credible OODB numbers require counting buffer, clustering, locking and
traversal events *inside* the engine.  This module is the substrate:
plain-int counters, gauges and fixed-bucket histograms owned by one
:class:`MetricsRegistry` per database, cheap enough to leave on in
production (attribute increments, no locks on the hot path) and
snapshot/reset-able so experiments get deterministic before/after
numbers.
"""

from __future__ import annotations

import bisect
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import KimDBError

#: Default histogram bucket upper bounds, tuned for seconds-valued
#: observations (100 microseconds up to ~10 s).  Callers measuring other
#: units pass their own bounds.
DEFAULT_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Counter:
    """A monotonically increasing count (resettable for experiments)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return "<Counter %s=%d>" % (self.name, self.value)


class Gauge:
    """A value that goes up and down (pool occupancy, active txns)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value: Any) -> None:
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def dec(self, amount: int = 1) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return "<Gauge %s=%r>" % (self.name, self.value)


class Histogram:
    """Fixed-bucket histogram with running count/sum/min/max.

    Buckets are cumulative-upper-bound style (Prometheus-like): bucket
    ``i`` counts observations ``<= bounds[i]``; one overflow bucket
    catches the rest.  ``observe`` is a bisect plus two adds — cheap
    enough for per-operation latencies.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise KimDBError("histogram %r needs at least one bucket bound" % name)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def time(self) -> "_HistogramTimer":
        """``with histogram.time(): ...`` records the block's duration."""
        return _HistogramTimer(self)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Approximate quantile: the upper bound of the covering bucket."""
        if not 0.0 <= q <= 1.0:
            raise KimDBError("quantile %r out of [0, 1]" % q)
        if self.count == 0:
            return None
        target = q * self.count
        running = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            running += bucket_count
            if running >= target:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "buckets": {
                "le_%g" % bound: self.bucket_counts[i]
                for i, bound in enumerate(self.bounds)
            },
            "overflow": self.bucket_counts[-1],
        }

    def __repr__(self) -> str:
        return "<Histogram %s n=%d mean=%.6f>" % (self.name, self.count, self.mean)


class _HistogramTimer:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class MetricsRegistry:
    """One namespace of metrics, usually owned by one :class:`Database`.

    Components get-or-create instruments by dotted name
    (``registry.counter("buffer.hits")``) and hold the returned object —
    the hot path is then one attribute increment, no dict lookup.
    ``snapshot()`` flattens everything to plain data for tests, the JSON
    exporter and the REPL; ``reset()`` zeroes every instrument between
    experiment phases.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._derived: Dict[str, Callable[[], Any]] = {}

    # -- instrument creation -------------------------------------------------

    def _get_or_create(self, name: str, kind: type, *args: Any) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise KimDBError(
                    "metric %r already registered as %s"
                    % (name, type(existing).__name__)
                )
            return existing
        instrument = kind(name, *args)
        self._metrics[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(name, Histogram, bounds)

    def derived(self, name: str, fn: Callable[[], Any]) -> None:
        """Register a computed metric, evaluated only at snapshot time.

        Used for ratios (buffer hit rate) that would waste hot-path
        cycles if maintained eagerly.
        """
        self._derived[name] = fn

    # -- reading -------------------------------------------------------------

    def get(self, name: str) -> Any:
        try:
            return self._metrics[name]
        except KeyError:
            raise KimDBError("no metric named %r" % (name,)) from None

    def names(self) -> List[str]:
        return sorted(set(self._metrics) | set(self._derived))

    def snapshot(self, prefix: str = "") -> Dict[str, Any]:
        """Flat ``{name: value}`` view; histograms expand to dicts."""
        out: Dict[str, Any] = {}
        # Iterate copies: another thread may lazily register an
        # instrument (a dict insert) meanwhile.  dict.copy() is one C
        # call; list(d.items()) allocates per item and can be interrupted.
        for name, metric in self._metrics.copy().items():
            if prefix and not name.startswith(prefix):
                continue
            if isinstance(metric, Histogram):
                out[name] = metric.snapshot()
            else:
                out[name] = metric.value
        for name, fn in self._derived.copy().items():
            if prefix and not name.startswith(prefix):
                continue
            out[name] = fn()
        return dict(sorted(out.items()))

    def value(self, name: str, default: Any = 0) -> Any:
        """The current value of one metric (``default`` when absent)."""
        metric = self._metrics.get(name)
        if metric is None:
            fn = self._derived.get(name)
            return fn() if fn is not None else default
        if isinstance(metric, Histogram):
            return metric.count
        return metric.value

    def reset(self, prefix: str = "") -> None:
        for name, metric in self._metrics.copy().items():
            if not prefix or name.startswith(prefix):
                metric.reset()

    def __contains__(self, name: str) -> bool:
        return name in self._metrics or name in self._derived

    def __len__(self) -> int:
        return len(self._metrics) + len(self._derived)

    def __repr__(self) -> str:
        return "<MetricsRegistry %d metrics>" % len(self)
