"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the single home for pipeline statistics that used to be
scattered across ad-hoc fields: search candidate counts and engine
labels, constraint counts by Hard/Soft x Local/Global class, fallback
and retry activations, per-stage wall time, and cost-model component
sums.

Histogram buckets are fixed and deterministic (supplied at creation,
never derived from the data), so two snapshots of the same workload are
directly comparable.

As with the tracer, a :class:`NullRegistry` backend makes every metric
operation a no-op when observability is disabled; instrumentation sites
that would loop (e.g. per-constraint counting) guard on
``registry.enabled`` so the disabled cost stays one attribute read.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple


class Counter:
    """An increasing value; the one decrement is a compile service's
    late hit, which takes its miss back (``service.cache.misses`` -1)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value: float = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value: float = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Cumulative fixed-bucket histogram (Prometheus-style).

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``; the final
    slot counts overflows (observations above the last bound).

    An observation may carry an *exemplar* — an opaque reference (here: a
    trace_id) kept per bucket, last-write-wins — so a snapshot can link
    "something landed in the 250ms+ bucket" to a concrete request trace.
    """

    __slots__ = (
        "buckets", "bucket_counts", "total", "count", "exemplars", "_lock"
    )

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets: Tuple[float, ...] = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.total: float = 0.0
        self.count: int = 0
        self.exemplars: Dict[int, str] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.total += value
            self.count += 1
            if exemplar is not None:
                self.exemplars[index] = exemplar

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        # Snapshot under the lock: a concurrent observe() must never
        # produce counts/sum/count that disagree with each other.
        with self._lock:
            data: Dict[str, Any] = {
                "buckets": list(self.buckets),
                "counts": list(self.bucket_counts),
                "sum": self.total,
                "count": self.count,
            }
            if self.exemplars:
                data["exemplars"] = {
                    str(k): v for k, v in sorted(self.exemplars.items())
                }
        return data


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: float = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    buckets: Tuple[float, ...] = (1.0,)
    bucket_counts: List[int] = []
    total = 0.0
    count = 0
    mean = 0.0

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        pass

    def to_dict(self) -> Dict[str, Any]:
        return {"buckets": [], "counts": [], "sum": 0.0, "count": 0}


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """Disabled backend: hands out shared no-op metric singletons."""

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return NULL_GAUGE

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> _NullHistogram:
        return NULL_HISTOGRAM

    def to_dict(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def render(self) -> str:
        return "(metrics disabled)"


NULL_REGISTRY = NullRegistry()

#: Default bounds for millisecond-scale histograms.
DEFAULT_MS_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


class MetricsRegistry:
    """The recording backend: named metrics, created on first use."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter())
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge())
        return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(
                    name, Histogram(buckets or DEFAULT_MS_BUCKETS)
                )
        return metric

    # -- export ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable snapshot of every metric."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: v.value for k, v in sorted(counters.items())},
            "gauges": {k: v.value for k, v in sorted(gauges.items())},
            "histograms": {
                k: v.to_dict() for k, v in sorted(histograms.items())
            },
        }

    def render(self) -> str:
        """Human-readable snapshot (``repro stats`` output)."""
        snap = self.to_dict()
        lines: List[str] = []
        if snap["counters"]:
            lines.append("counters:")
            for name, value in snap["counters"].items():
                shown = f"{value:g}" if isinstance(value, float) else str(value)
                lines.append(f"  {name:<44} {shown}")
        if snap["gauges"]:
            lines.append("gauges:")
            for name, value in snap["gauges"].items():
                lines.append(f"  {name:<44} {value:g}")
        if snap["histograms"]:
            lines.append("histograms:")
            for name, data in snap["histograms"].items():
                count = data["count"]
                mean = data["sum"] / count if count else 0.0
                lines.append(
                    f"  {name:<44} count={count} mean={mean:.4g} "
                    f"sum={data['sum']:.4g}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"
