"""The metrics registry: counters, gauges, and histograms.

A :class:`Metrics` registry is a process-local bag of named instruments.
Instrumented code asks the ambient tracer for its registry
(``current_tracer().metrics``) and bumps instruments by name; when
tracing is disabled the registry is the shared no-op
(:data:`NULL_METRICS`), so the hot-path cost of an un-traced run is one
attribute read and one no-op call.

Cross-process semantics are by *snapshot merge*, not shared memory:
under a traced parent, each :class:`repro.exec.ResilientExecutor` pool
task returns a :meth:`Metrics.snapshot` alongside its result, and the
executor folds the snapshots into the parent's registry in **task
order** via :meth:`Metrics.merge` — counters and histograms are
commutative sums, gauges are last-write-wins, so a fixed merge order
makes the merged registry deterministic no matter how the pool
scheduled the work (the same discipline the load engine uses for its
floating-point shard sums).

Histograms use base-2 exponential buckets: an observation ``v`` lands
in the bucket whose upper bound is the smallest power of two ``>= v``.
That keeps the registry dependency-free, merge-friendly (bucket counts
add), and good enough to see whether per-shard latencies are uniform or
heavy-tailed.
"""

from __future__ import annotations

import math
from typing import Any, Dict

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "NULL_METRICS",
]


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increase the tally (negative amounts are rejected)."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (add {amount})"
            )
        self.value += amount


class Gauge:
    """A last-write-wins reading (a rate, a queue depth, an incumbent)."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None
        self.updates: int = 0

    def set(self, value: float) -> None:
        """Record the latest reading."""
        self.value = float(value)
        self.updates += 1


class Histogram:
    """A base-2 exponential histogram of non-negative observations."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count: int = 0
        self.total: float = 0.0
        self.min: float | None = None
        self.max: float | None = None
        #: ``{upper_bound_exponent: count}`` — bucket ``e`` holds
        #: observations in ``(2**(e-1), 2**e]`` (``v <= 0`` lands in the
        #: dedicated ``"zero"`` bucket).
        self.buckets: Dict[str, int] = {}

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (one by default).

        A hot loop can tally its values locally and fold each distinct
        value in once; for integer values the result is identical to
        ``count`` single observations.
        """
        value = float(value)
        self.count += count
        self.total += value * count
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        key = "zero" if value <= 0.0 else str(math.ceil(math.log2(value)))
        self.buckets[key] = self.buckets.get(key, 0) + count

    @property
    def mean(self) -> float | None:
        """Arithmetic mean of the observations (``None`` when empty)."""
        return self.total / self.count if self.count else None


class Metrics:
    """A named registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------ access

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def clear(self) -> None:
        """Drop every instrument (tests and long-lived drivers)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # --------------------------------------------------------- snapshots

    def snapshot(self) -> dict[str, Any]:
        """JSON-compatible, sorted view of every instrument.

        The snapshot is the cross-process interchange format: picklable,
        journal-able, and accepted back by :meth:`merge`.
        """
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
                if self._gauges[name].value is not None
            },
            "histograms": {
                name: {
                    "count": hist.count,
                    "total": hist.total,
                    "min": hist.min,
                    "max": hist.max,
                    "buckets": dict(sorted(hist.buckets.items())),
                }
                for name, hist in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold one :meth:`snapshot` into this registry.

        Counters and histogram buckets add; gauges take the snapshot's
        value (last write wins).  The resilient executor merges its pool
        tasks' snapshots **in task order**, so the registry is
        deterministic regardless of pool completion order.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += float(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, data in snapshot.get("histograms", {}).items():
            hist = self.histogram(name)
            hist.count += int(data["count"])
            hist.total += float(data["total"])
            for bound in ("min", "max"):
                theirs = data.get(bound)
                if theirs is None:
                    continue
                ours = getattr(hist, bound)
                pick = min if bound == "min" else max
                setattr(
                    hist,
                    bound,
                    float(theirs) if ours is None else pick(ours, float(theirs)),
                )
            for key, count in data.get("buckets", {}).items():
                hist.buckets[key] = hist.buckets.get(key, 0) + int(count)


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for disabled tracing."""

    __slots__ = ()

    def add(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, count: int = 1) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class _NullMetrics(Metrics):
    """A registry that records nothing — the disabled-tracing fast path."""

    def counter(self, name: str) -> Counter:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def merge(self, snapshot: dict[str, Any]) -> None:
        pass


#: the shared no-op registry used by the disabled tracer.
NULL_METRICS: Metrics = _NullMetrics()
