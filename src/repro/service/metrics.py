"""Service metrics: thread-safe counters and histograms with JSON export.

Two kinds of instruments, both safe to update from executor worker
threads:

* :class:`Counter` — a monotonically increasing integer;
* :class:`Histogram` — a value series reduced on snapshot to lifetime
  count / sum / mean plus windowed min / max / percentiles;
* :class:`Gauge` — a settable level (e.g. in-flight requests, queue
  depth) snapshotted as its current value plus the high-water mark.

Instruments are registered lazily through :class:`MetricsRegistry`,
which is the only object handed around. A histogram may be marked
non-deterministic (``deterministic=False``) when it records wall-clock
measurements; :meth:`MetricsRegistry.deterministic_snapshot` excludes
those, giving a view that must be bit-identical across runs with the
same seed — regardless of thread count — which is what the concurrency
determinism tests assert.
"""

from __future__ import annotations

import json
import threading
from collections import deque

from repro.exceptions import ConfigurationError
from repro.stats.rank import percentile

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_PERCENTILES = (50.0, 90.0, 99.0)


class Counter:
    """A thread-safe monotonically increasing counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter increment must be >= 0, got {amount}"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A thread-safe settable level with a high-water mark.

    Levels (in-flight requests, queue depth) are not monotonic, so
    neither :class:`Counter` nor :class:`Histogram` fits them: a gauge
    reports the *current* value and the lifetime maximum. Gauges are
    inherently timing-dependent, so they are excluded from
    :meth:`MetricsRegistry.deterministic_snapshot`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._high_water = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Set the current level."""
        with self._lock:
            self._value = float(value)
            if self._value > self._high_water:
                self._high_water = self._value

    def add(self, delta: float) -> float:
        """Adjust the level by *delta*; returns the new value."""
        with self._lock:
            self._value += float(delta)
            if self._value > self._high_water:
                self._high_water = self._value
            return self._value

    @property
    def value(self) -> float:
        """Current level."""
        with self._lock:
            return self._value

    @property
    def high_water(self) -> float:
        """Highest level ever set."""
        with self._lock:
            return self._high_water

    def summary(self) -> dict[str, float]:
        """Current value plus the high-water mark."""
        with self._lock:
            return {"value": self._value, "high_water": self._high_water}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """A thread-safe value series summarized on snapshot.

    Stores raw observations (bounded by ``max_samples``, keeping the
    most recent) and reduces to a summary on snapshot. ``count`` /
    ``sum`` / ``mean`` are lifetime aggregates over every observation
    ever made; rank statistics (min / max / percentiles) can only be
    computed over the retained window, so they live in an explicit
    ``window`` sub-dict together with the number of samples it covers —
    the two views are never mixed at the same level.
    """

    def __init__(
        self,
        name: str,
        deterministic: bool = True,
        max_samples: int = 100_000,
    ) -> None:
        if max_samples < 1:
            raise ConfigurationError(
                f"max_samples must be >= 1, got {max_samples}"
            )
        self.name = name
        self.deterministic = deterministic
        self._values: deque[float] = deque(maxlen=max_samples)
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._count += 1
            self._sum += value
            self._values.append(float(value))

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        with self._lock:
            return self._count

    def summary(self) -> dict[str, object]:
        """Reduce the series to its summary statistics.

        Lifetime aggregates (``count``, ``sum``, ``mean``) sit at the
        top level; rank statistics over the retained window sit under
        ``window`` with their own ``samples`` count, so the summary
        stays internally consistent after ``max_samples`` overflows.
        """
        with self._lock:
            count, total = self._count, self._sum
            ordered = sorted(self._values)
        if not count:
            return {"count": 0, "sum": 0.0}
        window: dict[str, float | int] = {
            "samples": len(ordered),
            "min": ordered[0],
            "max": ordered[-1],
        }
        for pct in _PERCENTILES:
            window[f"p{pct:g}"] = percentile(ordered, pct)
        return {
            "count": count,
            "sum": round(total, 9),
            "mean": round(total / count, 9),
            "window": window,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Create-or-get registry of named counters and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, Gauge] = {}
        self._lock = threading.Lock()

    def _check_unregistered(self, name: str, kind: str) -> None:
        """Raise unless *name* is free in every other instrument family
        (caller holds the lock)."""
        families = {
            "counter": self._counters,
            "histogram": self._histograms,
            "gauge": self._gauges,
        }
        for family, registered in families.items():
            if family != kind and name in registered:
                raise ConfigurationError(
                    f"{name!r} is already registered as a {family}"
                )

    def counter(self, name: str) -> Counter:
        """The counter called *name*, created on first use."""
        with self._lock:
            self._check_unregistered(name, "counter")
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge called *name*, created on first use."""
        with self._lock:
            self._check_unregistered(name, "gauge")
            if name not in self._gauges:
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def histogram(
        self, name: str, deterministic: bool = True
    ) -> Histogram:
        """The histogram called *name*, created on first use.

        The ``deterministic`` flag is fixed at creation; later calls
        with a conflicting flag raise.
        """
        with self._lock:
            self._check_unregistered(name, "histogram")
            if name not in self._histograms:
                self._histograms[name] = Histogram(
                    name, deterministic=deterministic
                )
            histogram = self._histograms[name]
        if histogram.deterministic != deterministic:
            raise ConfigurationError(
                f"histogram {name!r} already registered with "
                f"deterministic={histogram.deterministic}"
            )
        return histogram

    def snapshot(self) -> dict[str, object]:
        """All instruments as one JSON-able mapping."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            gauges = dict(self._gauges)
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(counters.items())
            },
            "gauges": {
                name: gauge.summary()
                for name, gauge in sorted(gauges.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(histograms.items())
            },
        }

    def deterministic_snapshot(self) -> dict[str, object]:
        """Like :meth:`snapshot`, excluding wall-clock histograms and
        (inherently timing-dependent) gauges."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(counters.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(histograms.items())
                if histogram.deterministic
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize :meth:`snapshot` to a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"histograms={len(self._histograms)})"
            )
