"""Pull-based metrics registry with a Prometheus text exporter.

The system already accumulates counters in per-layer stats dataclasses
(``NetworkStats``, ``CacheStats``, ``ServiceStats``, ``ResilienceStats``,
``ProcPoolStats``, ``KernelTelemetry``).  Rather than duplicating every
counter bump onto a second object, the registry **pulls**: each layer
registers a *group supplier* — typically ``lambda: stats.as_dict()`` — and
:meth:`MetricsRegistry.snapshot` reads them all at once.  Registration is
O(1) and the hot path never touches the registry, so an idle registry costs
nothing.

Push-style :class:`Counter` / :class:`Gauge` / :class:`Histogram`
instruments exist for values no stats object owns (trace counts, export
sizes); they are plain attribute bumps under no lock — slightly stale reads
under concurrency are fine for monitoring.

>>> registry = MetricsRegistry()
>>> registry.counter("queries_total").inc(3)
>>> registry.register_group("demo", lambda: {"hits": 2, "rate": 0.5})
>>> snap = registry.snapshot()
>>> snap["counters"]["queries_total"], snap["groups"]["demo"]["hits"]
(3, 2)
>>> print(registry.render_prometheus().splitlines()[0])
# TYPE repro_queries_total counter
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Callable, Mapping

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")

DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
)
"""Default histogram bucket upper bounds, in seconds."""


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A value that can move both ways."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics."""

    __slots__ = ("name", "buckets", "counts", "total", "count")

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # last bucket is +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def as_dict(self) -> dict[str, float]:
        """Summary form: count, sum, and per-bucket cumulative counts."""
        out: dict[str, float] = {"count": self.count, "sum": self.total}
        running = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            running += bucket_count
            out[f"le_{bound}"] = running
        return out


class MetricsRegistry:
    """Named instruments plus pull-based groups over existing stats objects."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._groups: dict[str, Callable[[], Mapping[str, object]]] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        with self._lock:
            return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        with self._lock:
            return self._gauges.setdefault(name, Gauge(name))

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the named histogram."""
        with self._lock:
            return self._histograms.setdefault(name, Histogram(name, buckets))

    def register_group(
        self, name: str, supplier: Callable[[], Mapping[str, object]]
    ) -> None:
        """Attach a stats supplier (usually ``lambda: stats.as_dict()``).

        Re-registering a name replaces the supplier — a rebuilt layer
        (e.g. a respawned process pool) just registers again.
        """
        with self._lock:
            self._groups[name] = supplier

    def snapshot(self) -> dict:
        """Read every instrument and group into one JSON-able dict.

        A group supplier that raises is reported under ``"error"`` instead
        of failing the whole snapshot — monitoring must not take the
        system down.
        """
        with self._lock:
            counters = {name: metric.value for name, metric in self._counters.items()}
            gauges = {name: metric.value for name, metric in self._gauges.items()}
            histograms = {
                name: metric.as_dict() for name, metric in self._histograms.items()
            }
            groups = dict(self._groups)
        group_values: dict[str, dict] = {}
        for name, supplier in groups.items():
            try:
                group_values[name] = dict(supplier())
            except Exception as error:  # noqa: BLE001 - monitoring must not raise
                group_values[name] = {"error": repr(error)}
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "groups": group_values,
        }

    def render_prometheus(self) -> str:
        """The snapshot in Prometheus text exposition format.

        Metric names are prefixed ``repro_`` and sanitised; group entries
        become ``repro_<group>_<key>`` gauges.  Non-numeric group values
        are skipped — Prometheus carries numbers only.
        """
        snapshot = self.snapshot()
        lines: list[str] = []

        def emit(name: str, kind: str, value: float) -> None:
            metric = "repro_" + _NAME_SANITIZER.sub("_", name)
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {value}")

        for name, value in sorted(snapshot["counters"].items()):
            emit(name, "counter", value)
        for name, value in sorted(snapshot["gauges"].items()):
            emit(name, "gauge", value)
        for name, summary in sorted(snapshot["histograms"].items()):
            metric = "repro_" + _NAME_SANITIZER.sub("_", name)
            lines.append(f"# TYPE {metric} histogram")
            for key, value in summary.items():
                if key.startswith("le_"):
                    lines.append(f'{metric}_bucket{{le="{key[3:]}"}} {value}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} {summary["count"]}')
            lines.append(f"{metric}_sum {summary['sum']}")
            lines.append(f"{metric}_count {summary['count']}")
        for group, values in sorted(snapshot["groups"].items()):
            for key, value in sorted(values.items()):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                if isinstance(value, float) and not math.isfinite(value):
                    continue
                emit(f"{group}_{key}", "gauge", value)
        return "\n".join(lines) + "\n"
