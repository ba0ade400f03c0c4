"""Process-wide metrics registry with a Prometheus-text exporter.

One registry per process (:func:`get_registry`); the engine and service
record into it at query granularity (terminal-ledger fold-ins, admission
waits, TTFE, quota rejections, shard prune counts, index serve counters) and
the service exports it two ways:

* ``GET /metrics`` — Prometheus text exposition format
  (``text/plain; version=0.0.4``), scrapeable as-is;
* the JSON :meth:`MetricsRegistry.snapshot` on the service status route.

Metric values are observability-only: analyzer rule RPR008 forbids reading
them back into result-bearing code, so recording can never perturb results.
"""

from __future__ import annotations

import dataclasses
import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

#: Default histogram buckets: query-latency shaped (seconds).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any] | None) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [*key, *extra]
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + body + "}"


def _flat_name(name: str, key: _LabelKey) -> str:
    return f"{name}{_render_labels(key)}"


class _Histogram:
    """Cumulative-bucket histogram state for one label set."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        if index < len(self.counts):
            self.counts[index] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """Counters, gauges and histograms keyed by ``(name, sorted labels)``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, dict[_LabelKey, float]] = {}
        self._gauges: dict[str, dict[_LabelKey, float]] = {}
        self._histograms: dict[str, dict[_LabelKey, _Histogram]] = {}
        self._help: dict[str, str] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}

    # -- recording -----------------------------------------------------------------

    def inc(
        self,
        name: str,
        amount: float = 1.0,
        labels: Mapping[str, Any] | None = None,
        help: str = "",
    ) -> None:
        """Increment a counter (created on first use)."""
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0.0) + float(amount)
            if help:
                self._help.setdefault(name, help)

    def set_gauge(
        self,
        name: str,
        value: float,
        labels: Mapping[str, Any] | None = None,
        help: str = "",
    ) -> None:
        """Set a gauge to an absolute value."""
        key = _label_key(labels)
        with self._lock:
            self._gauges.setdefault(name, {})[key] = float(value)
            if help:
                self._help.setdefault(name, help)

    def observe(
        self,
        name: str,
        value: float,
        labels: Mapping[str, Any] | None = None,
        help: str = "",
        buckets: Iterable[float] | None = None,
    ) -> None:
        """Record one observation into a histogram."""
        key = _label_key(labels)
        with self._lock:
            if name not in self._buckets:
                self._buckets[name] = (
                    tuple(sorted(buckets)) if buckets is not None else DEFAULT_BUCKETS
                )
            series = self._histograms.setdefault(name, {})
            histogram = series.get(key)
            if histogram is None:
                histogram = series[key] = _Histogram(self._buckets[name])
            histogram.observe(float(value))
            if help:
                self._help.setdefault(name, help)

    def reset(self) -> None:
        """Drop every series (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._help.clear()
            self._buckets.clear()

    # -- export (observability layer only; see RPR008) -----------------------------

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._counters):
                lines.append(f"# HELP {name} {self._help.get(name, name)}")
                lines.append(f"# TYPE {name} counter")
                for key, value in sorted(self._counters[name].items()):
                    lines.append(f"{name}{_render_labels(key)} {value:g}")
            for name in sorted(self._gauges):
                lines.append(f"# HELP {name} {self._help.get(name, name)}")
                lines.append(f"# TYPE {name} gauge")
                for key, value in sorted(self._gauges[name].items()):
                    lines.append(f"{name}{_render_labels(key)} {value:g}")
            for name in sorted(self._histograms):
                lines.append(f"# HELP {name} {self._help.get(name, name)}")
                lines.append(f"# TYPE {name} histogram")
                for key, histogram in sorted(self._histograms[name].items()):
                    cumulative = 0
                    for bound, count in zip(histogram.buckets, histogram.counts):
                        cumulative += count
                        le = _render_labels(key, (("le", f"{bound:g}"),))
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    le = _render_labels(key, (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{le} {histogram.count}")
                    lines.append(
                        f"{name}_sum{_render_labels(key)} {histogram.total:g}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(key)} {histogram.count}"
                    )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, Any]:
        """JSON form of every series (served on the service status route)."""
        with self._lock:
            return {
                "counters": {
                    _flat_name(name, key): value
                    for name, series in sorted(self._counters.items())
                    for key, value in sorted(series.items())
                },
                "gauges": {
                    _flat_name(name, key): value
                    for name, series in sorted(self._gauges.items())
                    for key, value in sorted(series.items())
                },
                "histograms": {
                    _flat_name(name, key): {
                        "count": histogram.count,
                        "sum": histogram.total,
                        "buckets": {
                            f"{bound:g}": count
                            for bound, count in zip(
                                histogram.buckets, histogram.counts
                            )
                        },
                    }
                    for name, series in sorted(self._histograms.items())
                    for key, histogram in sorted(series.items())
                },
            }


_PROCESS_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every component records into."""
    return _PROCESS_REGISTRY


def record_execution_ledger(kind: str, ledger: Any) -> None:
    """Fold one execution's terminal ledger into the process registry.

    Called once per completed query (by the session layer); ``kind`` labels
    the query class.  Which ledger fields feed which counter is declared on
    the fields themselves (``metric``/``help`` metadata in
    :class:`~repro.metrics.runtime.ExecutionLedger`).  Counters are only read
    off the ledger — never written back — so this is a strictly one-way flow
    out of the execution engine.
    """
    registry = get_registry()
    labels = {"kind": kind}
    registry.inc(
        "repro_queries_total", 1, labels, help="Completed query executions"
    )
    for field in dataclasses.fields(ledger):
        if "metric" in field.metadata:
            value = getattr(ledger, field.name)
            registry.inc(field.metadata["metric"], value, labels, help=field.metadata["help"])
    registry.observe(
        "repro_query_wall_seconds",
        ledger.wall_seconds,
        labels,
        help="Query wall time (driver-observed)",
    )


__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "get_registry",
    "record_execution_ledger",
]
