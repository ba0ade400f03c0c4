"""Process-wide metrics registry with a Prometheus-text exporter.

One registry per process (:func:`get_registry`); the engine and service
record into it at query granularity (terminal-ledger fold-ins, admission
waits, TTFE, quota rejections, shard prune counts, index serve counters) and
the service exports it two ways:

* ``GET /metrics`` — Prometheus text exposition format
  (``text/plain; version=0.0.4``), scrapeable as-is;
* the JSON :meth:`MetricsRegistry.snapshot` on the service status route.

Metric values are observability-only: ``tests/test_source_rules.py`` keeps
the exporter out of result-bearing code, so recording can never perturb
results.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from typing import Any, Iterable, Mapping

from repro.sync import Guarded

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


class _RegistryState:
    """Every series of one registry, reached only under its guard."""

    __slots__ = ("counters", "histograms", "help", "buckets")

    def __init__(self) -> None:
        self.counters: dict[str, dict[_LabelKey, float]] = {}
        self.histograms: dict[str, dict[_LabelKey, _Histogram]] = {}
        self.help: dict[str, str] = {}
        self.buckets: dict[str, tuple[float, ...]] = {}


class MetricsRegistry:
    """Counters and histograms keyed by ``(name, sorted labels)``."""

    def __init__(self) -> None:
        self._state = Guarded(_RegistryState())

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
        with self._state as s:
            series = s.counters.setdefault(name, {})
            series[key] = series.get(key, 0.0) + float(amount)
            if help:
                s.help.setdefault(name, help)

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
        with self._state as s:
            if name not in s.buckets:
                s.buckets[name] = (
                    tuple(sorted(buckets)) if buckets is not None else DEFAULT_BUCKETS
                )
            series = s.histograms.setdefault(name, {})
            histogram = series.get(key)
            if histogram is None:
                histogram = series[key] = _Histogram(s.buckets[name])
            histogram.observe(float(value))
            if help:
                s.help.setdefault(name, help)

    def reset(self) -> None:
        """Drop every series (test isolation)."""
        with self._state as s:
            s.counters.clear()
            s.histograms.clear()
            s.help.clear()
            s.buckets.clear()

    # -- export (observability layer only) -----------------------------------------

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        with self._state as s:
            for name in sorted(s.counters):
                lines.append(f"# HELP {name} {s.help.get(name, name)}")
                lines.append(f"# TYPE {name} counter")
                for key, value in sorted(s.counters[name].items()):
                    lines.append(f"{name}{_render_labels(key)} {value:g}")
            for name in sorted(s.histograms):
                lines.append(f"# HELP {name} {s.help.get(name, name)}")
                lines.append(f"# TYPE {name} histogram")
                for key, histogram in sorted(s.histograms[name].items()):
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
        with self._state as s:
            return {
                "counters": {
                    _flat_name(name, key): value
                    for name, series in sorted(s.counters.items())
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
                    for name, series in sorted(s.histograms.items())
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
