"""Observability layer: span tracing, metrics registry, EXPLAIN ANALYZE.

Three pieces, deliberately decoupled from the execution engine:

* :mod:`repro.obs.trace` — zero-overhead-when-disabled span tracing.  A
  :class:`~repro.obs.trace.Tracer` rides on the
  :class:`~repro.core.context.ExecutionContext` (``context.tracer``, ``None``
  by default); every span is a context manager, so it closes on all exception
  paths by construction (``tests/conftest.py`` asserts no span is left open
  after any test).  Span ids derive from the execution ``SeedSequence`` path
  and creation order — never from wall-clock time — so the same query
  replays to the same trace tree.  Spans *record* wall time for display;
  nothing downstream may read it back into result-bearing values
  (``tests/test_source_rules.py``).

* :mod:`repro.obs.metrics` — a process-wide registry of counters and
  histograms with a Prometheus text exporter (served by the query service at
  ``GET /metrics``) and a JSON snapshot (on the status route).

* :mod:`repro.obs.profile` — ``execute(analyze=True)`` attaches an
  :class:`~repro.obs.profile.ExecutionProfile` to results: per-operator
  actual vs estimated detector calls and seconds, feeding the optimizer
  estimate-error report (``python -m repro.obs calibration``).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.profile import ExecutionProfile, OperatorProfile, build_profile
from repro.obs.trace import SpanRecord, Tracer, maybe_span, operator_scope

__all__ = [
    "ExecutionProfile",
    "MetricsRegistry",
    "OperatorProfile",
    "SpanRecord",
    "Tracer",
    "build_profile",
    "get_registry",
    "maybe_span",
    "operator_scope",
]
