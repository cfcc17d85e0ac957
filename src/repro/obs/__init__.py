"""repro.obs — the observability layer: tracing, metrics, profiling, reports.

Four small modules, one discipline (disarmed costs one boolean check):

* :mod:`repro.obs.trace` — spans with parent linkage and a JSONL sink,
  propagated across process pools and the service HTTP boundary.
* :mod:`repro.obs.metrics` — process-wide counters/gauges/histograms,
  exported as JSON and Prometheus text (``GET /v1/metrics``).
* :mod:`repro.obs.profile` — per-stage profiling hooks over the
  pipeline, aggregated into per-sweep breakdowns.
* :mod:`repro.obs.report` — stamped BENCH artifacts and self-contained
  HTML reports.
"""

from . import metrics, profile, trace
from .metrics import REGISTRY, Counter, Gauge, Histogram, MetricsRegistry
from .profile import StageProfiler
from .report import render_html, stamp_bench, write_html

__all__ = [
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StageProfiler",
    "metrics",
    "profile",
    "render_html",
    "stamp_bench",
    "trace",
    "write_html",
]
