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

Names and the three submodules ``metrics``, ``profile`` and ``trace``
resolve lazily (PEP 562, :mod:`repro._lazy`): importing the package
imports none of its submodules, and the first access of an exported
name imports the one submodule that defines it.  So the pipeline's
spans do not load the HTML renderer.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "metrics": ("REGISTRY", "Counter", "Gauge", "Histogram", "MetricsRegistry"),
        "profile": ("StageProfiler",),
        "report": ("render_html", "stamp_bench", "write_html"),
    },
    submodules=("metrics", "profile", "trace"),
)
