"""Parallel, cached, resumable design-space sweep engine.

The paper's thesis — that SPM capacity and integration flow must be
co-explored — only bites when the design space gets big.  This package
scales the serial :class:`repro.core.explorer.Explorer` loop into a sweep
engine:

* :mod:`~repro.sweep.spec` — declarative :class:`SweepSpec` axes
  cross-producted into :class:`Job` views, each one validated
  :class:`repro.api.Scenario` plus its content key;
* :mod:`~repro.sweep.cache` — content-addressed on-disk
  :class:`ResultCache` (job parameters + code-model version), so repeated
  sweeps are near-free;
* :mod:`~repro.sweep.store` — append-only :class:`ResultStore` audit log
  plus record/point serialization;
* :mod:`~repro.sweep.report` — ranking and summaries over the same
  objectives the serial explorer uses.

The sweep itself runs on :class:`repro.engine.Engine` (pluggable
serial/thread/process backends, two-tier cache, per-job error capture,
resume-by-retry of failures).  Quick start::

    from repro.engine import Engine
    from repro.sweep import ResultCache, SweepSpec

    spec = SweepSpec(bandwidths=(4.0, 16.0, 64.0))
    engine = Engine(cache=ResultCache(".sweep-cache"), workers=4)
    print(engine.run(spec.jobs()).stats.summary())

Names resolve lazily (PEP 562, :mod:`repro._lazy`): importing the
package imports none of its submodules, and the first access of an
exported name imports the one submodule that defines it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": ("ResultCache",),
    "report": ("format_table", "labeled_points", "pareto_pairs", "rank", "summarize"),
    "spec": ("CODE_MODEL_VERSION", "Job", "SweepSpec"),
    "store": ("ResultStore", "failure_record", "point_to_record", "record_to_point"),
})
