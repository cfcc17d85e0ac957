"""repro as a service: an async job API over the shared engine.

The serving layer turns the batch-oriented evaluation stack into a
long-running system:

* :mod:`~repro.service.server` — :class:`ReproService`, a stdlib-asyncio
  HTTP+JSON server (``repro serve``) accepting sweep/search/run jobs,
  streaming results as NDJSON, applying backpressure when full, and
  draining gracefully on SIGTERM;
* :mod:`~repro.service.jobs` — the in-memory job table (states,
  progress, cancellation, result buffers);
* :mod:`~repro.service.pool` — :class:`RemoteBackend`, the ``remote``
  execution backend sharding jobs across worker subprocesses or hosts
  with per-job timeouts, bounded retries, and worker-death recovery;
* :mod:`~repro.service.worker` — the worker process serving the
  NDJSON wire protocol (:mod:`~repro.service.protocol`) over stdio or
  TCP.

The matching client SDK lives in :mod:`repro.client`.

Quick start::

    from repro.service import ReproService

    with ReproService(cache_dir=".sweep-cache").run_in_thread() as url:
        ...  # point repro.client.ServiceClient (or curl) at `url`

Names resolve lazily (PEP 562, :mod:`repro._lazy`): importing the
package imports none of its submodules, and the first access of an
exported name imports the one submodule that defines it.  The engine
imports :mod:`~repro.service.pool` to register the ``remote`` backend,
and importing the server here (which itself builds on the engine) would
close an import cycle.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "jobs": ("JobState", "ServiceJob"),
    "pool": ("RemoteBackend",),
    "protocol": ("PROTOCOL_VERSION",),
    "server": ("ReproService",),
})
