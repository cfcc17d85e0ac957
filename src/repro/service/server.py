"""The repro job API: a stdlib-asyncio HTTP+JSON server over the engine.

:class:`ReproService` turns the batch evaluation stack into a
long-running system.  Clients submit sweeps, searches, or ad-hoc runs;
the service executes them on a shared :class:`~repro.engine.Engine`
(one tiered cache, one backend) and streams results back as NDJSON.

Endpoints (all JSON; NDJSON where noted)::

    POST /v1/sweeps                {"spec": {...SweepSpec.to_dict...}}
    POST /v1/searches              {"space": {...}, "strategy": ..., ...}
    POST /v1/runs                  {"scenarios": [...], "sync": bool}
    GET  /v1/jobs                  job snapshots
    GET  /v1/jobs/{id}             one snapshot
    POST /v1/jobs/{id}/cancel      request cancellation
    GET  /v1/jobs/{id}/results     records so far; ?stream=1 follows the
                                   job live as chunked NDJSON
    GET  /v1/cache                 cache tier statistics
    GET  /v1/health                liveness + drain state + job counts

Operational behaviour:

* **Backpressure** — submissions beyond ``queue_limit`` queued jobs get
  ``429`` with ``Retry-After``; the job table never grows unboundedly
  faster than the runners drain it.
* **Graceful drain** — SIGTERM (or :meth:`ReproService.request_drain`)
  stops admitting work (``503``), lets active jobs finish, then exits.
  Because every record lands in the shared multi-writer cache the
  moment it completes, even a hard kill loses no finished evaluation.
* **Sync fast path** — ``POST /v1/runs`` with ``"sync": true`` answers
  with the records in the response body, skipping the job table; against
  a warm cache this serves thousands of requests per second.

The server is written against ``asyncio.start_server`` directly — a
deliberately small HTTP/1.1 subset (keep-alive, Content-Length bodies,
chunked responses for streaming) so serving needs nothing outside the
standard library.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from ..api.scenario import check_engine
from ..engine.backends import resolve_backend
from ..engine.cache import cache_stats
from ..engine.core import Engine
from ..obs import metrics, trace
from ..sweep.cache import ResultCache
from ..sweep.spec import Scenario, SweepSpec
from .jobs import JobState, JobTable, ServiceJob

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8787
#: Queued (not yet running) jobs beyond which submissions get 429.
DEFAULT_QUEUE_LIMIT = 64
#: Jobs executing concurrently; the rest wait in the queue.
DEFAULT_MAX_ACTIVE = 2
#: Request bodies beyond this are rejected with 413.
MAX_BODY_BYTES = 8 << 20
#: How long a streaming poll blocks before re-checking for cancellation.
STREAM_POLL_S = 0.25

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """A handler-level failure that maps onto one HTTP response."""

    def __init__(
        self, status: int, message: str, headers: Optional[dict] = None
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


class _Cancelled(Exception):
    """Raised inside a runner to unwind a cancelled job."""


def _encode_response(
    status: int,
    payload,
    headers: Optional[dict] = None,
) -> bytes:
    """One complete HTTP/1.1 response with a JSON body."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def _chunk(data: bytes) -> bytes:
    """One HTTP chunked-transfer-encoding chunk."""
    return b"%x\r\n%s\r\n" % (len(data), data)


def _encode_text(status: int, text: str, content_type: str) -> bytes:
    """One complete HTTP/1.1 response with a plain-text body."""
    body = text.encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    return head + body


class ReproService:
    """Async job server over a shared engine and multi-writer cache.

    Args:
        host: Bind address.
        port: Bind port (0 picks a free one; ``self.port`` holds the
            real port once started).
        cache_dir: Shared disk cache root (``None`` = memory-only).
            Workers, other service instances, and plain ``repro sweep``
            runs pointed at the same directory all share warm results —
            the multi-writer cache makes that safe.
        backend: Execution backend name/instance for evaluations
            (``None`` = the engine's default).
        workers: Worker count for pool backends.
        queue_limit: Queued-job bound before 429 backpressure.
        max_active: Jobs executing concurrently.
        sim_engine: Evaluation engine of every run, sweep and search
            (``"fast"`` or ``"analytic"``).
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        cache_dir: Optional[str] = None,
        backend=None,
        workers: int = 0,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        max_active: int = DEFAULT_MAX_ACTIVE,
        sim_engine: str = "fast",
    ) -> None:
        if queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        if max_active <= 0:
            raise ValueError("max_active must be positive")
        self.host = host
        self.port = port
        self.cache_dir = cache_dir
        self.queue_limit = queue_limit
        # Resolved before the cache directory is created: a rejected
        # name leaves the filesystem untouched.
        check_engine(sim_engine)
        backend = resolve_backend(backend, workers=workers)
        # Requests hand their counts over in memory; stats.json merges
        # at most once a second (engine.cache.CounterAccumulator).
        self.engine = Engine(
            backend=backend,
            workers=workers,
            cache=ResultCache(cache_dir) if cache_dir else None,
            sim_engine=sim_engine,
        )
        self.table = JobTable()
        self._runner = ThreadPoolExecutor(
            max_workers=max_active, thread_name_prefix="repro-job"
        )
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped: Optional[asyncio.Event] = None
        #: Open connections: handler task -> its stream writer.
        self._conns: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.started_unix = time.time()
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """Wire this service into the process-wide metrics registry.

        Counters are owned here; gauges are callbacks over state other
        layers already maintain (job table, cache tiers), so exporting
        them costs the hot paths nothing.  When several services share
        a process (tests), the most recently constructed one owns the
        gauges — counters accumulate across all of them.
        """
        self._requests_total = metrics.counter(
            "repro_service_requests_total", "HTTP requests dispatched"
        )
        self._backpressure_total = metrics.counter(
            "repro_service_backpressure_total",
            "submissions rejected with 429 (queue full)",
        )
        self._drain_total = metrics.counter(
            "repro_service_drain_total", "drain requests received"
        )
        metrics.gauge(
            "repro_service_queue_depth", "jobs queued, not yet running"
        ).set_function(self.table.queued)
        metrics.gauge(
            "repro_service_active_jobs", "jobs currently running"
        ).set_function(
            lambda: self.table.counts().get(JobState.RUNNING, 0)
        )
        metrics.gauge(
            "repro_service_uptime_seconds", "seconds since service start"
        ).set_function(lambda: time.time() - self.started_unix)
        cache = self.engine.cache
        metrics.gauge(
            "repro_cache_memory_hits", "LRU-tier cache hits"
        ).set_function(lambda: cache.memory_hits)
        metrics.gauge(
            "repro_cache_disk_hits", "disk-tier cache hits"
        ).set_function(lambda: cache.disk_hits)
        metrics.gauge(
            "repro_cache_misses", "cache misses (evaluations owed)"
        ).set_function(lambda: cache.misses)
        metrics.gauge(
            "repro_cache_stores", "records stored into the cache"
        ).set_function(lambda: cache.stores)
        def _stage_counter(name: str):
            return lambda: (self.engine.stage_counters() or {}).get(name, 0)

        # Literal names by design: REP007 checks metric names statically.
        metrics.gauge(
            "repro_stage_physical_hits", "stage-cache physical-stage hits"
        ).set_function(_stage_counter("physical_hits"))
        metrics.gauge(
            "repro_stage_physical_evals", "physical-stage evaluations"
        ).set_function(_stage_counter("physical_evals"))
        metrics.gauge(
            "repro_stage_cycles_hits", "stage-cache cycles-stage hits"
        ).set_function(_stage_counter("cycles_hits"))
        metrics.gauge(
            "repro_stage_cycles_evals", "cycles-stage evaluations"
        ).set_function(_stage_counter("cycles_evals"))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> str:
        """Bind and start accepting; returns the service URL."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.url

    async def serve_until_stopped(self, install_signals: bool = True) -> None:
        """Serve until :meth:`stop` (or a drained SIGTERM); then clean up."""
        if self._server is None:
            await self.start()
        if install_signals:
            try:
                self._loop.add_signal_handler(
                    signal.SIGTERM, self.request_drain
                )
            except (NotImplementedError, RuntimeError):
                install_signals = False  # non-main thread or platform
        try:
            await self._stopped.wait()
        finally:
            if install_signals:
                self._loop.remove_signal_handler(signal.SIGTERM)
            self._server.close()
            await self._close_connections()
            await self._server.wait_closed()
            self._runner.shutdown(wait=True)
            self.engine.cache.flush_stats(force=True)

    async def _close_connections(self) -> None:
        """Close every connection and let its handler return by itself.

        The loop's teardown would cancel a handler still in
        ``wait_closed``, and the stream protocol then logs a spurious
        traceback; a handler busy past five seconds is left to it.
        """
        for writer in self._conns.values():
            writer.close()
        if self._conns:
            await asyncio.wait(list(self._conns), timeout=5.0)

    def request_drain(self) -> None:
        """Refuse new work, finish active jobs, then stop (SIGTERM path)."""
        if self._draining:
            return
        self._drain_total.inc()
        self._draining = True
        if self._loop is not None:
            self._loop.create_task(self._drain_watch())

    async def _drain_watch(self) -> None:
        while self.table.pending():
            await asyncio.sleep(0.05)
        if self._stopped is not None:
            self._stopped.set()

    def stop(self) -> None:
        """Stop now: cancel every outstanding job and shut down.

        Thread-safe; this is the hard-stop counterpart of
        :meth:`request_drain` (used by tests and ``run_in_thread``).
        """
        self._draining = True
        for job in self.table.jobs():
            job.cancel()
        if self._loop is not None and self._stopped is not None:
            try:
                self._loop.call_soon_threadsafe(self._stopped.set)
            except RuntimeError:
                pass  # loop already closed: a drain finished first

    def run_in_thread(self) -> "_ServiceThread":
        """Context manager running this service on a background thread.

        ``__enter__`` blocks until the server is accepting and yields
        its URL; ``__exit__`` hard-stops it::

            with ReproService(port=0).run_in_thread() as url:
                client = ServiceClient(url)
        """
        return _ServiceThread(self)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _read_request(self, reader: asyncio.StreamReader):
        """``(method, target, headers, body)`` or ``None`` at EOF."""
        try:
            line = await reader.readline()
        except (ValueError, ConnectionError):
            return None  # oversized request line; drop the connection
        if not line:
            return None
        parts = line.decode("latin-1", "replace").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
        return method, target, headers, body

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conns[task] = writer
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as err:
                    writer.write(
                        _encode_response(
                            err.status,
                            {"error": err.message},
                            {"Connection": "close", **err.headers},
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                method, target, headers, body = request
                try:
                    response = await self._dispatch(
                        method, target, headers, body, writer
                    )
                except _HttpError as err:
                    response = _encode_response(
                        err.status, {"error": err.message}, err.headers
                    )
                except Exception as exc:  # handler bug: report, keep serving
                    response = _encode_response(
                        500, {"error": f"{type(exc).__name__}: {exc}"}
                    )
                if response is None:
                    return  # the handler streamed; close the connection
                writer.write(response)
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                del self._conns[task]

    async def _dispatch(
        self,
        method: str,
        target: str,
        headers: dict,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> Optional[bytes]:
        """Route one request; ``None`` means the handler streamed."""
        self._requests_total.inc()
        url = urlsplit(target)
        query = parse_qs(url.query)
        parts = [p for p in url.path.split("/") if p]
        if not parts or parts[0] != "v1":
            raise _HttpError(404, f"no such path {url.path!r}")
        route = parts[1:]
        # The submitter's span context, when both sides are armed: jobs
        # accepted from this request re-parent their spans to it.
        trace_ctx = (
            trace.from_header(headers.get(trace.HEADER.lower()))
            if trace.enabled()
            else None
        )

        # Admission validates specs (cross-product materialization, field
        # coercion) — CPU-bound work that must not run on the event loop.
        if method == "POST" and route == ["sweeps"]:
            return await asyncio.to_thread(
                self._submit_sweep, _parse_body(body), trace_ctx
            )
        if method == "POST" and route == ["searches"]:
            return await asyncio.to_thread(
                self._submit_search, _parse_body(body), trace_ctx
            )
        if method == "POST" and route == ["runs"]:
            return await self._submit_runs(_parse_body(body), trace_ctx)
        if route == ["jobs"] and method == "GET":
            return _encode_response(
                200, {"jobs": [j.snapshot() for j in self.table.jobs()]}
            )
        if route[:1] == ["jobs"] and len(route) >= 2:
            job = self.table.get(route[1])
            if job is None:
                raise _HttpError(404, f"no such job {route[1]!r}")
            if len(route) == 2 and method == "GET":
                return _encode_response(200, job.snapshot())
            if route[2:] == ["cancel"] and method == "POST":
                job.cancel()
                return _encode_response(200, job.snapshot())
            if route[2:] == ["results"] and method == "GET":
                try:
                    start = int(query.get("from", ["0"])[-1])
                except ValueError:
                    raise _HttpError(400, "bad 'from' index") from None
                if query.get("stream", ["0"])[-1] in ("1", "true"):
                    await self._stream_results(writer, job, start)
                    return None
                records, _ = job.records_since(start)
                return _encode_response(
                    200,
                    {
                        "id": job.id,
                        "state": job.snapshot()["state"],
                        "from": start,
                        "records": records,
                    },
                )
        if route == ["cache"] and method == "GET":
            # cache_summary merges this process's pending counts into the
            # stats sidecar (flock + rename) and re-reads results.jsonl —
            # disk I/O, so off the loop.
            return _encode_response(
                200, await asyncio.to_thread(self.cache_summary)
            )
        if route == ["metrics"] and method == "GET":
            # Pure in-memory snapshot — no blocking work, safe on the loop.
            if query.get("format", [""])[-1] == "prometheus":
                return _encode_text(
                    200,
                    metrics.REGISTRY.prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            return _encode_response(
                200, {"metrics": metrics.REGISTRY.collect()}
            )
        if route == ["health"] and method == "GET":
            return _encode_response(200, self.health())
        raise _HttpError(404, f"no handler for {method} {url.path}")

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _admit(
        self, kind: str, spec: dict, trace_ctx: Optional[dict] = None
    ) -> bytes:
        """Queue a validated job, honouring drain and backpressure."""
        if self._draining:
            raise _HttpError(
                503, "service is draining", {"Retry-After": "5"}
            )
        if self.table.queued() >= self.queue_limit:
            self._backpressure_total.inc()
            raise _HttpError(
                429,
                f"job queue full ({self.queue_limit} queued)",
                {"Retry-After": "1"},
            )
        job = self.table.create(kind, spec, trace_ctx=trace_ctx)
        self._runner.submit(self._run_job, job)
        return _encode_response(200, job.snapshot())

    def _submit_sweep(
        self, body: dict, trace_ctx: Optional[dict] = None
    ) -> bytes:
        spec_dict = body.get("spec", body)
        try:
            spec = SweepSpec.from_dict(spec_dict)
            for _ in spec.jobs():  # materialize once: axis values coerce
                pass
        except Exception as exc:
            raise _HttpError(400, f"bad sweep spec: {exc}") from None
        return self._admit("sweep", {"spec": spec.to_dict()}, trace_ctx)

    def _submit_search(
        self, body: dict, trace_ctx: Optional[dict] = None
    ) -> bytes:
        from ..search.space import SearchSpace

        try:
            SearchSpace.from_dict(body["space"])
            budget = int(body.get("budget", 32))
            if budget <= 0:
                raise ValueError("budget must be positive")
        except _HttpError:
            raise
        except KeyError:
            raise _HttpError(400, "search needs a 'space'") from None
        except Exception as exc:
            raise _HttpError(400, f"bad search spec: {exc}") from None
        return self._admit("search", dict(body), trace_ctx)

    async def _submit_runs(
        self, body: dict, trace_ctx: Optional[dict] = None
    ) -> Optional[bytes]:
        raw = body.get("scenarios")
        if raw is None and "scenario" in body:
            raw = [body["scenario"]]
        if not isinstance(raw, list) or not raw:
            raise _HttpError(
                400, "runs need 'scenarios' (list) or 'scenario'"
            )
        try:
            scenarios = [Scenario.from_dict(d) for d in raw]
        except Exception as exc:
            raise _HttpError(400, f"bad scenario: {exc}") from None
        if not body.get("sync", False):
            return self._admit(
                "run",
                {"scenarios": [s.to_dict() for s in scenarios]},
                trace_ctx,
            )
        # Sync fast path: answer in-band.  Off the event loop so one
        # cold-cache request cannot stall every other connection; warm
        # requests are dictionary lookups and come back in microseconds.
        if self._draining:
            raise _HttpError(503, "service is draining", {"Retry-After": "5"})
        outcome = await asyncio.to_thread(
            self._run_sync, scenarios, trace_ctx
        )
        return _encode_response(
            200,
            {
                "records": outcome.records,
                # EngineStats is flat: its field dict is its asdict().
                "stats": dict(vars(outcome.stats)),
            },
        )

    def _run_sync(self, scenarios, trace_ctx: Optional[dict] = None):
        """Evaluate a sync-runs batch on a worker thread, under a span."""
        with trace.activate(trace_ctx):
            with trace.span("service.runs", scenarios=len(scenarios)):
                return self.engine.run(scenarios)

    def cache_summary(self) -> dict:
        """The `/v1/cache` document (shared with ``repro cache stats``)."""
        if self.cache_dir is None:
            cache = self.engine.cache
            return {
                "path": None,
                "entries": len(cache.memory),
                "memory_hits": cache.memory_hits,
                "disk_hits": cache.disk_hits,
                "misses": cache.misses,
                "stores": cache.stores,
            }
        # Hand over the engine's counts; cache_stats merges every pending
        # count of this process before it reads, so the document is current.
        self.engine.cache.flush_stats()
        return cache_stats(self.cache_dir)

    def health(self) -> dict:
        from .. import __version__

        counts = self.table.counts()
        return {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "jobs": counts,
            "queue_limit": self.queue_limit,
            "uptime_s": time.time() - self.started_unix,
            "queue_depth": self.table.queued(),
            "active_jobs": counts.get(JobState.RUNNING, 0),
        }

    async def _stream_results(
        self, writer: asyncio.StreamWriter, job: ServiceJob, start: int = 0
    ) -> None:
        """Follow a job live: one NDJSON line per record, chunked.

        ``start`` skips records a reconnecting client already has, so a
        dropped stream resumes instead of replaying.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        index = max(0, start)
        while True:
            records, finished = await asyncio.to_thread(
                job.wait_records, index, STREAM_POLL_S
            )
            if records:
                payload = b"".join(
                    (json.dumps(r, sort_keys=True) + "\n").encode("utf-8")
                    for r in records
                )
                writer.write(_chunk(payload))
                await writer.drain()
                index += len(records)
            elif finished:
                break
        summary = json.dumps(
            {"job": job.snapshot()}, sort_keys=True
        ) + "\n"
        writer.write(_chunk(summary.encode("utf-8")) + b"0\r\n\r\n")
        await writer.drain()

    # ------------------------------------------------------------------
    # job execution (runner threads)
    # ------------------------------------------------------------------
    def _run_job(self, job: ServiceJob) -> None:
        if job.cancelled:
            job.finish(JobState.CANCELLED)
            return
        job.start()
        # Runner threads have no ambient context: re-parent this job's
        # spans to the submitting request's (shipped on the job).
        with trace.activate(job.trace_ctx):
            with trace.span("service.job", kind=job.kind, job=job.id):
                try:
                    if job.kind == "search":
                        self._run_search(job)
                    else:
                        self._run_batch(job)
                    job.finish(JobState.DONE)
                except _Cancelled:
                    job.finish(JobState.CANCELLED)
                except Exception as exc:
                    job.finish(
                        JobState.FAILED,
                        error=f"{type(exc).__name__}: {exc}",
                    )

    def _run_batch(self, job: ServiceJob) -> None:
        if job.kind == "sweep":
            items = list(SweepSpec.from_dict(job.spec["spec"]).jobs())
        else:  # "run"
            items = [Scenario.from_dict(d) for d in job.spec["scenarios"]]
        job.set_total(len(items))
        for _, record in self.engine.run_many(items):
            job.append(record)
            if job.cancelled:
                # Abandon the stream; everything already evaluated is in
                # the shared cache, so a resubmission picks up from here.
                raise _Cancelled()

    def _run_search(self, job: ServiceJob) -> None:
        from ..search.driver import DEFAULT_OBJECTIVES, Searcher
        from ..search.space import SearchSpace

        spec = job.spec

        def on_result(done: int, total: int, record: dict) -> None:
            del done, total
            job.append(record)
            if job.cancelled:
                raise _Cancelled()

        searcher = Searcher(
            SearchSpace.from_dict(spec["space"]),
            objectives=spec.get("objectives") or DEFAULT_OBJECTIVES,
            strategy=spec.get("strategy", "evolutionary"),
            budget=int(spec.get("budget", 32)),
            generation_size=spec.get("generation_size"),
            seed=int(spec.get("seed", 0)),
            cache=self.engine.cache,
            backend=self.engine.backend,
            strategy_options=spec.get("strategy_options"),
            on_result=on_result,
            sim_engine=self.engine.sim_engine,
        )
        job.set_total(searcher.budget)
        searcher.run()


class _ServiceThread:
    """Run a :class:`ReproService` on a daemon thread (tests, examples)."""

    def __init__(self, service: ReproService) -> None:
        self.service = service
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def __enter__(self) -> str:
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service did not start within 30s")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self.service.url

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surfaced from __enter__ or ignored
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        await self.service.start()
        self._ready.set()
        await self.service.serve_until_stopped(install_signals=False)

    def __exit__(self, *exc) -> None:
        self.service.stop()
        if self._thread is not None:
            self._thread.join(timeout=30)


def _parse_body(body: bytes) -> dict:
    if not body:
        return {}
    try:
        parsed = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HttpError(400, f"bad JSON body: {exc}") from None
    if not isinstance(parsed, dict):
        raise _HttpError(400, "body must be a JSON object")
    return parsed
