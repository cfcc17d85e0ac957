"""The ``remote`` execution backend: sharded, fault-tolerant workers.

:class:`RemoteBackend` satisfies the engine's
:class:`~repro.engine.backends.ExecutionBackend` protocol by sharding
jobs across protocol workers — subprocesses it spawns itself (stdio
pipes) or standing workers on other hosts (TCP, see
``repro.service.worker --listen``).  What it adds over the ``process``
backend is fault tolerance, which a long-running service needs:

* **worker-death detection** — a worker that exits (or is ``kill -9``-ed)
  mid-batch costs only its own in-flight job: the job is requeued, a
  replacement worker is spawned, and every other worker keeps streaming;
* **per-job timeout** — a job that hangs a worker past the deadline gets
  the worker killed and the job requeued elsewhere;
* **bounded retry with exponential backoff** — a job is redispatched at
  most ``max_retries`` times, each wait doubling, after which it
  surfaces as an ordinary failure record (the batch never hangs and
  never loses a job).

Jobs and records cross the wire content-addressed and unmodified, so a
batch through this backend is byte-identical to ``serial`` — the cache
and every downstream consumer cannot tell the difference.
"""

from __future__ import annotations

import heapq
import itertools
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from typing import Callable, Iterator, Optional, Sequence

from ..sweep.spec import Job
from ..sweep.store import failure_record
from .protocol import build_hello, read_message, write_message

#: Seconds a single evaluation may run before its worker is recycled.
DEFAULT_JOB_TIMEOUT_S = 300.0

#: Redispatch attempts per job after its first worker loss.
DEFAULT_MAX_RETRIES = 2

#: First-retry delay; doubles per subsequent attempt of the same job.
DEFAULT_BACKOFF_S = 0.05

#: Seconds a fresh worker may take to answer the handshake.
HANDSHAKE_TIMEOUT_S = 60.0

#: Environment variables configuring the backend when built by name
#: (``--backend remote`` has no constructor surface to pass these).
HOSTS_ENV = "REPRO_REMOTE_HOSTS"
TIMEOUT_ENV = "REPRO_REMOTE_TIMEOUT_S"


def _worker_env() -> dict[str, str]:
    """Subprocess environment with this package importable."""
    import repro

    src = str(os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


class _Worker:
    """One protocol session: a spawned subprocess or a TCP connection.

    A reader thread turns the worker's messages into events on the
    pool's queue; the pool thread owns all writes.  ``discarded`` marks
    workers the pool has already written off, so late events from their
    reader threads are ignored.
    """

    _ids = itertools.count(1)

    def __init__(self, events: queue.Queue, host: Optional[str] = None):
        self.id = next(self._ids)
        self.host = host
        self.events = events
        self.proc: Optional[subprocess.Popen] = None
        self.sock: Optional[socket.socket] = None
        self.last_error: Optional[str] = None

    def start(self, hello: dict) -> None:
        """Spawn/connect, send the handshake, and start the reader."""
        if self.host is not None:
            host, _, port = self.host.rpartition(":")
            self.sock = socket.create_connection(
                (host or "127.0.0.1", int(port)), timeout=10.0
            )
            self._rfile = self.sock.makefile("rb")
            self._wfile = self.sock.makefile("wb")
        else:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service.worker"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=_worker_env(),
            )
            self._rfile = self.proc.stdout
            self._wfile = self.proc.stdin
        write_message(self._wfile, hello)
        thread = threading.Thread(
            target=self._read_loop, name=f"repro-worker-{self.id}", daemon=True
        )
        thread.start()

    def _read_loop(self) -> None:
        try:
            while True:
                message = read_message(self._rfile)
                if message is None:
                    break
                op = message.get("op")
                if op == "ready":
                    self.events.put(("ready", self, message))
                elif op in ("result", "error"):
                    self.events.put(("msg", self, message))
                elif op == "pong":
                    continue
                else:  # handshake rejection or protocol corruption
                    self.last_error = str(message)
                    break
        except Exception as exc:
            self.last_error = str(exc)
        self.events.put(("dead", self, None))

    def send_eval(self, eval_id: int, job: Job) -> None:
        write_message(self._wfile, {
            "op": "eval", "id": eval_id, "job": job.params(),
            "engine": job.engine,
        })

    def kill(self) -> None:
        """Forcefully end the session (timeouts, pool teardown)."""
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            # Reap, and release the pipe ends so the reader unblocks.
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            self.proc.wait()
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass

    def shutdown(self) -> None:
        """Politely end the session (normal end of batch)."""
        try:
            write_message(self._wfile, {"op": "shutdown"})
        except (OSError, ValueError):
            pass
        if self.proc is not None:
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
        self.kill()


class RemoteBackend:
    """Shard jobs across protocol workers; survive their deaths.

    Args:
        workers: Worker subprocesses to spawn (0 = one per core,
            bounded); ignored when ``hosts`` names standing workers.
        mp_context / chunksize: Accepted for the uniform backend
            constructor surface; unused.
        hosts: ``host:port`` addresses of standing TCP workers
            (``repro.service.worker --listen``); defaults to
            ``$REPRO_REMOTE_HOSTS`` (comma-separated), else local
            subprocesses.
        job_timeout_s: Per-evaluation deadline before the worker is
            recycled; defaults to ``$REPRO_REMOTE_TIMEOUT_S`` or
            :data:`DEFAULT_JOB_TIMEOUT_S`.
        max_retries: Redispatches per job after worker loss/timeouts.
        backoff_s: First-retry delay; doubles per attempt.
    """

    name = "remote"

    def __init__(
        self,
        workers: int = 0,
        mp_context=None,
        chunksize=None,
        hosts: Optional[Sequence[str]] = None,
        job_timeout_s: Optional[float] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
    ) -> None:
        del mp_context, chunksize
        from ..engine.backends import _auto_workers

        if hosts is None:
            raw = os.environ.get(HOSTS_ENV, "")
            hosts = tuple(h.strip() for h in raw.split(",") if h.strip()) or None
        self.hosts = tuple(hosts) if hosts else None
        self.workers = (
            len(self.hosts) if self.hosts else _auto_workers(workers)
        )
        if job_timeout_s is None:
            job_timeout_s = float(
                os.environ.get(TIMEOUT_ENV, DEFAULT_JOB_TIMEOUT_S)
            )
        if job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.job_timeout_s = float(job_timeout_s)
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)

    # -- worker lifecycle ----------------------------------------------
    def _spawn(self, hello: dict, events: queue.Queue, slot: int) -> _Worker:
        host = self.hosts[slot % len(self.hosts)] if self.hosts else None
        worker = _Worker(events, host=host)
        worker.start(hello)
        return worker

    # -- the batch loop -------------------------------------------------
    def run(
        self, evaluate: Callable[[Job], object], jobs: list[Job]
    ) -> Iterator[dict]:
        if not jobs:
            return
        hello = build_hello(evaluate)
        events: queue.Queue = queue.Queue()
        target = min(self.workers, len(jobs))
        seq = itertools.count()
        # Ready-time heap of (not_before, tiebreak, job index, attempts):
        # fresh jobs are dispatchable immediately, retries after backoff.
        pending: list[tuple[float, int, int, int]] = [
            (0.0, next(seq), i, 0) for i in range(len(jobs))
        ]
        heapq.heapify(pending)
        inflight: dict[_Worker, tuple[int, float, int]] = {}
        handshaking: dict[_Worker, float] = {}  # worker -> ready deadline
        idle: list[_Worker] = []
        live: set[_Worker] = set()
        discarded: set[_Worker] = set()
        slots = itertools.count()
        deaths = 0
        completed = 0
        yielded = 0
        last_error: Optional[str] = None

        def write_off(worker: _Worker):
            """Discard a worker; returns its in-flight entry, if any."""
            discarded.add(worker)
            live.discard(worker)
            if worker in idle:
                idle.remove(worker)
            handshaking.pop(worker, None)
            worker.kill()
            return inflight.pop(worker, None)

        def requeue_or_fail(index: int, attempts: int, reason: str):
            """Retry a lost job with backoff, or fail it past the bound."""
            attempts += 1
            if attempts > self.max_retries:
                return failure_record(
                    jobs[index],
                    RuntimeError(
                        f"remote evaluation failed after {attempts} "
                        f"attempts: {reason}"
                    ),
                )
            delay = self.backoff_s * (2.0 ** (attempts - 1))
            heapq.heappush(
                pending,
                (time.monotonic() + delay, next(seq), index, attempts),
            )
            return None

        try:
            while yielded < len(jobs):
                now = time.monotonic()
                # Dispatch every ready job we have capacity for; grow
                # the pool (initially, and after deaths) toward target.
                while pending and pending[0][0] <= now:
                    if not idle:
                        if len(live) < target:
                            try:
                                spawned = self._spawn(
                                    hello, events, next(slots)
                                )
                                live.add(spawned)
                                handshaking[spawned] = (
                                    now + HANDSHAKE_TIMEOUT_S
                                )
                            except OSError as exc:
                                if not live and not inflight:
                                    raise RuntimeError(
                                        f"cannot start remote workers: {exc}"
                                    ) from exc
                                target = max(1, len(live))
                        break  # wait for a ready/result event
                    _, _, index, attempts = heapq.heappop(pending)
                    worker = idle.pop()
                    try:
                        worker.send_eval(index, jobs[index])
                    except (OSError, ValueError) as exc:
                        deaths += 1
                        last_error = str(exc)
                        write_off(worker)
                        record = requeue_or_fail(index, attempts, str(exc))
                        if record is not None:
                            yielded += 1
                            yield record
                        continue
                    inflight[worker] = (
                        index,
                        now + self.job_timeout_s,
                        attempts,
                    )

                if deaths >= max(8, 4 * target) and completed == 0:
                    raise RuntimeError(
                        f"remote workers keep dying before completing any "
                        f"job; check worker stderr (last error: {last_error})"
                    )

                # Sleep until the next deadline, retry slot, or event.
                waits = [dl - now for _, dl, _ in inflight.values()]
                waits += [dl - now for dl in handshaking.values()]
                if pending and (idle or len(live) < target):
                    waits.append(pending[0][0] - now)
                timeout = min(waits) if waits else 1.0
                try:
                    kind, worker, message = events.get(
                        timeout=max(0.01, timeout)
                    )
                except queue.Empty:
                    now = time.monotonic()
                    for worker in [
                        w for w, dl in handshaking.items() if now >= dl
                    ]:
                        deaths += 1
                        last_error = "worker handshake timed out"
                        write_off(worker)
                    for worker in [
                        w for w, (_, dl, _) in inflight.items() if now >= dl
                    ]:
                        deaths += 1
                        last_error = f"timeout after {self.job_timeout_s:g}s"
                        index, _, attempts = write_off(worker)
                        record = requeue_or_fail(index, attempts, last_error)
                        if record is not None:
                            yielded += 1
                            yield record
                    continue

                if worker in discarded:
                    continue
                if kind == "ready":
                    handshaking.pop(worker, None)
                    idle.append(worker)
                elif kind == "msg":
                    if worker not in inflight:
                        continue  # stray message (e.g. a late error)
                    index, _, attempts = inflight.pop(worker)
                    idle.append(worker)
                    completed += 1
                    yielded += 1
                    if message["op"] == "result":
                        yield message["record"]
                    else:  # the worker could not even build the job
                        yield failure_record(
                            jobs[index],
                            RuntimeError(
                                message.get("error", "remote worker error")
                            ),
                        )
                else:  # kind == "dead"
                    deaths += 1
                    last_error = worker.last_error or "worker died"
                    lost = write_off(worker)
                    if lost is not None:
                        index, _, attempts = lost
                        record = requeue_or_fail(index, attempts, last_error)
                        if record is not None:
                            yielded += 1
                            yield record
        finally:
            for worker in list(live):
                worker.shutdown()
