"""Evaluation worker: one process serving the repro wire protocol.

Run by the :class:`~repro.service.pool.RemoteBackend` as a subprocess
(protocol on stdin/stdout), or standalone on another host::

    python -m repro.service.worker --listen 0.0.0.0:9123

In listen mode each TCP connection is an independent protocol session
(handshake, evals, shutdown), handled on its own thread, so one standing
worker can serve several dispatchers.

Workers are deliberately stateless between sessions: everything the
evaluation needs — plugin registrations, the evaluate function with its
stage-cache root and evaluation engine — arrives in the ``hello``
handshake, and each ``eval`` message names the engine its job is keyed
for, so a worker binary never has to match its caller's runtime
configuration, only its code version.
"""

from __future__ import annotations

import argparse
import os
import socketserver
import sys
from typing import IO

from ..sweep.spec import Job
from .protocol import apply_hello, read_message, write_message


def serve_stream(rfile: IO[bytes], wfile: IO[bytes]) -> None:
    """Run one protocol session: handshake, then evaluate until EOF."""
    hello = read_message(rfile)
    if hello is None:
        return
    if hello.get("op") != "hello":
        write_message(
            wfile, {"op": "error", "id": None, "error": "expected hello"}
        )
        return
    try:
        evaluate = apply_hello(hello)
    except Exception as exc:
        write_message(wfile, {"op": "error", "id": None, "error": str(exc)})
        return
    write_message(wfile, {"op": "ready", "pid": os.getpid()})

    from ..engine.backends import run_one

    while True:
        message = read_message(rfile)
        if message is None or message.get("op") == "shutdown":
            return
        if message.get("op") == "ping":
            write_message(wfile, {"op": "pong"})
            continue
        if message.get("op") != "eval":
            write_message(
                wfile,
                {
                    "op": "error",
                    "id": message.get("id"),
                    "error": f"unknown op {message.get('op')!r}",
                },
            )
            continue
        try:
            job = Job.from_params(message["job"], message["engine"])
        except Exception as exc:
            # The job itself cannot be built here (e.g. a workload the
            # handshake could not ship); the dispatcher owns the Job
            # object and turns this into a proper failure record.
            write_message(
                wfile,
                {
                    "op": "error",
                    "id": message.get("id"),
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
            continue
        record = run_one(evaluate, job)  # exceptions become failure records
        write_message(
            wfile, {"op": "result", "id": message.get("id"), "record": record}
        )


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # one protocol session per connection
        serve_stream(self.rfile, self.wfile)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def main(argv: list[str] | None = None) -> int:
    """Worker entry point: stdio protocol, or ``--listen HOST:PORT``."""
    parser = argparse.ArgumentParser(
        prog="repro.service.worker",
        description="repro evaluation worker (NDJSON wire protocol)",
    )
    parser.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve the protocol over TCP instead of stdio "
        "(port 0 picks a free port, printed on stdout)",
    )
    args = parser.parse_args(argv)

    if args.listen is None:
        # Stdio mode: the protocol owns fd 1.  Anything the evaluation
        # stack prints must not corrupt it, so the protocol keeps the
        # original buffer and sys.stdout is re-pointed at stderr.
        out = sys.stdout.buffer
        sys.stdout = sys.stderr
        serve_stream(sys.stdin.buffer, out)
        return 0

    host, _, port = args.listen.rpartition(":")
    with _Server((host or "127.0.0.1", int(port)), _Handler) as server:
        bound = server.server_address
        print(f"listening on {bound[0]}:{bound[1]}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
