"""The NDJSON wire protocol between job dispatchers and workers.

One protocol serves every transport: the :class:`~repro.service.pool.
RemoteBackend` speaks it to worker subprocesses over stdio pipes and to
workers on other hosts over TCP sockets (``repro.service.worker
--listen``).  Messages are single JSON objects, one per line:

========= =========== ==========================================
direction ``op``      payload
========= =========== ==========================================
caller →  ``hello``   handshake: code-model version, evaluate
                      spec, runtime plugin registrations
worker →  ``ready``   handshake accepted (worker pid)
caller →  ``eval``    ``id`` + job parameters and evaluation
                      engine to evaluate
worker →  ``result``  ``id`` + the finished result record
worker →  ``error``   ``id`` + message (job could not be built)
caller →  ``shutdown``  drain and exit
========= =========== ==========================================

Jobs cross the wire as their parameter dicts
(:meth:`repro.sweep.spec.Job.params`) plus the evaluation engine they
are keyed for, from which the worker computes the same key, and results
as the exact record dicts :func:`repro.engine.backends.run_one` emits —
so a record computed by a remote worker is byte-identical to one
computed in-process.

The *evaluate spec* keeps the common case lean: the engine's canonical
:func:`~repro.engine.core.evaluate_job` (curried with its ``stage_root``
and ``sim_engine``) is named symbolically, while any other picklable
callable ships as a base64 pickle — mirroring what the ``process``
backend can and cannot ship to its pool workers.
"""

from __future__ import annotations

import base64
import json
import pickle
from functools import partial
from typing import IO, Callable, Optional

#: Protocol revision; bumped on incompatible message changes.
PROTOCOL_VERSION = 2


def write_message(stream: IO[bytes], message: dict) -> None:
    """Serialize one message onto a binary stream and flush it."""
    stream.write((json.dumps(message, sort_keys=True) + "\n").encode("utf-8"))
    stream.flush()


def read_message(stream: IO[bytes]) -> Optional[dict]:
    """The next message from a binary stream, or ``None`` on EOF.

    Raises:
        ValueError: On a line that is not a JSON object (a corrupt or
            non-protocol peer; callers treat this like a dead worker).
    """
    line = stream.readline()
    if not line:
        return None
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError(f"protocol messages must be objects, got {message!r}")
    return message


def _pickle_b64(obj: object) -> str:
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def _unpickle_b64(data: str):
    return pickle.loads(base64.b64decode(data.encode("ascii")))


def describe_evaluate(evaluate: Callable) -> dict:
    """The wire form of an evaluate function.

    The canonical evaluate (``repro.engine.core.evaluate_job``, bare or
    curried with ``stage_root`` and ``sim_engine``) is named
    symbolically so workers build their own process-wide stage memo;
    anything else must survive pickling, exactly like a custom evaluate
    handed to the ``process`` backend.

    Raises:
        ValueError: If a non-canonical evaluate cannot be pickled.
    """
    from ..engine.core import evaluate_job

    fn, keywords = evaluate, {}
    if (
        isinstance(fn, partial)
        and not fn.args
        and set(fn.keywords) <= {"stage_root", "sim_engine"}
    ):
        keywords = fn.keywords
        fn = fn.func
    if fn is evaluate_job:
        return {"kind": "canonical", **keywords}
    try:
        return {"kind": "pickle", "data": _pickle_b64(evaluate)}
    except Exception as exc:
        raise ValueError(
            f"the remote backend cannot ship evaluate "
            f"{getattr(evaluate, '__name__', evaluate)!r}: {exc}"
        ) from None


def resolve_evaluate(spec: dict) -> Callable:
    """Rebuild the evaluate function from :func:`describe_evaluate` output."""
    if spec.get("kind") == "canonical":
        from ..engine.core import evaluate_job

        return partial(
            evaluate_job,
            stage_root=spec.get("stage_root"),
            sim_engine=spec.get("sim_engine", "fast"),
        )
    return _unpickle_b64(spec["data"])


def build_hello(evaluate: Callable) -> dict:
    """The handshake message for one batch of evaluations.

    Carries everything a fresh worker process (possibly on another host)
    needs to match in-process evaluation: the evaluate spec, the
    caller's picklable runtime plugin registrations, and the code-model
    version for a compatibility check.
    """
    from ..api.scenario import CODE_MODEL_VERSION
    from ..engine.backends import _picklable_items
    from ..api.registry import FLOWS, WORKLOADS

    return {
        "op": "hello",
        "protocol": PROTOCOL_VERSION,
        "model_version": CODE_MODEL_VERSION,
        "evaluate": describe_evaluate(evaluate),
        "flows": _pickle_b64(_picklable_items(FLOWS)),
        "workloads": _pickle_b64(_picklable_items(WORKLOADS)),
    }


def apply_hello(hello: dict) -> Callable:
    """Apply a handshake in a worker process; returns the evaluate function.

    Raises:
        ValueError: On a protocol-revision mismatch.
    """
    from ..engine.backends import _init_worker

    if hello.get("protocol") != PROTOCOL_VERSION:
        raise ValueError(
            f"protocol mismatch: caller speaks {hello.get('protocol')}, "
            f"worker speaks {PROTOCOL_VERSION}"
        )
    _init_worker(
        _unpickle_b64(hello["flows"]), _unpickle_b64(hello["workloads"])
    )
    return resolve_evaluate(hello["evaluate"])
