"""Lightweight distributed tracing for the evaluation stack.

One API — ``with trace.span("engine.backend", jobs=56):`` — produces a
JSONL sink whose records reconstruct the full engine → backend → worker
→ stage tree of a sweep.  The design constraints, in order:

* **Disarmed is free.**  Tracing is off unless armed via the
  ``REPRO_TRACE=1`` environment variable, ``Engine(trace=...)``, or
  :func:`enable`.  A disarmed :func:`span` call is one module-global
  boolean check returning a shared no-op singleton (the racecheck
  idiom), so the hot paths stay hot.
* **Context crosses process pools.**  Thread-locals do not survive
  pickling, so the process backend hands each worker it starts an
  :func:`envelope` (trace id, parent span id, sink path) and workers
  :func:`adopt` it — their spans re-parent to the submitting span and
  append to the same sink file (the multi-writer append discipline the
  caches already rely on: one ``O_APPEND`` write per record).
* **Context crosses HTTP.**  The client SDK serializes the current
  context into the ``X-Repro-Trace`` header (:func:`to_header`); the
  service parses it back (:func:`from_header`) and activates it around
  job execution, so a span opened in the client process is the parent
  of spans recorded by the server.

Span records are plain JSON objects::

    {"trace": "6f..", "span": "b1..", "parent": "9a..", "name": "...",
     "start_unix": ..., "duration_s": ..., "pid": ..., "attrs": {...}}
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Iterator, Optional, Union

__all__ = [
    "HEADER",
    "adopt",
    "activate",
    "current_context",
    "disable",
    "enable",
    "enabled",
    "envelope",
    "from_header",
    "read_spans",
    "sink_path",
    "span",
    "to_header",
]

#: Arms tracing at import when set to anything but ""/"0".
ENV_FLAG = "REPRO_TRACE"
#: Overrides the default sink path.
ENV_SINK = "REPRO_TRACE_FILE"
#: Where span records land unless a sink is given explicitly.
DEFAULT_SINK = "repro-trace.jsonl"
#: HTTP header carrying ``<trace_id>-<span_id>`` across the service.
HEADER = "X-Repro-Trace"

_lock = threading.Lock()
_armed: bool = os.environ.get(ENV_FLAG, "") not in ("", "0")
_sink: Path = Path(os.environ.get(ENV_SINK, "") or DEFAULT_SINK)
_local = threading.local()


def _new_id() -> str:
    """A fresh 64-bit hex id (ids are opaque; only equality matters)."""
    return os.urandom(8).hex()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def enabled() -> bool:
    """Whether spans are being recorded."""
    return _armed


def sink_path() -> Path:
    """Where span records are (or would be) appended."""
    return _sink


def enable(sink: Union[str, Path, None] = None) -> None:
    """Arm tracing, optionally redirecting the JSONL sink."""
    global _armed, _sink
    with _lock:
        if sink is not None:
            _sink = Path(sink)
        _armed = True


def disable() -> None:
    """Disarm tracing; already-written records stay on disk."""
    global _armed
    with _lock:
        _armed = False


def _write(record: dict) -> None:
    """Append one span record: a single ``O_APPEND`` write, like the
    caches, so concurrent writers (pool workers, service threads)
    interleave whole lines rather than bytes."""
    data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(str(_sink), os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


class _NullSpan:
    """The disarmed span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """One armed span; a context manager that records itself on exit."""

    __slots__ = (
        "name", "attrs", "trace_id", "span_id", "parent_id",
        "_start_unix", "_t0",
    )

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.trace_id: Optional[str] = None
        self.span_id: str = _new_id()
        self.parent_id: Optional[str] = None

    def set(self, **attrs) -> None:
        """Attach attributes after the fact (e.g. a late status)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        stack = _stack()
        if stack:
            self.trace_id, self.parent_id = stack[-1]
        else:
            self.trace_id = _new_id()
        stack.append((self.trace_id, self.span_id))
        self._start_unix = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._t0
        stack = _stack()
        if stack and stack[-1] == (self.trace_id, self.span_id):
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if _armed:  # disarmed mid-span: drop the record, keep the pop
            _write({
                "trace": self.trace_id,
                "span": self.span_id,
                "parent": self.parent_id,
                "name": self.name,
                "start_unix": self._start_unix,
                "duration_s": duration,
                "pid": os.getpid(),
                "attrs": self.attrs,
            })


def span(name: str, **attrs):
    """A span context manager, or the shared no-op when disarmed.

    The disarmed path is one boolean check — safe on hot paths.
    """
    if not _armed:
        return _NULL_SPAN
    return _Span(name, attrs)


def current_context() -> Optional[dict]:
    """``{"trace": ..., "span": ...}`` of the active span, else None."""
    if not _armed:
        return None
    stack = getattr(_local, "stack", None)
    if not stack:
        return None
    trace_id, span_id = stack[-1]
    return {"trace": trace_id, "span": span_id}


class _Activation:
    """Pushes a foreign span context onto this thread's stack."""

    __slots__ = ("_ctx", "_pushed")

    def __init__(self, ctx: Optional[dict]):
        self._ctx = ctx
        self._pushed = False

    def __enter__(self) -> "_Activation":
        if _armed and self._ctx is not None:
            _stack().append((self._ctx["trace"], self._ctx["span"]))
            self._pushed = True
        return self

    def __exit__(self, *exc) -> None:
        if self._pushed:
            stack = _stack()
            if stack:
                stack.pop()


def activate(ctx: Optional[dict]):
    """Make ``ctx`` the ambient parent for spans on this thread.

    ``ctx`` is a :func:`current_context` dict (or None for a no-op) —
    the hand-off used when work hops threads (``ThreadPoolExecutor``,
    ``asyncio.to_thread``) and thread-locals do not follow.
    """
    return _Activation(ctx)


def envelope() -> Optional[dict]:
    """The current context plus sink path, for process-pool work items.

    ``None`` when disarmed (the common case) so the disarmed envelope
    costs one boolean check and pickles as ``None``.
    """
    ctx = current_context()
    if ctx is None:
        return None
    return {**ctx, "sink": str(_sink)}


class _Adoption:
    """Arms a worker process with a shipped :func:`envelope`."""

    __slots__ = ("_env", "_restore", "_activation")

    def __init__(self, env: Optional[dict]):
        self._env = env
        self._restore = None
        self._activation = None

    def __enter__(self) -> "_Adoption":
        if self._env is None:
            return self
        global _armed, _sink
        with _lock:
            self._restore = (_armed, _sink)
            _sink = Path(self._env["sink"])
            _armed = True
        self._activation = activate(
            {"trace": self._env["trace"], "span": self._env["span"]}
        )
        self._activation.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        if self._env is None:
            return
        global _armed, _sink
        self._activation.__exit__(*exc)
        with _lock:
            _armed, _sink = self._restore


def adopt(env: Optional[dict]):
    """Adopt a shipped envelope: arm this process and re-parent to it.

    Used by process-backend workers around their chunk loop; a ``None``
    envelope (tracing disarmed at submission) is a no-op.  Restores the
    previous armed state on exit so in-process callers can nest it
    safely.
    """
    return _Adoption(env)


def to_header(ctx: Optional[dict] = None) -> Optional[str]:
    """Serialize a context for the ``X-Repro-Trace`` header."""
    if ctx is None:
        ctx = current_context()
    if ctx is None:
        return None
    return f"{ctx['trace']}-{ctx['span']}"


def from_header(value: Optional[str]) -> Optional[dict]:
    """Parse an ``X-Repro-Trace`` header back into a context dict."""
    if not value:
        return None
    trace_id, sep, span_id = value.strip().partition("-")
    if not sep or not trace_id or not span_id:
        return None
    return {"trace": trace_id, "span": span_id}


def read_spans(path: Union[str, Path, None] = None) -> list:
    """Load span records from a sink file (malformed lines skipped)."""
    source = Path(path) if path is not None else _sink
    spans = []
    if not source.is_file():
        return spans
    with open(source, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of a crashed writer
            if isinstance(record, dict) and "span" in record:
                spans.append(record)
    return spans


def span_tree(spans: list) -> dict:
    """``parent span id -> [child records]`` (roots under ``None``)."""
    children: dict = {}
    ids = {record["span"] for record in spans}
    for record in sorted(spans, key=lambda r: r.get("start_unix", 0.0)):
        parent = record.get("parent")
        if parent not in ids:
            parent = None  # orphan (parent span still open): treat as root
        children.setdefault(parent, []).append(record)
    return children


def walk_tree(spans: list) -> Iterator[tuple]:
    """Yield ``(depth, record)`` depth-first over :func:`span_tree`."""
    children = span_tree(spans)

    def _walk(parent, depth) -> Iterator[tuple]:
        for record in children.get(parent, []):
            yield depth, record
            yield from _walk(record["span"], depth + 1)

    yield from _walk(None, 0)
