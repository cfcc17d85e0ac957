"""Runtime race detector for the multi-writer cache discipline.

The static rules (REP002) catch writes that textually bypass the
guarded helpers; this module catches the *dynamic* half — a helper
called without its lock held, or two locks taken in inverted order —
by instrumenting the primitives themselves.  ``_FileLock`` and
``atomic_append`` call the ``note_*`` hooks below; when the detector
is off (the default) each hook is a single boolean check, so the hot
append path pays nothing measurable.

Enable with ``REPRO_RACE_CHECK=1`` in the environment (picked up by
every process, including multiprocessing children, which is what makes
the multi-writer tests meaningful) or programmatically via
:func:`enable` / the :func:`checking` context manager.  Violations
raise :class:`RaceError` — loud by design: a detector that logs is a
detector that gets ignored.

What is checked:

* **Unguarded cache-file writes** — ``atomic_append`` (or a sidecar
  replace) on ``results.jsonl``/``stages.jsonl``/``calibrations.jsonl``/
  ``stats.json`` without the matching ``.lock`` sidecar held by this
  thread.
* **Lock-order inversions** — acquiring lock *B* while holding *A*
  records the edge A→B; a later acquisition of *A* while holding *B*
  is a cycle, i.e. a latent deadlock between concurrent writers.

State is per-process (the lock-order graph merges edges from all
threads; held-lock stacks are thread-local).  Cross-process inversions
are caught because every process runs the same code paths under the
same env var.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = [
    "RaceError",
    "checking",
    "disable",
    "enable",
    "enabled",
    "events",
    "note_acquire",
    "note_append",
    "note_release",
    "note_replace",
    "reset",
]

ENV_VAR = "REPRO_RACE_CHECK"

#: Cache data file → the lock sidecar that must be held to touch it.
GUARDED_FILES = {
    "results.jsonl": "results.lock",
    "stages.jsonl": "stages.lock",
    "calibrations.jsonl": "calibrations.lock",
    "stats.json": "stats.lock",
}


class RaceError(AssertionError):
    """A violated concurrency invariant.

    Subclasses ``AssertionError`` so test suites treat it as a hard
    failure even inside ``except Exception`` cleanup paths that re-raise
    assertions.
    """


class _State(threading.local):
    def __init__(self) -> None:
        self.held: List[str] = []


_enabled = os.environ.get(ENV_VAR, "") not in ("", "0")
_local = _State()
_graph_lock = threading.Lock()
#: Directed lock-order edges seen so far: holding key, then acquiring value.
_order_edges: Dict[str, Set[str]] = {}
_events: List[str] = []


def enabled() -> bool:
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop all recorded state (held stacks stay per-thread)."""
    with _graph_lock:
        _order_edges.clear()
        _events.clear()
    _local.held.clear()


def events() -> Tuple[str, ...]:
    """The recorded acquisition/append trace (for diagnostics/tests)."""
    with _graph_lock:
        return tuple(_events)


@contextmanager
def checking() -> Iterator[None]:
    """Enable the detector for a ``with`` block, restoring state after."""
    was = _enabled
    enable()
    try:
        yield
    finally:
        if not was:
            disable()


def _canon(path) -> str:
    return os.path.abspath(os.fspath(path))


def _record(event: str) -> None:
    with _graph_lock:
        _events.append(event)
        if len(_events) > 10_000:  # bounded trace; newest wins
            del _events[:5_000]


def note_acquire(path) -> None:
    """A ``_FileLock`` on ``path`` was just acquired by this thread."""
    if not _enabled:
        return
    lock = _canon(path)
    held = _local.held
    if lock in held:
        # flock is per-open-file-description: a second exclusive acquire
        # of the same sidecar from this thread blocks on itself.
        raise RaceError(
            f"reentrant acquisition of {_short(lock)}: this thread already "
            f"holds it and a second flock would self-deadlock"
        )
    if held:
        holding = held[-1]
        with _graph_lock:
            # Check for a cycle BEFORE recording the new edge: the edge
            # of a rejected acquisition must not poison the graph and
            # condemn the legitimate opposite order afterwards.
            inverted = holding in _reachable(lock) or holding == lock
            if not inverted:
                _order_edges.setdefault(holding, set()).add(lock)
        if inverted:
            raise RaceError(
                f"lock-order inversion: acquiring {_short(lock)} while "
                f"holding {_short(holding)}, but the opposite order was "
                f"recorded earlier — concurrent writers can deadlock "
                f"(held stack: {[_short(h) for h in held]})"
            )
    held.append(lock)
    _record(f"acquire {_short(lock)}")


def note_release(path) -> None:
    """The ``_FileLock`` on ``path`` is being released."""
    if not _enabled:
        return
    lock = _canon(path)
    held = _local.held
    if lock in held:
        held.remove(lock)
    _record(f"release {_short(lock)}")


def note_append(path) -> None:
    """``atomic_append`` is about to write ``path``."""
    _check_guarded(path, "append to")


def note_replace(path) -> None:
    """A sidecar merge is about to atomically replace ``path``."""
    _check_guarded(path, "replace")


def _check_guarded(path, verb: str) -> None:
    if not _enabled:
        return
    target = _canon(path)
    lockname = GUARDED_FILES.get(os.path.basename(target))
    if lockname is None:
        # Appends to non-cache files (progress logs, test scratch) are
        # outside the discipline.
        _record(f"{verb} {_short(target)} (unguarded file, ignored)")
        return
    expected = _canon(Path(target).parent / lockname)
    if expected not in _local.held:
        raise RaceError(
            f"unguarded cache-file write: {verb} {_short(target)} without "
            f"holding {lockname} (held: "
            f"{[_short(h) for h in _local.held] or 'nothing'}) — concurrent "
            f"writers can tear or drop records"
        )
    _record(f"{verb} {_short(target)}")


def _reachable(start: str) -> Set[str]:
    """Locks reachable from ``start`` in the order graph (callers hold
    ``_graph_lock``)."""
    seen: Set[str] = set()
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in _order_edges.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _short(path: str) -> str:
    parts = Path(path).parts
    return "/".join(parts[-2:]) if len(parts) >= 2 else path
