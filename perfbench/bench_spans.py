"""In-memory spans around the public entry points of each ``repro`` layer.

The traced run installs :class:`Tracer` wrappers on the classes and
module functions listed in :data:`TARGETS` (plus every registered flow
and workload plugin), runs the workload, and removes them again.  Spans
live in memory as ``[id, name, start, end, parent, item, attrs]`` lists
and are written out only when the run ends.  Nothing under ``src/`` is
edited: the wrappers are installed from this file at run time.

Self time of a span is its duration minus the union of its children's
intervals.  A span's layer is the first component of its name, except
``client.run``: its self time is the request's transport (client SDK
encoding, HTTP on both ends, server framing and dispatch), which the
benchmark books to the ``service`` layer.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from pathlib import Path

#: ``(module, attribute path, span name)`` of every wrapped entry point.
TARGETS = (
    ("repro.api.scenario", "Scenario.__init__", "api.scenario_build"),
    ("repro.api.scenario", "Scenario.cache_key", "api.key"),
    ("repro.api.scenario", "Scenario.physical_key", "api.key"),
    ("repro.api.scenario", "Scenario.cycles_key", "api.key"),
    ("repro.api.pipeline", "Pipeline.run_profiled", "api.pipeline"),
    ("repro.api.pipeline", "Pipeline.implement", "api.implement_stage"),
    ("repro.api.pipeline", "Pipeline.cycles", "api.cycles_stage"),
    ("repro.engine.core", "Engine.run", "engine.run"),
    ("repro.engine.core", "Engine.run_many", "engine.run_many"),
    ("repro.engine.backends", "run_one", "engine.run_one"),
    ("repro.engine.cache", "TieredCache.get", "engine.cache_get"),
    ("repro.engine.cache", "TieredCache.put", "engine.cache_put"),
    ("repro.engine.cache", "TieredCache.flush_stats", "engine.stats_flush"),
    ("repro.engine.cache", "StageCache.get_physical", "engine.stage_get"),
    ("repro.engine.cache", "StageCache.get_cycles", "engine.stage_get"),
    ("repro.engine.cache", "StageCache.put_physical", "engine.stage_put"),
    ("repro.engine.cache", "StageCache.put_cycles", "engine.stage_put"),
    ("repro.engine.cache", "StageCache.flush_stats", "engine.stats_flush"),
    ("repro.sweep.cache", "ResultCache.put", "sweep.cache_put"),
    ("repro.sweep.cache", "ResultCache.refresh", "sweep.refresh"),
    ("repro.sweep.spec", "Job.__init__", "sweep.job"),
    ("repro.kernels.phases", "matmul_cycles", "kernels.phase_model"),
    ("repro.kernels.workloads", "prepare_dotp", "kernels.prepare"),
    ("repro.kernels.workloads", "prepare_axpy", "kernels.prepare"),
    ("repro.kernels.workloads", "prepare_conv2d", "kernels.prepare"),
    ("repro.kernels.workloads", "prepare_matvec", "kernels.prepare"),
    ("repro.kernels.workloads", "prepare_stencil5", "kernels.prepare"),
    # The workload module imported run_cluster by name: wrap both bindings.
    ("repro.kernels.workloads", "run_cluster", "simulator.run"),
    ("repro.simulator.engine", "run_cluster", "simulator.run"),
    ("repro.arch.cluster", "MemPoolCluster.__init__", "arch.cluster_build"),
    ("repro.arch.cluster", "MemPoolCluster.write_words", "arch.spm_write"),
    ("repro.arch.cluster", "MemPoolCluster.read_words", "arch.spm_read"),
    ("repro.arch.cluster", "MemPoolCluster.load_program", "arch.program_load"),
    ("repro.client", "ServiceClient.run", "client.run"),
    ("repro.client", "ServiceClient.close", "client.close"),
)

def layer_of(name: str) -> str:
    """The layer a span's self time is booked to."""
    if name == "client.run":
        return "service"
    return name.split(".", 1)[0]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to
    ``[lo, hi]``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class Tracer:
    """Span recorder shared by every thread of the benchmark process.

    ``item`` tags each span with the benchmark item in flight.  Spans
    that open on a thread with no open span of its own (the service's
    event-loop and worker threads) take ``remote_parent`` as parent: the
    ``client.run`` span of the one request in flight, since the load
    comes from a single thread over a single connection.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = None
        self.remote_parent = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._plugins: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else self.remote_parent
        span = [next(self._ids), name, time.perf_counter(), 0.0, parent,
                self.item, None]
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()

    # -- wrappers --------------------------------------------------------
    def _call(self, name: str, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

        return wrapper

    def _generator(self, name: str, fn):
        """Each resumption of the generator is one span."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    span = begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end(span)
                    yield item
            finally:
                span = begin(name)
                try:
                    inner.close()
                finally:
                    end(span)

        return wrapper

    def _simulation(self, name: str, fn):
        """Records the simulated cycles and instructions, or the failure."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = {"failed": 1}
                raise
            finally:
                end(span)
            span[6] = {"cycles": result.cycles,
                       "instructions": result.instructions}
            return result

        return wrapper

    def _request(self, name: str, fn):
        """A client request: the root that service-side spans attach to."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = begin(name)
            self.remote_parent = span[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self.remote_parent = None
                end(span)

        return wrapper

    def _wrap(self, name: str, fn):
        if name == "simulator.run":
            return self._simulation(name, fn)
        if name == "client.run":
            return self._request(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self._generator(name, fn)
        return self._call(name, fn)

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every target; targets a refactor removed are listed in
        :attr:`missing` and their time falls to the calling layer."""
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if outer else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(original, property):
                wrapped = property(self._wrap(name, original.fget))
            else:
                wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))
        from repro.api.registry import FLOWS, WORKLOADS

        for registry, name in ((FLOWS, "physical.implement"),
                               (WORKLOADS, "kernels.workload")):
            for plugin in registry.names():
                original = registry.get(plugin)
                registry.unregister(plugin)
                registry.register(plugin, self._wrap(name, original))
                self._plugins.append((registry, plugin, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute and plugin."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for registry, plugin, original in reversed(self._plugins):
            registry.unregister(plugin)
            registry.register(plugin, original)
        self._patches.clear()
        self._plugins.clear()

    # -- analysis --------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[object, list] = collections.defaultdict(list)
        for span in self.spans:
            children[span[4]].append((span[2], span[3]))
        return {
            span[0]: (span[3] - span[2])
            - covered(children.get(span[0], ()), span[2], span[3])
            for span in self.spans
        }

    def roots(self) -> list[list]:
        """Spans without a parent: the benchmark's calls into the stack."""
        return [s for s in self.spans if s[4] is None]

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "item", "attrs")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op timed against
    the bare no-op, best of ``repeats``."""

    def noop():
        return None

    wrapped = Tracer()._call("bench.calibrate", noop)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
