"""The three seeded workloads: inputs, sessions, timed loops and checks.

Each workload turns a seed into scenario lists (the only thing the
program under test receives), opens a session on the public API
(``Engine`` over a fresh disk cache, or an in-thread ``ReproService``
plus one keep-alive ``ServiceClient``), times every item, and then
checks the outputs outside the timed loop.

Load comes from one thread of one process: the loop sends the next item
only after the previous one finished (a closed loop with one client).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import time
from pathlib import Path

CAPACITIES = (1, 2, 4, 8)
FLOWS = ("2D", "3D")
#: The paper grid's seven off-chip bandwidths (B/cycle).
BANDWIDTHS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
#: Matmul problem sizes of the widened grid (all tile cleanly).
MATMUL_DIMS = tuple(range(8192, 262145, 64))
MATMUL_CORES = (32, 64, 128, 256)


@dataclasses.dataclass
class Phase:
    """What one pass over the items produced.

    ``latencies`` holds one host-time sample per item, ``ends`` the
    moment each item completed, and ``evaluated`` the number of freshly
    evaluated records per item.  Records are not
    retained, except those of the ``keep`` items the output checks
    re-derive (chosen before the run); every record feeds the digest.
    ``counters`` are the deltas of the program's own cache counters.
    """

    keep: frozenset = frozenset()
    latencies: list = dataclasses.field(default_factory=list)
    ends: list = dataclasses.field(default_factory=list)
    evaluated: list = dataclasses.field(default_factory=list)
    kept: dict = dataclasses.field(default_factory=dict)
    failed: set = dataclasses.field(default_factory=set)
    records: int = 0
    bad_records: int = 0
    start: float = 0.0
    wall: float = 0.0
    counters: dict = dataclasses.field(default_factory=dict)
    non_2xx: int = 0
    host: object = None
    _hash: object = dataclasses.field(default_factory=hashlib.sha256)

    @property
    def items(self) -> int:
        return len(self.latencies)

    def probe(self) -> None:
        """Time the host-speed probe, outside every item (timed runs)."""
        if self.host is not None:
            self.host.probe()

    def add(self, end: float, latency: float, records: list) -> None:
        """Account one item; an item holding a failure record fails."""
        index = len(self.latencies)
        self.latencies.append(latency)
        self.ends.append(end)
        self.evaluated.append(
            sum(1 for r in records if r.get("source") == "evaluated"))
        bad = sum(1 for r in records if r.get("status") != "ok")
        if bad:
            self.failed.add(index)
        self.records += len(records)
        self.bad_records += bad
        for r in records:
            self._hash.update(json.dumps([r["key"], r.get("metrics")],
                                         sort_keys=True).encode("utf-8"))
        if index in self.keep:
            self.kept[index] = records

    @property
    def digest(self) -> str:
        """sha256 over every record's key and metrics, in item order.

        The items are fixed by the seed and the run length, so two
        commits that simulate the same cycles and compute the same
        metrics print the same digest.
        """
        return self._hash.hexdigest()

    def status(self) -> str:
        return f"records ok: {self.records - self.bad_records}/{self.records}"


@dataclasses.dataclass
class Session:
    """A ready program instance: what the timed loop talks to."""

    engine: object
    cache_root: Path
    client: object = None


def _engine_counters(engine) -> dict:
    counters = dict(engine.stage_counters() or {})
    cache = engine.cache
    counters.update(memory_hits=cache.memory_hits, disk_hits=cache.disk_hits,
                    misses=cache.misses, stores=cache.stores)
    return counters


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def _strip(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "source"}


class Workload:
    """Shared shape of the three workloads.

    Attributes:
        name: Workload name on the command line.
        rate: Items per second on the reference host (2 vCPUs); a run
            of ``--seconds`` times ``seconds * rate`` items, the same
            items on every commit, so counts, memory and the digest
            compare exactly.
        min_items: Floor on the item count (at least 10 samples lie
            beyond p95).
        smoke_items: Item count of ``--smoke`` runs.
        trace_items: How many of the run's items the traced run times
            (``None``: all), which bounds the spans it keeps in memory.
        check_sample: Items whose outputs are re-derived independently
            (``smoke_check_sample`` with ``--smoke``).
        host_exponent: How strongly the workload's host time follows
            the host-speed probe's (see ``bench_host``): item times are
            divided by the item's host factor to this power.  Measured
            on the reference host as the slope of log time against log
            mean host factor, over windows of one long run and between
            whole runs (see README.md).
    """

    name = ""
    rate = 25
    host_exponent = 1.0
    min_items = 200
    smoke_items = 4
    trace_items = None
    check_sample = 3
    smoke_check_sample = 1

    def items(self, seconds: float, smoke: bool) -> int:
        if smoke:
            return self.smoke_items
        return max(self.min_items, round(seconds * self.rate))

    def generate(self, seed: int, count: int) -> list:
        raise NotImplementedError

    def session(self, root: Path):
        raise NotImplementedError

    def sample(self, seed: int, count: int, smoke: bool) -> frozenset:
        """Indices of the items the output checks re-derive."""
        rng = random.Random(f"{seed}/check")
        return frozenset(rng.sample(range(count), min(
            count, self.smoke_check_sample if smoke else self.check_sample)))

    def run(self, session: Session, items: list, keep: frozenset,
            tracer=None, host=None) -> Phase:
        """Time every item, in order, one at a time; with ``host``, probe
        the host's speed before each item and after the last."""
        raise NotImplementedError

    def check(self, session: Session, items: list, phase: Phase) -> list[str]:
        """Verify the kept items' outputs outside the timed loop; failing
        items are added to ``phase.failed``.  Returns report lines."""
        raise NotImplementedError

    def guard(self, items: list, phase: Phase) -> list[str]:
        """Coverage errors: the run did not take the path it is named for."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sim-sweep: distinct simulator-backed points streamed through run_many.

#: Mid-size problem levels per simulated kernel, and the seeded jitter
#: added to each level.  Every block of 100 points holds each
#: (kernel, level, core count) once, so seeds change which points run,
#: not the mix.
SIM_LEVELS = {
    "dotp": ((512, 1024, 1536, 2048), 64),
    "axpy": ((512, 1024, 1536, 2048), 64),
    "conv2d": ((16, 20, 24, 28), 3),
    "matvec": ((24, 32, 40, 48), 4),
    "stencil5": ((20, 26, 32, 38), 3),
}
SIM_CORES = (16, 32, 64, 128, 256)


def _sim_setup(scenario):
    """``(cluster, finish)`` for a simulated point, sized as its plugin
    sizes it: the element count is ``matrix_dim``, 2D kernels run on a
    square grid, and the core count is capped by the available rows."""
    from repro.kernels import workloads as wl

    n = scenario.matrix_dim
    config = scenario.to_config()
    name = scenario.workload
    if name in ("dotp", "axpy"):
        prepare = wl.prepare_dotp if name == "dotp" else wl.prepare_axpy
        return prepare(config, n, max(1, min(scenario.num_cores, n)))
    if name == "matvec":
        return wl.prepare_matvec(config, n, n, max(1, min(scenario.num_cores, n)))
    prepare = wl.prepare_conv2d if name == "conv2d" else wl.prepare_stencil5
    return prepare(config, n, n, max(1, min(scenario.num_cores, n - 2)))


class SimSweep(Workload):
    name = "sim-sweep"
    rate = 25
    host_exponent = 0.65
    smoke_items = 5
    check_sample = 3

    def generate(self, seed: int, count: int) -> list:
        from repro.api import Scenario

        rng = random.Random(seed)
        points: list = []
        seen: set = set()
        combos = [(kernel, base, jitter, cores)
                  for kernel, (levels, jitter) in SIM_LEVELS.items()
                  for base in levels for cores in SIM_CORES]
        while len(points) < count:
            # Each block holds every (kernel, level, cores) once, with
            # each capacity on a quarter of them and each flow on half.
            capacities = [CAPACITIES[i % len(CAPACITIES)] for i in range(len(combos))]
            flows = [FLOWS[i % len(FLOWS)] for i in range(len(combos))]
            rng.shuffle(capacities)
            rng.shuffle(flows)
            block = []
            for (kernel, base, jitter, cores), capacity, flow in zip(
                    combos, capacities, flows):
                # Flow is not part of cycles_key, so distinctness is
                # enforced on the fields that are.
                while True:
                    ident = (kernel, base + rng.randrange(jitter), cores,
                             capacity, rng.choice(BANDWIDTHS))
                    if ident not in seen:
                        break
                seen.add(ident)
                block.append(Scenario(
                    workload=kernel, matrix_dim=ident[1], num_cores=cores,
                    capacity_mib=capacity, bandwidth=ident[4], flow=flow))
            rng.shuffle(block)
            points.extend(block)
        return points[:count]

    @contextlib.contextmanager
    def session(self, root: Path):
        from repro.api import Scenario
        from repro.engine import Engine
        from repro.sweep.cache import ResultCache

        # Warm lazy imports and numpy on a throwaway cache, so the timed
        # engine starts cold on disk and in its stage memo.
        warm = Engine(cache=ResultCache(root / "warm"))
        warm.run([
            Scenario(workload=kernel, matrix_dim=levels[0] // 4,
                     num_cores=8, capacity_mib=1)
            for kernel, (levels, _) in SIM_LEVELS.items()
        ])
        yield Session(engine=Engine(cache=ResultCache(root / "cache")),
                      cache_root=root / "cache")

    def run(self, session, items, keep, tracer=None, host=None) -> Phase:
        engine = session.engine
        phase = Phase(keep=keep, host=host)
        before = _engine_counters(engine)
        if tracer is not None:
            tracer.item = 0
        phase.start = time.perf_counter()
        phase.probe()
        last = time.perf_counter()
        # One item is one point: its latency is the gap between
        # consecutive records of the stream, less the probe between them.
        for _, record in engine.run_many(items):
            now = time.perf_counter()
            phase.add(now, now - last, [record])
            phase.probe()
            last = time.perf_counter()
            if tracer is not None:
                tracer.item = phase.items
        phase.wall = last - phase.start
        phase.counters = _delta(_engine_counters(engine), before)
        return phase

    def check(self, session, items, phase) -> list[str]:
        from repro.simulator.engine import run_cluster

        lines = [phase.status()]
        agree = 0
        for i in sorted(phase.kept):
            cluster, finish = _sim_setup(items[i])
            fast = run_cluster(cluster, engine="fast")
            verified = finish(fast).correct
            cluster, _ = _sim_setup(items[i])
            reference = run_cluster(cluster, engine="reference")
            recorded = phase.kept[i][0].get("metrics", {}).get("cycles")
            if (verified and fast.cycles == reference.cycles
                    and fast.instructions == reference.instructions
                    and float(fast.cycles) == recorded):
                agree += 1
            else:
                phase.failed.add(i)
                lines.append(
                    f"MISMATCH item {i} {items[i].workload}: fast "
                    f"{fast.cycles}/{fast.instructions} reference "
                    f"{reference.cycles}/{reference.instructions} "
                    f"recorded {recorded} verified {verified}")
        lines.append(f"reference engine: {agree}/{len(phase.kept)} sampled points "
                     "bit-identical in cycles and instructions")
        return lines

    def guard(self, items, phase) -> list[str]:
        evals = phase.counters.get("cycles_evals")
        hits = phase.counters.get("cycles_hits")
        if evals != phase.items or hits != 0:
            return [f"sim-sweep simulated {evals} points for {phase.items} "
                    f"items with {hits} cycles-stage hits; every item must "
                    "simulate"]
        return []


# ---------------------------------------------------------------------------
# grid-sweep: consecutive 56-point Engine.run requests of new matmul points.


class GridSweep(Workload):
    name = "grid-sweep"
    rate = 40
    smoke_items = 4
    trace_items = 200
    check_sample = 2

    @staticmethod
    def _request(freq: float, dim: int, cores: int) -> list:
        from repro.api import Scenario

        return [
            Scenario(capacity_mib=capacity, flow=flow, bandwidth=bandwidth,
                     matrix_dim=dim, num_cores=cores,
                     target_frequency_mhz=freq)
            for capacity in CAPACITIES for flow in FLOWS
            for bandwidth in BANDWIDTHS
        ]

    def generate(self, seed: int, count: int) -> list:
        rng = random.Random(seed)
        base = 500.0 + rng.randrange(100)
        requests = []
        for group in range((count + 3) // 4):
            # A new frequency target every fourth request: those requests
            # implement 8 new physical configurations, the others none.
            # Each group of four uses every core count once.
            freq = base + 0.5 * group
            for dim, cores in zip(rng.sample(MATMUL_DIMS, 4),
                                  rng.sample(MATMUL_CORES, 4)):
                requests.append(self._request(freq, dim, cores))
        return requests[:count]

    @contextlib.contextmanager
    def session(self, root: Path):
        from repro.engine import Engine
        from repro.sweep.cache import ResultCache

        warm = Engine(cache=ResultCache(root / "warm"))
        warm.run(self._request(450.0, 8192, 256))
        yield Session(engine=Engine(cache=ResultCache(root / "cache")),
                      cache_root=root / "cache")

    def run(self, session, items, keep, tracer=None, host=None) -> Phase:
        engine = session.engine
        phase = Phase(keep=keep, host=host)
        before = _engine_counters(engine)
        phase.start = now = time.perf_counter()
        for i, request in enumerate(items):
            if tracer is not None:
                tracer.item = i
            phase.probe()
            t = time.perf_counter()
            outcome = engine.run(request)
            now = time.perf_counter()
            phase.add(now, now - t, outcome.records)
        phase.probe()
        phase.wall = time.perf_counter() - phase.start
        phase.counters = _delta(_engine_counters(engine), before)
        return phase

    def check(self, session, items, phase) -> list[str]:
        from repro.api import Pipeline
        from repro.sweep.spec import Job
        from repro.sweep.store import point_to_record

        lines = [phase.status()]
        equal = total = 0
        for i in sorted(phase.kept):
            for scenario, record in zip(items[i], phase.kept[i]):
                expected = point_to_record(Job.from_scenario(scenario),
                                           Pipeline().run(scenario).to_design_point())
                total += 1
                if _strip(record) == expected:
                    equal += 1
                else:
                    phase.failed.add(i)
        lines.append(f"cacheless Pipeline: {equal}/{total} sampled records equal")
        return lines

    def guard(self, items, phase) -> list[str]:
        expected = sum(len(items[i]) for i in range(phase.items))
        evaluated = sum(phase.evaluated)
        if evaluated != expected:
            return [f"grid-sweep evaluated {evaluated} of {expected} new "
                    "points; every record must be source == 'evaluated'"]
        return []


# ---------------------------------------------------------------------------
# service-mix: sync POST /v1/runs over one keep-alive connection.

HOT_PER_REQUEST = 8
COLD_NEW_POINTS = 4


class ServiceMix(Workload):
    name = "service-mix"
    rate = 280
    host_exponent = 0.85
    smoke_items = 8
    trace_items = 2000
    check_sample = 64
    smoke_check_sample = 8

    @staticmethod
    def hot_set() -> list:
        """The paper's 56-point grid, pre-warmed before timing."""
        from repro.api import Scenario

        return [Scenario(capacity_mib=c, flow=f, bandwidth=b)
                for c in CAPACITIES for f in FLOWS for b in BANDWIDTHS]

    @staticmethod
    def _cold_points(rng, freq: float) -> list:
        from repro.api import Scenario

        configs = rng.sample([(c, f) for c in CAPACITIES for f in FLOWS],
                             COLD_NEW_POINTS)
        return [Scenario(capacity_mib=c, flow=f, target_frequency_mhz=freq,
                         bandwidth=rng.choice(BANDWIDTHS),
                         matrix_dim=rng.choice(MATMUL_DIMS),
                         num_cores=rng.choice(MATMUL_CORES))
                for c, f in configs]

    def generate(self, seed: int, count: int) -> list:
        rng = random.Random(seed)
        hot = self.hot_set()
        base = 500.0 + rng.randrange(100)
        requests = []
        for block in range((count + 3) // 4):
            # One request in four carries new points (journal appends and
            # physical implements); the rest re-query the hot set.  With
            # a 25% cold share, p50 lies inside the warm mode and p95
            # inside the cold one, away from both mode edges.
            cold_at = rng.randrange(4)
            for slot in range(4):
                if slot == cold_at:
                    request = (self._cold_points(rng, base + 0.5 * block)
                               + rng.sample(hot, HOT_PER_REQUEST - COLD_NEW_POINTS))
                    rng.shuffle(request)
                else:
                    request = rng.sample(hot, HOT_PER_REQUEST)
                requests.append(request)
        return requests[:count]

    @contextlib.contextmanager
    def session(self, root: Path):
        from repro.client import ServiceClient
        from repro.service import ReproService

        service = ReproService(port=0, cache_dir=str(root / "cache"))
        with service.run_in_thread() as url, ServiceClient(url) as client:
            hot = self.hot_set()
            for i in range(0, len(hot), HOT_PER_REQUEST):
                client.run(hot[i:i + HOT_PER_REQUEST])
            rng = random.Random("warm-up")
            for _ in range(32):
                client.run(rng.sample(hot, HOT_PER_REQUEST))
            client.run(self._cold_points(rng, 450.0))
            yield Session(engine=service.engine, cache_root=root / "cache",
                          client=client)

    def run(self, session, items, keep, tracer=None, host=None) -> Phase:
        from repro.client import ServiceError

        client = session.client
        phase = Phase(keep=keep, host=host)
        before = _engine_counters(session.engine)
        phase.start = now = time.perf_counter()
        for i, request in enumerate(items):
            if tracer is not None:
                tracer.item = i
            phase.probe()
            t = time.perf_counter()
            try:
                records = client.run(request)
            except ServiceError:
                records = None
            now = time.perf_counter()
            if records is None:
                phase.non_2xx += 1
                phase.failed.add(i)
            phase.add(now, now - t, records or [])
        phase.probe()
        phase.wall = time.perf_counter() - phase.start
        phase.counters = _delta(_engine_counters(session.engine), before)
        return phase

    def check(self, session, items, phase) -> list[str]:
        from repro.engine import Engine

        lines = [phase.status()]
        local = Engine()
        equal = total = 0
        for i in sorted(phase.kept):
            expected = local.run(items[i]).records
            got = phase.kept[i]
            total += len(expected)
            same = sum(1 for a, b in zip(got, expected) if _strip(a) == _strip(b))
            equal += same
            if same != len(expected) or len(got) != len(expected):
                phase.failed.add(i)
        lines.append(f"in-process Engine: {equal}/{total} sampled HTTP records equal")
        return lines

    def guard(self, items, phase) -> list[str]:
        errors = []
        hot = {s.cache_key for s in self.hot_set()}
        keys: dict = {}  # requests share hot scenario objects: key each once

        def key(scenario) -> str:
            if id(scenario) not in keys:
                keys[id(scenario)] = scenario.cache_key
            return keys[id(scenario)]

        for i, evaluated in enumerate(phase.evaluated):
            warm_only = all(key(s) in hot for s in items[i])
            want = 0 if warm_only else COLD_NEW_POINTS
            if evaluated != want and i not in phase.failed:
                errors.append(f"service-mix request {i} evaluated {evaluated} "
                              f"points (expected {want})")
        return errors[:5]


WORKLOADS = {w.name: w for w in (SimSweep(), GridSweep(), ServiceMix())}
