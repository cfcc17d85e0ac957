"""The budgeted multi-objective search driver.

A :class:`Searcher` closes the loop between a strategy plugin and the
shared execution layer: each generation it asks the strategy for fresh
candidates, turns them into content-addressed sweep jobs, evaluates them
through the :class:`~repro.engine.Engine` (pluggable backend fan-out,
per-job error capture, and the two-tier LRU + on-disk result cache —
which is what makes a killed search resumable with zero re-evaluation),
folds the results into per-objective cost vectors, feeds them back to
the strategy, and appends them to a
:class:`~repro.search.archive.ParetoArchive`.  The budget is counted in
*evaluations requested* (cache hits included), so a resumed search
replays the identical trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from ..api.registry import OBJECTIVES
from ..core.pareto import non_dominated
from ..engine.core import Engine
from ..sweep.cache import ResultCache
from ..sweep.spec import Job
from ..sweep.store import ResultStore, record_to_point
from .archive import ParetoArchive
from .space import SearchSpace
from .strategies import STRATEGIES, Strategy

#: Default candidates per generation when the caller does not pick one.
#: Small generations mean more selection rounds per budget, which is
#: what lets the evolutionary strategy converge within tight budgets.
DEFAULT_GENERATION_SIZE = 6

#: Default search objectives: the paper's energy-delay and efficiency lens.
DEFAULT_OBJECTIVES = ("edp", "energy_efficiency")


def resolve_objectives(names: Sequence[str]) -> tuple[tuple, ...]:
    """``(name, key_fn, higher_is_better)`` triples for objective names.

    Raises:
        ValueError: On an empty list or an unregistered objective.
    """
    names = tuple(names)
    if not names:
        raise ValueError("need at least one objective")
    resolved = []
    for name in names:
        key_fn, higher = OBJECTIVES.get(name)
        resolved.append((name, key_fn, bool(higher)))
    return tuple(resolved)


@dataclass(frozen=True)
class Candidate:
    """One evaluated search candidate.

    Attributes:
        values: The axis assignment the strategy proposed.
        key: Content address of the underlying sweep job.
        generation: 0-based generation the candidate was evaluated in.
        status: ``"ok"`` or ``"error"``.
        source: ``"evaluated"`` (fresh) or ``"cache"`` (served from disk).
        record: The full sweep record (job parameters, metrics/error).
        objectives: Raw objective values by name (empty when failed).
        costs: Minimization-folded objective vector (empty when failed).
    """

    values: dict
    key: str
    generation: int
    status: str
    source: str
    record: dict
    objectives: dict = field(default_factory=dict)
    costs: tuple = ()

    @property
    def label(self) -> str:
        """Human-readable point label (the sweep job's)."""
        return Job.from_params(self.record["job"]).label

    def to_record(self) -> dict:
        """Archive form: the sweep record plus search metadata."""
        return {
            **self.record,
            "search": {
                "values": dict(self.values),
                "generation": self.generation,
                "objectives": dict(self.objectives),
                "costs": list(self.costs),
            },
        }


@dataclass(frozen=True)
class SearchStats:
    """Bookkeeping of one search run."""

    budget: int
    proposed: int
    evaluated: int
    cached: int
    failed: int
    generations: int
    duration_s: float

    def summary(self) -> str:
        """One-line human-readable form."""
        return (
            f"{self.proposed}/{self.budget} budget used over "
            f"{self.generations} generations: {self.evaluated} evaluated, "
            f"{self.cached} cached, {self.failed} failed "
            f"in {self.duration_s:.2f}s"
        )


@dataclass
class SearchOutcome:
    """Results of one search run, in evaluation order."""

    objectives: tuple[str, ...]
    candidates: list[Candidate]
    front: list[Candidate]
    stats: SearchStats

    @property
    def ok_candidates(self) -> list[Candidate]:
        """Successfully evaluated candidates only."""
        return [c for c in self.candidates if c.status == "ok"]

    def ranked(self, objective: str) -> list[Candidate]:
        """Successful candidates ordered best-first under ``objective``.

        Raises:
            ValueError: If the objective was not part of the search.
        """
        if objective not in self.objectives:
            raise ValueError(
                f"objective {objective!r} was not searched; "
                f"pick from {self.objectives}"
            )
        index = self.objectives.index(objective)
        return sorted(self.ok_candidates, key=lambda c: c.costs[index])

    def best(self, objective: Optional[str] = None) -> Candidate:
        """The best candidate under one objective (default: the first).

        Raises:
            ValueError: If no candidate succeeded.
        """
        ranked = self.ranked(objective or self.objectives[0])
        if not ranked:
            raise ValueError("no successful candidates")
        return ranked[0]

    def report(self, top: int = 3) -> str:
        """Ranked winners per objective plus the Pareto front."""
        lines = [self.stats.summary()]
        if not self.ok_candidates:
            lines.append("(no successful candidates)")
            return "\n".join(lines)
        for objective in self.objectives:
            lines.append(f"best {objective}:")
            for candidate in self.ranked(objective)[:top]:
                lines.append(
                    f"  {candidate.label:>28}  "
                    f"{candidate.objectives[objective]:.4e}"
                )
        lines.append(
            f"Pareto front ({', '.join(self.objectives)}; "
            f"{len(self.front)} of {len(self.ok_candidates)} evaluated):"
        )
        for candidate in self.front:
            scores = "  ".join(
                f"{name}={candidate.objectives[name]:.4e}"
                for name in self.objectives
            )
            lines.append(f"  {candidate.label:>28}  {scores}")
        failures = [c for c in self.candidates if c.status != "ok"]
        if failures:
            lines.append(f"failures ({len(failures)}):")
            for candidate in failures:
                lines.append(
                    f"  {candidate.label:>28}  "
                    f"{candidate.record.get('error', '?')}"
                )
        return "\n".join(lines)


class Searcher:
    """Budgeted multi-objective optimizer over a search space.

    Args:
        space: The :class:`~repro.search.space.SearchSpace` to explore.
        objectives: Registered objective names to optimize jointly.
        strategy: Registered strategy name, or a ready-made
            :class:`~repro.search.strategies.Strategy` instance.
        budget: Maximum evaluations requested (cache hits count, so a
            resumed search replays the same trajectory for free).
        generation_size: Candidates proposed per generation.
        seed: Strategy RNG seed — fixes the search trajectory.
        cache: Sweep :class:`~repro.sweep.cache.ResultCache` (shared
            with ``repro sweep``); ``None`` keeps caching in-memory only
            (the engine's LRU tier still dedups within the process).
        workers: Workers per generation (0 = serial unless ``backend``
            says otherwise).
        store: Optional append-only :class:`~repro.sweep.store.ResultStore`
            audit log of every record.
        archive: :class:`~repro.search.archive.ParetoArchive` receiving
            every candidate; defaults to a fresh in-memory archive.
        strategy_options: Extra keyword options for the strategy
            (ignored when ``strategy`` is already an instance).
        backend: Execution-backend name or instance for the engine;
            ``None`` keeps the historical behavior (``process`` when
            ``workers > 1``, ``serial`` otherwise).
        on_result: Optional progress callback, called as
            ``on_result(done, budget, record)`` after every evaluation
            across the whole search.
        sim_engine: Evaluation engine (``"fast"`` or ``"analytic"``),
            forwarded to :class:`~repro.engine.Engine`.
    """

    def __init__(
        self,
        space: SearchSpace,
        objectives: Sequence[str] = DEFAULT_OBJECTIVES,
        strategy: Union[str, Strategy] = "evolutionary",
        budget: int = 32,
        generation_size: Optional[int] = None,
        seed: int = 0,
        cache: Optional[ResultCache] = None,
        workers: int = 0,
        store: Optional[ResultStore] = None,
        archive: Optional[ParetoArchive] = None,
        strategy_options: Optional[dict] = None,
        backend: Union[str, object, None] = None,
        on_result: Optional[Callable[[int, int, dict], None]] = None,
        sim_engine: str = "fast",
    ) -> None:
        if budget <= 0:
            raise ValueError("budget must be positive")
        if generation_size is not None and generation_size <= 0:
            raise ValueError("generation_size must be positive")
        self.space = space
        self.objectives = resolve_objectives(objectives)
        self.objective_names = tuple(name for name, _, _ in self.objectives)
        self.budget = int(budget)
        self.generation_size = generation_size or min(
            self.budget, DEFAULT_GENERATION_SIZE
        )
        self.seed = int(seed)
        self.archive = archive if archive is not None else ParetoArchive()
        self.on_result = on_result
        # All parallelism and caching live in the shared engine; the
        # searcher only proposes, scores, and archives.
        self.engine = Engine(
            backend=backend, workers=workers, cache=cache, store=store,
            sim_engine=sim_engine,
        )
        if isinstance(strategy, Strategy):
            self.strategy = strategy
        else:
            strategy_cls = STRATEGIES.get(strategy)
            self.strategy = strategy_cls(
                space,
                objectives=self.objectives,
                seed=self.seed,
                **(strategy_options or {}),
            )

    def _progress_callback(self, offset: int):
        """Adapt the engine's per-batch progress to search-wide counts."""

        def progress(done: int, total: int, record: dict) -> None:
            del total  # the search-wide denominator is the budget
            self.on_result(offset + done, self.budget, record)

        return progress

    def _candidate(
        self, values: dict, record: dict, generation: int
    ) -> Candidate:
        objectives: dict = {}
        costs: tuple = ()
        if record["status"] == "ok":
            point = record_to_point(record)
            objectives = {
                name: key_fn(point) for name, key_fn, _ in self.objectives
            }
            costs = tuple(
                value if not higher else -value
                for (_, _, higher), value in zip(
                    self.objectives, objectives.values()
                )
            )
        return Candidate(
            values=dict(values),
            key=record["key"],
            generation=generation,
            status=record["status"],
            source=record.get("source", "evaluated"),
            record=record,
            objectives=objectives,
            costs=costs,
        )

    def run(self) -> SearchOutcome:
        """Drive the strategy until the budget is spent or the space dries up."""
        t0 = time.perf_counter()
        candidates: list[Candidate] = []
        seen_keys: set[str] = set()
        evaluated = cached = failed = generations = 0

        filtered_streak = 0
        while len(candidates) < self.budget:
            want = min(self.generation_size, self.budget - len(candidates))
            proposals = self.strategy.propose(want)
            if not proposals:
                break  # the strategy exhausted the space
            batch: list[tuple[dict, Job]] = []
            for values in proposals:
                scenario = self.space.try_scenario(values)
                if scenario is None:
                    continue
                job = Job.from_scenario(scenario, self.engine.sim_engine)
                # Distinct axis assignments can canonicalize to the same
                # scenario (e.g. an explicit tile equal to the derived
                # one); evaluate each content address once per search.
                if job.key in seen_keys:
                    continue
                seen_keys.add(job.key)
                batch.append((values, job))
            if not batch:
                # Everything proposed folded onto already-evaluated
                # scenarios.  Strategies never re-propose the same
                # assignment, so ask again — but bound the retries in
                # case every remaining assignment aliases a seen key.
                filtered_streak += 1
                if filtered_streak >= 3:
                    break
                continue
            filtered_streak = 0
            progress = None
            if self.on_result is not None:
                progress = self._progress_callback(offset=len(candidates))
            outcome = self.engine.run(
                [job for _, job in batch], on_result=progress
            )
            generation = generations
            generations += 1
            evaluated += outcome.stats.evaluated
            cached += outcome.stats.cached
            failed += outcome.stats.failed
            fresh = [
                self._candidate(values, record, generation)
                for (values, _), record in zip(batch, outcome.records)
            ]
            candidates.extend(fresh)
            self.strategy.observe(fresh)
            self.archive.extend(fresh)

        ok = [c for c in candidates if c.costs]
        front = [ok[i] for i in non_dominated([c.costs for c in ok])]
        stats = SearchStats(
            budget=self.budget,
            proposed=len(candidates),
            evaluated=evaluated,
            cached=cached,
            failed=failed,
            generations=generations,
            duration_s=time.perf_counter() - t0,
        )
        return SearchOutcome(
            objectives=self.objective_names,
            candidates=candidates,
            front=front,
            stats=stats,
        )
