"""Search strategy plugins: propose candidates, observe results.

A *strategy* is the fourth plugin kind of the repro stack (alongside
flows, workloads, and objectives): a class that proposes batches of
``{axis name: value}`` assignments over a
:class:`~repro.search.space.SearchSpace` and observes the evaluated
candidates fed back by the :class:`~repro.search.driver.Searcher`.  New
strategies register with :func:`register_strategy` — no edits to this
package required::

    from repro.search import Strategy, register_strategy

    @register_strategy("my-annealer")
    class Annealer(Strategy):
        def propose(self, n):
            ...

Built-ins:

* ``random`` — uniform rejection sampling, never re-proposing a point;
* ``latin-hypercube`` — one stratified slab per generation, so every
  axis is covered evenly at any budget;
* ``evolutionary`` — NSGA-II-style multi-objective search:
  non-dominated sorting plus crowding distance over the evaluated
  population, binary-tournament parents, uniform crossover, per-axis
  mutation;
* ``successive-halving`` — screens an ``eta``-times larger candidate
  pool with the cheap analytic-matmul proxy model and promotes only the
  Pareto-best fraction to real (budgeted, possibly simulator-backed)
  evaluation.

All strategies draw from a seeded private ``random.Random``, so a search
trajectory replays deterministically — that, plus the content-addressed
sweep cache, is what makes ``repro search --resume`` free.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ..api.registry import Registry
from ..core.pareto import crowding_distances, non_dominated_sort
from .space import SearchSpace

#: Strategy registry: name -> Strategy subclass.
STRATEGIES = Registry("strategy")


def register_strategy(name: str):
    """Decorator registering a :class:`Strategy` subclass under ``name``."""
    return STRATEGIES.decorator(name)


def get_strategy(name: str) -> type:
    """The registered strategy class for ``name``."""
    return STRATEGIES.get(name)  # type: ignore[return-value]


def available_strategies() -> tuple[str, ...]:
    """Names of every registered strategy."""
    return STRATEGIES.names()


def lhs_units(rng: random.Random, n: int, names: Sequence[str]) -> list[dict]:
    """``n`` Latin-hypercube unit-coordinate dicts over ``names``.

    Each axis's unit interval is cut into ``n`` strata; every stratum is
    used exactly once per axis, with independently shuffled pairings.
    """
    if n <= 0:
        return []
    strata = {name: rng.sample(range(n), n) for name in names}
    return [
        {
            name: (strata[name][i] + rng.random()) / n
            for name in names
        }
        for i in range(n)
    ]


class Strategy:
    """Base strategy: dedupe bookkeeping plus rejection sampling.

    Args:
        space: The search space proposals are drawn from.
        objectives: ``(name, key_fn, higher_is_better)`` triples the
            search optimizes (most strategies only consume the
            pre-folded ``costs`` on observed candidates; the
            successive-halving screen applies the key functions to its
            proxy results directly).
        seed: Seed of the strategy's private RNG — fixes the trajectory.
        **options: Strategy-specific keyword options.

    Subclasses implement :meth:`propose`; :meth:`observe` is optional.
    A proposal batch may come back shorter than requested — an empty
    batch tells the driver the space is exhausted.
    """

    #: Rejection-sampling attempts per requested candidate before a
    #: batch is returned short.
    MAX_TRIES_PER_CANDIDATE = 200

    def __init__(
        self,
        space: SearchSpace,
        objectives: Sequence[tuple] = (),
        seed: int = 0,
        **options,
    ) -> None:
        self.space = space
        self.objectives = tuple(objectives)
        self.rng = random.Random(seed)
        self.options = dict(options)
        self._proposed: set[tuple] = set()

    # -- bookkeeping -------------------------------------------------------
    def values_key(self, values: dict) -> tuple:
        """Hashable identity of a value assignment (axis order)."""
        return tuple(values[name] for name in self.space.names)

    def claim(self, values: dict) -> bool:
        """Reserve an assignment; False if proposed before or invalid.

        Invalid assignments are also recorded, so rejection sampling
        never spins on the same impossible point twice.
        """
        key = self.values_key(values)
        if key in self._proposed:
            return False
        self._proposed.add(key)
        return self.space.try_scenario(values) is not None

    def random_batch(self, n: int) -> list[dict]:
        """Up to ``n`` fresh valid assignments by rejection sampling."""
        batch: list[dict] = []
        tries = n * self.MAX_TRIES_PER_CANDIDATE
        while len(batch) < n and tries > 0:
            tries -= 1
            values = self.space.sample_values(self.rng)
            if self.claim(values):
                batch.append(values)
        return batch

    def lhs_batch(self, n: int) -> list[dict]:
        """Up to ``n`` fresh assignments from one Latin-hypercube slab."""
        batch = []
        for units in lhs_units(self.rng, n, self.space.names):
            values = self.space.from_unit(units)
            if self.claim(values):
                batch.append(values)
        if len(batch) < n:
            batch.extend(self.random_batch(n - len(batch)))
        return batch

    # -- the strategy interface --------------------------------------------
    def propose(self, n: int) -> list[dict]:
        """Up to ``n`` fresh candidate assignments (empty = exhausted)."""
        raise NotImplementedError

    def observe(self, candidates) -> None:
        """Feed back evaluated candidates (both ok and failed)."""


@register_strategy("random")
class RandomStrategy(Strategy):
    """Uniform random sampling without replacement."""

    def propose(self, n: int) -> list[dict]:
        return self.random_batch(n)


@register_strategy("latin-hypercube")
class LatinHypercubeStrategy(Strategy):
    """Stratified sampling: one Latin-hypercube slab per generation."""

    def propose(self, n: int) -> list[dict]:
        return self.lhs_batch(n)


@register_strategy("evolutionary")
class EvolutionaryStrategy(Strategy):
    """NSGA-II-style multi-objective evolutionary search.

    Options:
        population: Survivor count after each truncation (default 8 —
            small populations keep selection pressure high at the tight
            budgets guided search exists for).
        crossover_rate: Probability a child mixes two parents (0.9).
        mutation_scale: Unit-space step of range-axis mutations (0.25).
    """

    def __init__(self, space, objectives=(), seed=0, **options) -> None:
        super().__init__(space, objectives, seed, **options)
        self.population_size = int(self.options.pop("population", 8))
        self.crossover_rate = float(self.options.pop("crossover_rate", 0.9))
        self.mutation_scale = float(self.options.pop("mutation_scale", 0.25))
        if self.population_size <= 1:
            raise ValueError("population must be at least 2")
        # Survivors as (candidate, rank, crowding) for tournament picks.
        self._population: list[tuple] = []

    def observe(self, candidates) -> None:
        pool = [entry[0] for entry in self._population]
        pool.extend(c for c in candidates if c.costs)
        if not pool:
            return
        costs = [c.costs for c in pool]
        survivors: list[tuple] = []
        for rank, front in enumerate(non_dominated_sort(costs)):
            crowding = crowding_distances([costs[i] for i in front])
            for i, distance in sorted(zip(front, crowding), key=lambda ic: -ic[1]):
                if len(survivors) == self.population_size:
                    break
                survivors.append((pool[i], rank, distance))
            if len(survivors) == self.population_size:
                break
        self._population = survivors

    def _tournament(self) -> dict:
        a, b = self.rng.choice(self._population), self.rng.choice(self._population)
        winner = min((a, b), key=lambda e: (e[1], -e[2]))
        return winner[0].values

    def _child(self) -> dict:
        mother = self._tournament()
        if self.rng.random() < self.crossover_rate:
            father = self._tournament()
            child = {
                name: (mother if self.rng.random() < 0.5 else father)[name]
                for name in self.space.names
            }
        else:
            child = dict(mother)
        # Mutate each axis with probability 1/num_axes (at least one
        # guaranteed overall on average), keeping children near parents.
        rate = 1.0 / len(self.space.axes)
        for axis in self.space.axes:
            if self.rng.random() < rate:
                child[axis.name] = axis.mutate(
                    child[axis.name], self.rng, scale=self.mutation_scale
                )
        return child

    def propose(self, n: int) -> list[dict]:
        if not self._population:
            return self.lhs_batch(n)  # stratified initial generation
        batch: list[dict] = []
        tries = n * self.MAX_TRIES_PER_CANDIDATE
        while len(batch) < n and tries > 0:
            tries -= 1
            child = self._child()
            if self.claim(child):
                batch.append(child)
        if len(batch) < n:
            batch.extend(self.random_batch(n - len(batch)))
        return batch


@register_strategy("successive-halving")
class SuccessiveHalvingStrategy(Strategy):
    """Tier-0 screen first, real evaluation for the survivors.

    Each generation draws an ``eta``-times larger pool, scores every
    member with the calibrated analytic tier (``engine="analytic"``,
    in-process; no budget spent), and promotes only the Pareto-best
    ``1/eta`` fraction to the driver's real — cached, budgeted,
    simulator-backed — evaluation.  Every workload with a registered
    predictor screens through its *own* calibrated closed form;
    workloads without one screen through the analytic-matmul phase
    model, the pre-tier-0 proxy.

    The screen memo is keyed by the predictor registry's generation:
    registering (or unregistering) a predictor mid-process invalidates
    every screened ranking instead of silently serving scores from the
    old proxy.

    Options:
        eta: Pool-to-survivor ratio (default 4).
    """

    def __init__(self, space, objectives=(), seed=0, **options) -> None:
        super().__init__(space, objectives, seed, **options)
        self.eta = int(self.options.pop("eta", 4))
        if self.eta < 2:
            raise ValueError("eta must be at least 2")
        self._proxy_memo: dict[tuple, Optional[tuple]] = {}
        self._proxy_generation: Optional[int] = None

    def _proxy_costs(self, values: dict) -> Optional[tuple]:
        """Tier-0 cost vector of an assignment (None = invalid)."""
        from ..api.pipeline import Pipeline  # local: keeps import light
        from ..api.registry import PREDICTORS

        if PREDICTORS.generation != self._proxy_generation:
            self._proxy_memo.clear()
            self._proxy_generation = PREDICTORS.generation
        key = self.values_key(values)
        if key in self._proxy_memo:
            return self._proxy_memo[key]

        costs: Optional[tuple] = None
        scenario = self.space.try_scenario(values)
        if scenario is not None:
            if scenario.workload not in PREDICTORS:
                scenario = scenario.replace(workload="matmul")
            try:
                result = Pipeline(engine="analytic").run(scenario)
                costs = tuple(
                    key_fn(result) * (-1.0 if higher else 1.0)
                    for _, key_fn, higher in self.objectives
                )
            except (ValueError, RuntimeError):
                costs = None
        self._proxy_memo[key] = costs
        return costs

    def propose(self, n: int) -> list[dict]:
        # Draw the screening pool without claiming: losers stay eligible
        # for later generations, only promoted candidates spend budget.
        pool: list[dict] = []
        seen = set(self._proposed)
        tries = self.eta * n * self.MAX_TRIES_PER_CANDIDATE
        while len(pool) < self.eta * n and tries > 0:
            tries -= 1
            values = self.space.sample_values(self.rng)
            key = self.values_key(values)
            if key in seen:
                continue
            seen.add(key)
            if self._proxy_costs(values) is not None:
                pool.append(values)
        if not pool:
            return self.random_batch(n)
        costs = [self._proxy_costs(values) for values in pool]
        promoted: list[dict] = []
        for front in non_dominated_sort(costs):
            crowding = crowding_distances([costs[i] for i in front])
            for i, _ in sorted(zip(front, crowding), key=lambda ic: -ic[1]):
                if len(promoted) == n:
                    break
                if self.claim(pool[i]):
                    promoted.append(pool[i])
            if len(promoted) == n:
                break
        if len(promoted) < n:
            promoted.extend(self.random_batch(n - len(promoted)))
        return promoted
