"""Budgeted multi-objective design-space search.

Where :mod:`repro.sweep` *enumerates* a grid, this package *optimizes*:
a :class:`SearchSpace` declares axes over any
:class:`~repro.api.Scenario` field, a registered strategy proposes
candidate generations, and the :class:`Searcher` evaluates them through
the shared :class:`~repro.engine.Engine` — pluggable backends plus the
two-tier content-addressed cache, so searches are parallel and resumable
after a kill for free — while a persistent :class:`ParetoArchive`
accumulates the non-dominated front.

Layer stack::

    arch / physical / kernels        the models
      -> repro.api                   Scenario + Pipeline + registries
        -> repro.engine              backends + two-tier cached execution
          -> repro.search            guided multi-objective optimization

Quick start::

    from repro.search import Searcher, paper_space
    from repro.sweep import ResultCache

    searcher = Searcher(
        paper_space(),
        objectives=("edp", "energy_efficiency"),
        strategy="evolutionary",
        budget=28,
        cache=ResultCache(".sweep-cache"),
    )
    outcome = searcher.run()
    print(outcome.report())

Strategies are plugins (the fourth registry, alongside flows, workloads,
and objectives)::

    from repro.search import Strategy, register_strategy

    @register_strategy("my-strategy")
    class MyStrategy(Strategy):
        def propose(self, n):
            return self.random_batch(n)
"""

from ..core.pareto import (
    crowding_distances,
    dominates,
    non_dominated,
    non_dominated_sort,
)
from .archive import ParetoArchive
from .driver import (
    DEFAULT_OBJECTIVES,
    Candidate,
    Searcher,
    SearchOutcome,
    SearchStats,
    resolve_objectives,
)
from .space import (
    Axis,
    Choice,
    FloatRange,
    IntRange,
    SearchSpace,
    axis_from_dict,
    paper_space,
)
from .strategies import (
    STRATEGIES,
    Strategy,
    available_strategies,
    get_strategy,
    register_strategy,
)

__all__ = [
    "Axis",
    "Candidate",
    "Choice",
    "DEFAULT_OBJECTIVES",
    "FloatRange",
    "IntRange",
    "ParetoArchive",
    "STRATEGIES",
    "SearchOutcome",
    "SearchSpace",
    "SearchStats",
    "Searcher",
    "Strategy",
    "available_strategies",
    "axis_from_dict",
    "crowding_distances",
    "dominates",
    "get_strategy",
    "non_dominated",
    "non_dominated_sort",
    "paper_space",
    "register_strategy",
    "resolve_objectives",
]
