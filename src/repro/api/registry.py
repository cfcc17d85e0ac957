"""Plugin registries for flows, workloads, and objectives.

The co-exploration pipeline is assembled from three kinds of plugins:

* a **flow** turns a :class:`~repro.api.scenario.Scenario` into a
  physical implementation (something with a ``to_group_result()``, or a
  :class:`~repro.core.metrics.GroupResult` directly);
* a **workload** turns a scenario into a kernel cycle count;
* an **objective** is a ``(key_function, higher_is_better)`` pair that
  ranks evaluated results;
* a **predictor** turns a scenario into tier-0
  :class:`~repro.analytic.models.AnalyticTerms` — the closed-form phase
  decomposition behind ``engine="analytic"``.

Each kind has a process-global :class:`Registry` seeded lazily from the
built-in implementations (the 2D/Macro-3D flows, the kernel zoo, and the
classic PPA objectives), so ``import repro`` stays light and new plugins
register with a decorator instead of edits to core modules::

    from repro.api import register_workload

    @register_workload("fft")
    def fft_cycles(scenario):
        return 42e6

This module is intentionally dependency-free: flow and kernel modules
import it to self-register without creating import cycles.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from typing import Callable, Iterator, Optional, TypeVar

T = TypeVar("T")


class Registry:
    """A named plugin table with lazy seeding and duplicate rejection.

    Args:
        kind: Human-readable plugin kind for error messages.
        seed: Optional zero-argument callable run once to register the
            built-in plugins (typically by importing the modules that
            self-register): on the first listing, membership test or
            removal, and on the first :meth:`get` of a name not yet
            registered.  Other threads' first lookups wait for it.

    Iteration preserves registration order; :meth:`names` likewise, so
    listings show built-ins first and plugins after.
    """

    def __init__(self, kind: str, seed: Optional[Callable[[], None]] = None) -> None:
        self._kind = kind
        self._items: dict[str, object] = {}
        self._seed = seed
        self._seeded = seed is None
        self._seed_started = self._seeded
        self._seed_lock = threading.RLock()
        #: Monotonic registration epoch: bumped on every successful
        #: :meth:`register`/:meth:`unregister`, so caches derived from
        #: the registry's contents (e.g. the successive-halving screen
        #: memo) can detect that a plugin joined or left mid-process.
        self.generation = 0

    def _ensure_seeded(self) -> None:
        if self._seeded:
            return
        with self._seed_lock:
            # Another thread's first lookup waits here for the seed; a
            # lookup the seed itself makes (re-entering on this thread)
            # sees the registry as seeded so far.
            if self._seed_started:
                return
            self._seed_started = True
            try:
                assert self._seed is not None
                self._seed()
            finally:
                self._seeded = True

    def register(self, name: str, obj: T) -> T:
        """Register ``obj`` under ``name``.

        Raises:
            ValueError: If the name is empty or already taken by a
                different object (re-registering the same object is a
                no-op, so module re-imports stay safe).
        """
        if not isinstance(name, str) or not name:
            raise ValueError(f"{self._kind} name must be a non-empty string")
        existing = self._items.get(name)
        if existing is not None and existing is not obj:
            raise ValueError(f"{self._kind} {name!r} is already registered")
        if existing is not obj:
            self.generation += 1
        self._items[name] = obj
        return obj

    def decorator(self, name: str) -> Callable[[T], T]:
        """Decorator form of :meth:`register`."""

        def wrap(obj: T) -> T:
            self.register(name, obj)
            return obj

        return wrap

    def get(self, name: str) -> object:
        """Look up a plugin by name (seeding only on a miss).

        Raises:
            ValueError: On an unknown name, listing what is available.
        """
        item = self._items.get(name)
        if item is not None:
            return item
        self._ensure_seeded()
        try:
            return self._items[name]
        except KeyError:
            raise ValueError(
                f"unknown {self._kind} {name!r}; pick from {sorted(self._items)}"
            ) from None

    def unregister(self, name: str) -> None:
        """Remove a plugin (mainly for tests un-doing a registration)."""
        self._ensure_seeded()
        if name not in self._items:
            raise ValueError(f"unknown {self._kind} {name!r}")
        del self._items[name]
        self.generation += 1

    def names(self) -> tuple[str, ...]:
        """Registered names, registration order preserved."""
        self._ensure_seeded()
        return tuple(self._items)

    def __contains__(self, name: object) -> bool:
        self._ensure_seeded()
        return name in self._items

    def __iter__(self) -> Iterator[str]:
        self._ensure_seeded()
        return iter(tuple(self._items))

    def __len__(self) -> int:
        self._ensure_seeded()
        return len(self._items)


class RegistryMapping(Mapping):
    """Read-only live ``Mapping`` view of a :class:`Registry`.

    Lets dict-shaped legacy tables (``repro.core.explorer.OBJECTIVES``)
    stay importable while the registry remains the single source of
    truth: plugins registered later appear in the view immediately.
    """

    def __init__(self, registry: Registry) -> None:
        self._registry = registry

    def __getitem__(self, name: str) -> object:
        try:
            return self._registry.get(name)
        except ValueError:
            raise KeyError(name) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._registry)

    def __len__(self) -> int:
        return len(self._registry)


# ---------------------------------------------------------------------------
# The three global registries, seeded from the built-in implementations.

def _seed_flows() -> None:
    # Importing the flow modules runs their @register_flow decorators.
    from ..physical import flow2d, flow3d  # noqa: F401


def _seed_workloads() -> None:
    # Importing the kernel zoo runs its @register_workload decorators.
    from ..kernels import workloads  # noqa: F401


def _seed_predictors() -> None:
    # Importing the analytic models runs their @register_predictor
    # decorators (one calibrated tier-0 predictor per built-in kernel).
    from ..analytic import models  # noqa: F401


def _seed_objectives() -> None:
    register_objective("performance", higher_is_better=True)(
        lambda p: p.performance
    )
    register_objective("energy_efficiency", higher_is_better=True)(
        lambda p: p.energy_efficiency
    )
    register_objective("edp", higher_is_better=False)(lambda p: p.edp)
    register_objective("footprint", higher_is_better=False)(
        lambda p: p.footprint_um2
    )
    register_objective("silicon_cost", higher_is_better=False)(
        lambda p: p.combined_area_um2
    )


#: Flow registry: name -> ``fn(scenario) -> implementation``.
FLOWS = Registry("flow", seed=_seed_flows)

#: Workload registry: name -> ``fn(scenario) -> cycles``.
WORKLOADS = Registry("workload", seed=_seed_workloads)

#: Objective registry: name -> ``(key_fn, higher_is_better)``.
OBJECTIVES = Registry("objective", seed=_seed_objectives)

#: Predictor registry: name -> ``fn(scenario) -> AnalyticTerms`` (tier-0).
PREDICTORS = Registry("predictor", seed=_seed_predictors)


def register_flow(name: str) -> Callable[[T], T]:
    """Decorator registering a flow: ``fn(scenario) -> implementation``.

    The callable receives a :class:`~repro.api.scenario.Scenario` and
    returns either a :class:`~repro.core.metrics.GroupResult` or any
    object exposing ``to_group_result()``.
    """
    return FLOWS.decorator(name)


def register_workload(name: str) -> Callable[[T], T]:
    """Decorator registering a workload: ``fn(scenario) -> cycles``."""
    return WORKLOADS.decorator(name)


def register_objective(
    name: str, *, higher_is_better: bool
) -> Callable[[Callable], Callable]:
    """Decorator registering a ranking objective.

    The decorated function maps an evaluated result (a
    :class:`~repro.api.pipeline.RunResult` or a
    :class:`~repro.core.explorer.DesignPoint`) to a score.
    """

    def wrap(fn: Callable) -> Callable:
        OBJECTIVES.register(name, (fn, bool(higher_is_better)))
        return fn

    return wrap


def register_predictor(
    name: str,
    *,
    error_bound: float = 0.05,
    calibration_dims: tuple[int, ...] = (),
    probe_dims: tuple[int, ...] = (),
) -> Callable[[T], T]:
    """Decorator registering a tier-0 analytic cycle predictor.

    The decorated function maps a :class:`~repro.api.scenario.Scenario`
    to :class:`~repro.analytic.models.AnalyticTerms` — the closed-form
    phase decomposition ``T = setup + inner_iters x cycles_per_iter``
    whose overhead factor is auto-calibrated against the workload's
    tier-1 evaluation (FastEngine for the simulated kernels).  It must
    be pure tier-0: no simulator imports, no nondeterminism, and only
    ``Scenario.cycles_dict`` fields (the REP009 contract).

    Args:
        name: Workload name the predictor covers (usually one already in
            :data:`WORKLOADS`; a predictor without a workload is legal
            but only reachable through calibration-free prediction).
        error_bound: Declared relative-error budget vs the tier-1
            measurement.  Calibrations whose achieved (probe) error
            exceeds this are persisted for inspection but refused at
            prediction time, falling back to the fast engine.
        calibration_dims: ``matrix_dim`` values the fit runs at.
        probe_dims: Held-out ``matrix_dim`` values the achieved error is
            measured at (defaults to ``calibration_dims`` when empty).
    """

    def wrap(fn: T) -> T:
        fn.predictor_name = name  # type: ignore[attr-defined]
        fn.error_bound = float(error_bound)  # type: ignore[attr-defined]
        fn.calibration_dims = tuple(  # type: ignore[attr-defined]
            int(d) for d in calibration_dims
        )
        fn.probe_dims = tuple(  # type: ignore[attr-defined]
            int(d) for d in probe_dims
        )
        PREDICTORS.register(name, fn)
        return fn

    return wrap


def get_flow(name: str) -> Callable:
    """The registered flow callable for ``name``."""
    return FLOWS.get(name)  # type: ignore[return-value]


def get_workload(name: str) -> Callable:
    """The registered workload callable for ``name``."""
    return WORKLOADS.get(name)  # type: ignore[return-value]


def get_objective(name: str) -> tuple[Callable, bool]:
    """The registered ``(key_fn, higher_is_better)`` pair for ``name``."""
    return OBJECTIVES.get(name)  # type: ignore[return-value]


def get_predictor(name: str) -> Callable:
    """The registered tier-0 predictor callable for ``name``."""
    return PREDICTORS.get(name)  # type: ignore[return-value]


def available_flows() -> tuple[str, ...]:
    """Names of every registered flow."""
    return FLOWS.names()


def available_workloads() -> tuple[str, ...]:
    """Names of every registered workload."""
    return WORKLOADS.names()


def available_objectives() -> tuple[str, ...]:
    """Names of every registered objective."""
    return OBJECTIVES.names()


def available_predictors() -> tuple[str, ...]:
    """Names of every registered tier-0 predictor."""
    return PREDICTORS.names()
