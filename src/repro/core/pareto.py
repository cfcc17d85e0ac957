"""Pareto domination over minimization cost vectors.

A *cost vector* holds one candidate's objective values folded into
pure-minimization form (higher-is-better objectives negated).  This is
the repo's one non-domination routine: :func:`repro.core.explorer.pareto_front`
(and through it ``repro report --pareto`` and the HTML report) folds
its objectives into cost vectors and calls :func:`non_dominated`, and
the :mod:`repro.search` strategies and archive use the rest — the
non-dominated sort and crowding distance (the NSGA-II diversity
measure).  The module imports nothing, so ``repro.core`` stays light.
"""

from __future__ import annotations

from typing import Sequence


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if cost vector ``a`` Pareto-dominates ``b``.

    ``a`` dominates ``b`` when it is no worse on every objective and
    strictly better on at least one (costs: lower is better).

    Raises:
        ValueError: On mismatched vector lengths.
    """
    if len(a) != len(b):
        raise ValueError(f"cost vectors differ in length: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def non_dominated(costs: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the non-dominated vectors, input order preserved."""
    return [
        i
        for i, c in enumerate(costs)
        if not any(dominates(other, c) for j, other in enumerate(costs) if j != i)
    ]


def non_dominated_sort(costs: Sequence[Sequence[float]]) -> list[list[int]]:
    """Indices layered into Pareto fronts (front 0 = non-dominated).

    The classic fast non-dominated sort: every index appears in exactly
    one front; each front is non-dominated once all earlier fronts are
    removed.
    """
    n = len(costs)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(costs[i], costs[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(costs[j], costs[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts: list[list[int]] = []
    current = [i for i in range(n) if domination_count[i] == 0]
    while current:
        fronts.append(current)
        upcoming = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    upcoming.append(j)
        current = sorted(upcoming)
    return fronts


def crowding_distances(costs: Sequence[Sequence[float]]) -> list[float]:
    """NSGA-II crowding distance of each vector within its own set.

    Boundary points per objective get infinite distance; interior points
    sum their normalized neighbor gaps.  Larger = lonelier = preferred
    when truncating a front.
    """
    n = len(costs)
    if n == 0:
        return []
    distances = [0.0] * n
    num_objectives = len(costs[0])
    for m in range(num_objectives):
        order = sorted(range(n), key=lambda i, m=m: costs[i][m])
        lo, hi = costs[order[0]][m], costs[order[-1]][m]
        distances[order[0]] = distances[order[-1]] = float("inf")
        span = hi - lo
        if span <= 0:
            continue
        for rank in range(1, n - 1):
            i = order[rank]
            gap = costs[order[rank + 1]][m] - costs[order[rank - 1]][m]
            distances[i] += gap / span
    return distances
