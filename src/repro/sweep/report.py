"""Ranking and summary reporting over sweep results.

Builds on the same :data:`repro.core.explorer.OBJECTIVES` the serial
explorer uses, so a sweep and an `Explorer` rank identically; labels
carry the off-chip bandwidth because — unlike the eight-point paper
study — a sweep usually spans several bandwidths.
"""

from __future__ import annotations

from typing import Iterable

from ..core.explorer import OBJECTIVES, DesignPoint, pareto_front
from .spec import point_label
from .store import record_to_point


def labeled_points(records: Iterable[dict]) -> list[tuple[str, DesignPoint]]:
    """(label, point) pairs for the successful records, input order kept."""
    return [
        (point_label(record["job"]), record_to_point(record))
        for record in records
        if record.get("status") == "ok"
    ]


def _rank_pairs(
    pairs: list[tuple[str, DesignPoint]], objective: str
) -> list[tuple[str, DesignPoint]]:
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}"
        )
    key, higher_better = OBJECTIVES[objective]
    return sorted(pairs, key=lambda lp: key(lp[1]), reverse=higher_better)


def rank(
    records: Iterable[dict], objective: str
) -> list[tuple[str, DesignPoint]]:
    """Order successful records by an objective (best first).

    Raises:
        ValueError: On an unknown objective name.
    """
    return _rank_pairs(labeled_points(records), objective)


def _pareto_pairs(
    pairs: list[tuple[str, DesignPoint]]
) -> list[tuple[str, DesignPoint]]:
    labels = {id(point): label for label, point in pairs}
    front = pareto_front([point for _, point in pairs])
    return [(labels[id(point)], point) for point in front]


def pareto_pairs(records: Iterable[dict]) -> list[tuple[str, DesignPoint]]:
    """(label, point) pairs of the performance/efficiency Pareto front."""
    return _pareto_pairs(labeled_points(records))


def format_table(pairs: list[tuple[str, DesignPoint]]) -> str:
    """Aligned text table of labeled design points."""
    if not pairs:
        return "(no results)"
    lines = [
        f"{'point':>28} {'freq MHz':>9} {'power mW':>9} {'fp mm2':>8} "
        f"{'runtime s':>10} {'kernels/J':>10} {'EDP Js':>10}"
    ]
    for label, p in pairs:
        lines.append(
            f"{label:>28} {p.frequency_mhz:9.0f} {p.power_mw:9.0f} "
            f"{p.footprint_um2 / 1e6:8.2f} {p.kernel.runtime_s:10.3e} "
            f"{p.energy_efficiency:10.3e} {p.edp:10.3e}"
        )
    return "\n".join(lines)


def summarize(records: Iterable[dict], top: int = 3) -> str:
    """Full sweep report: winners per objective, Pareto front, failures."""
    records = list(records)
    pairs = labeled_points(records)
    lines = []
    if not pairs:
        lines.append("(no successful results)")
    for objective in OBJECTIVES:
        ranked = _rank_pairs(pairs, objective)
        if not ranked:
            continue
        lines.append(f"best {objective}:")
        key, _ = OBJECTIVES[objective]
        for label, point in ranked[:top]:
            lines.append(f"  {label:>28}  {key(point):.4e}")
    if pairs:
        lines.append("performance / energy-efficiency Pareto front:")
        for label, p in _pareto_pairs(pairs):
            lines.append(
                f"  {label:>28}  perf {p.performance:9.3e}/s  "
                f"eff {p.energy_efficiency:9.3e}/J"
            )
    failures = [r for r in records if r.get("status") != "ok"]
    if failures:
        lines.append(f"failures ({len(failures)}):")
        for record in failures:
            label = point_label(record["job"])
            lines.append(f"  {label:>28}  {record.get('error', '?')}")
    return "\n".join(lines)
