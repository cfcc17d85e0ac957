"""Result records and the append-only sweep result store.

A *record* is the JSON-serializable form of one evaluated (or failed)
job: the job parameters, a status, and — on success — the raw metrics
needed to rebuild a :class:`~repro.core.explorer.DesignPoint`.  Derived
quantities (performance, efficiency, EDP) are stored for inspection but
always recomputed from the raw fields when a point is rebuilt, so the
dataclass properties stay the single source of truth.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..api import scenario as _scenario
from ..core.explorer import DesignPoint
from ..core.metrics import KernelMetrics
from .cache import encode_line
from .spec import Job


def point_to_record(job: Job, point) -> dict:
    """Serialize one successful evaluation.

    ``point`` is any object with the eight metric attributes read below:
    the pipeline's :class:`~repro.api.RunResult` (what the engine's
    default evaluation returns) or a :class:`DesignPoint`.  Both carry
    the same floats under the same names, so the record is the same.
    """
    return {
        "key": job.key,
        "job": job.params(),
        # Read at call time (not import time) so the stamped version
        # always matches the CODE_MODEL_VERSION the key was hashed with.
        "model_version": _scenario.CODE_MODEL_VERSION,
        "status": "ok",
        "metrics": {
            "footprint_um2": point.footprint_um2,
            "combined_area_um2": point.combined_area_um2,
            "frequency_mhz": point.frequency_mhz,
            "power_mw": point.power_mw,
            "cycles": point.kernel.cycles,
            "performance": point.performance,
            "energy_efficiency": point.energy_efficiency,
            "edp": point.edp,
        },
    }


def failure_record(job: Job, exc: BaseException) -> dict:
    """Serialize one failed evaluation (error captured, sweep continues)."""
    return {
        "key": job.key,
        "job": job.params(),
        "model_version": _scenario.CODE_MODEL_VERSION,
        "status": "error",
        "error": f"{type(exc).__name__}: {exc}",
    }


def record_to_point(record: dict) -> DesignPoint:
    """Rebuild the design point of a successful record.

    Raises:
        ValueError: If the record is not a successful evaluation.
    """
    if record.get("status") != "ok":
        raise ValueError(f"cannot rebuild a point from status {record.get('status')!r}")
    params = dict(record["job"])  # one Scenario, and no key computed
    params["workload"] = params.pop("kernel", "matmul")
    config = _scenario.Scenario(**params).to_config()
    m = record["metrics"]
    kernel = KernelMetrics(
        name=config.name,
        cycles=m["cycles"],
        frequency_mhz=m["frequency_mhz"],
        power_mw=m["power_mw"],
    )
    return DesignPoint(
        config=config,
        footprint_um2=m["footprint_um2"],
        combined_area_um2=m["combined_area_um2"],
        frequency_mhz=m["frequency_mhz"],
        power_mw=m["power_mw"],
        kernel=kernel,
    )


class ResultStore:
    """Append-only JSONL log of sweep results (the sweep's output artifact).

    Unlike the cache — which holds only successful evaluations and exists
    for resumability — the store logs *every* record of every run,
    failures included, so a sweep's full history is auditable.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, record: dict) -> None:
        """Append one record on a line of its own.

        A file ending in a fragment (a torn append from a killed run)
        gets a newline first, so the record is not glued onto it.
        """
        line = encode_line(record)
        with self.path.open("ab+") as fh:
            end = fh.seek(0, os.SEEK_END)
            if end and os.pread(fh.fileno(), 1, end - 1) != b"\n":
                line = b"\n" + line
            fh.write(line)

    def load(self) -> list[dict]:
        """All records, in append order (empty if the file is missing).

        A line that does not decode is skipped, as the cache's
        :class:`~repro.sweep.cache.Journal` skips it: one torn append
        from a killed run must not hide every other record.
        """
        if not self.path.exists():
            return []
        records = []
        with self.path.open("r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    try:
                        records.append(json.loads(line))
                    except ValueError:
                        continue
        return records

    def latest(self) -> dict[str, dict]:
        """Deduplicated view: key -> most recent record."""
        return {r["key"]: r for r in self.load() if r.get("key")}
