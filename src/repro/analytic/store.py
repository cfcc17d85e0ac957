"""Persistent, content-addressed calibration artifacts.

Fitted overhead factors live in ``calibrations.jsonl`` alongside the
stage cache — the same append-only, torn-line-tolerant, lock-guarded
:class:`~repro.sweep.cache.Journal` as ``stages.jsonl`` — so concurrent
workers share one calibration per (workload, arch-class) instead of
re-fitting.

Each record is content-addressed: its key digests the *question* that
was calibrated (workload, arch-class, calibration protocol, code model
version), never the fitted answer.  A record whose stored key no longer
matches the recomputed digest, or whose ``model_version`` is not the
current :data:`~repro.api.scenario.CODE_MODEL_VERSION`, is **stale**:
lookups refuse it and the caller re-fits, so doctored or outdated
artifacts are never silently served.
"""

from __future__ import annotations

import atexit
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from ..sweep.cache import Journal

#: Scenario fields identifying a calibration arch-class.  A deliberate
#: subset of ``Scenario.cycles_dict``: the fields that change what the
#: simulator would measure for a fixed problem size.  Bandwidth and
#: tiling are *excluded* — they enter through each predictor's analytic
#: ``setup`` term, not the fitted factor.
ARCH_CLASS_FIELDS = ("capacity_mib", "num_cores", "word_bytes", "arch")


def arch_class_of(scenario) -> dict:
    """The calibration arch-class of a scenario (cycles_dict subset)."""
    cycles = scenario.cycles_dict()
    return {name: cycles[name] for name in ARCH_CLASS_FIELDS}


def calibration_key(
    workload: str,
    arch_class: dict,
    calibration_dims: tuple[int, ...],
    probe_dims: tuple[int, ...],
    model_version: str,
) -> str:
    """Content address of one calibration question."""
    payload = json.dumps(
        {
            "workload": workload,
            "arch_class": arch_class,
            "calibration_dims": list(calibration_dims),
            "probe_dims": list(probe_dims),
            "model_version": model_version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CalibrationRecord:
    """One fitted (workload, arch-class) overhead-factor artifact.

    Attributes:
        key: Content address (see :func:`calibration_key`).
        workload: Predictor/workload name.
        arch_class: The scenario fields the fit is valid for.
        model_version: Code-model version the fit ran under.
        calibration_dims: ``matrix_dim`` values the fit used.
        probe_dims: Held-out dims the achieved error was measured at.
        setup_cycles: Fitted constant (prologue/barrier absorption).
        factor: Fitted overhead factor on ``inner_iters x
            cycles_per_iter`` (an effective CPI).
        contention_factor: Fitted coefficient on the optional contention
            regressor (zero when the predictor declares none).
        error_bound: The predictor's declared relative-error budget.
        achieved_error: Max ``|relative residual|`` over the probe dims
            — the number the bound is enforced against.
        residuals: Per-dim relative residuals, ``{dim: rel_err}``, over
            calibration and probe dims both: the stored residual summary
            that makes out-of-budget predictions detectable.
    """

    key: str
    workload: str
    arch_class: dict
    model_version: str
    calibration_dims: tuple[int, ...]
    probe_dims: tuple[int, ...]
    setup_cycles: float
    factor: float
    contention_factor: float
    error_bound: float
    achieved_error: float
    residuals: dict = field(default_factory=dict)

    @property
    def within_bound(self) -> bool:
        """Whether the achieved probe error honours the declared bound."""
        return self.achieved_error <= self.error_bound

    def is_stale(self, model_version: str) -> bool:
        """Whether this artifact must be refused and re-fitted.

        Stale means the code model moved on, or the stored key no longer
        matches the recomputed content address (a doctored or corrupted
        artifact).
        """
        if self.model_version != model_version:
            return True
        expected = calibration_key(
            self.workload,
            self.arch_class,
            tuple(self.calibration_dims),
            tuple(self.probe_dims),
            self.model_version,
        )
        return self.key != expected

    def to_json(self) -> dict:
        record = asdict(self)
        record["calibration_dims"] = list(self.calibration_dims)
        record["probe_dims"] = list(self.probe_dims)
        return record

    @classmethod
    def from_json(cls, record: dict) -> "CalibrationRecord":
        return cls(
            key=str(record["key"]),
            workload=str(record["workload"]),
            arch_class=dict(record["arch_class"]),
            model_version=str(record["model_version"]),
            calibration_dims=tuple(
                int(d) for d in record["calibration_dims"]
            ),
            probe_dims=tuple(int(d) for d in record["probe_dims"]),
            setup_cycles=float(record["setup_cycles"]),
            factor=float(record["factor"]),
            contention_factor=float(record.get("contention_factor", 0.0)),
            error_bound=float(record["error_bound"]),
            achieved_error=float(record["achieved_error"]),
            residuals={
                str(dim): float(err)
                for dim, err in record.get("residuals", {}).items()
            },
        )


class CalibrationStore:
    """Append-only JSONL store of :class:`CalibrationRecord` artifacts.

    A typed index over a :class:`~repro.sweep.cache.Journal` on
    ``calibrations.jsonl``, like the engine's ``StageCache``: tail reads
    skip torn lines, and locked read-check-append writes make
    concurrent fitters converge on one record per key.  ``root=None``
    keeps the store purely in-memory (calibrations then last one
    process).

    Args:
        root: Cache directory shared with the stage cache, or ``None``.
    """

    FILENAME = "calibrations.jsonl"
    LOCKNAME = "calibrations.lock"

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / self.FILENAME if self.root else None
        self.journal = Journal(self.path, _calibration_entry)
        self._records = self.journal.index

    def __len__(self) -> int:
        return len(self._records)

    def refresh(self) -> int:
        """Fold records appended by other writers into this process."""
        return self.journal.refresh()

    def get(self, key: str) -> Optional[CalibrationRecord]:
        """The live record for ``key``, or ``None``.

        Stale records (model-version drift, key/content mismatch) are
        treated as missing: the caller re-fits and the fresh record
        shadows the stale line in the in-process view.
        """
        from ..api.scenario import CODE_MODEL_VERSION

        record = self._records.get(key)
        if record is None:
            self.journal.refresh()
            record = self._records.get(key)
        if record is None or record.is_stale(CODE_MODEL_VERSION):
            return None
        return record

    def put(self, record: CalibrationRecord) -> None:
        """Persist a freshly-fitted record (locked read-check-append)."""
        try:
            self.journal.append(
                record.key,
                record,
                record.to_json(),
                present=lambda existing: existing is not None,
            )
        except OSError:
            pass
        # A re-fit must shadow a stale record under the same key even if
        # the append failed; a live record (ours or a concurrent
        # winner's, folded in by the tail read) stands.
        existing = self._records.get(record.key)
        if existing is None or existing.is_stale(record.model_version):
            self._records[record.key] = record

    def records(self) -> list[CalibrationRecord]:
        """Snapshot of every loaded record (including stale ones)."""
        return list(self._records.values())

    def inject(self, record: CalibrationRecord) -> None:
        """Force a record into the in-process view (tests: staleness)."""
        self._records[record.key] = record


def _calibration_entry(record: dict):
    entry = CalibrationRecord.from_json(record)
    return entry.key, entry


#: Process-wide stores, one per cache directory (plus one in-memory
#: fallback for cacheless pipelines), mirroring ``stage_cache_for``.
_STORES: dict[str, CalibrationStore] = {}
_MEMORY_STORE: Optional[CalibrationStore] = None


def calibration_store_for(
    root: str | Path | None,
) -> CalibrationStore:
    """The process-wide :class:`CalibrationStore` for a cache directory.

    ``root=None`` returns one shared in-memory store, so cacheless
    pipelines (e.g. the search screen) still fit each (workload,
    arch-class) once per process.
    """
    global _MEMORY_STORE
    if root is None:
        if _MEMORY_STORE is None:
            _MEMORY_STORE = CalibrationStore(None)
        return _MEMORY_STORE
    key = str(root)
    store = _STORES.get(key)
    if store is None:
        store = CalibrationStore(root)
        _STORES[key] = store
    return store


def _reset_stores() -> None:
    """Drop process-wide stores (tests only: isolates calibrations)."""
    global _MEMORY_STORE
    _STORES.clear()
    _MEMORY_STORE = None


atexit.register(_STORES.clear)
