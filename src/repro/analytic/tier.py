"""Serving tier-0 predictions: counters and fallback.

The tier is one explicit argument: ``Pipeline(engine="analytic")``, or
``Engine(sim_engine="analytic")``, which hands it to every evaluation
and keys every record by it.  When a predictor covers the scenario's
workload (:meth:`~repro.api.scenario.Scenario.predicted_by`), the
pipeline's cycles stage serves :func:`predict_cycles` instead of
simulating — falling back to the workload plugin (the fast engine) when
the calibration cannot be fitted or the fitted error bound is violated.

Every outcome is counted twice: process-wide observability counters
(``repro_analytic_*`` in ``/v1/metrics``) and per-cache-root deltas
folded batch-wise into the stats sidecar by the engine's record-tier
flush (:func:`take_pending_stats`; :func:`flush_analytic_stats` at
exit), never on the per-prediction hot path.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..api.registry import PREDICTORS
from ..obs.metrics import counter
from .calibrate import ensure_calibrated
from .store import calibration_store_for

_PREDICTIONS = counter(
    "repro_analytic_predictions_total",
    "Cycle counts served from calibrated tier-0 predictors",
)
_CALIBRATIONS = counter(
    "repro_analytic_calibrations_total",
    "Tier-0 overhead-factor fits run against the fast engine",
)
_FALLBACKS = counter(
    "repro_analytic_fallbacks_total",
    "Analytic-tier requests that fell back to the fast engine",
)

#: Per-cache-root counter deltas awaiting a sidecar merge.
_PENDING: dict[str, dict[str, int]] = {}
_PENDING_LOCK = threading.Lock()
_FLUSH_REGISTERED: set[str] = set()


def _count(root: Optional[str], field: str, obs_counter) -> None:
    obs_counter.inc()
    if root is None:
        return
    with _PENDING_LOCK:
        pending = _PENDING.setdefault(
            root,
            {
                "analytic_predictions": 0,
                "analytic_calibrations": 0,
                "analytic_fallbacks": 0,
            },
        )
        pending[field] += 1
        if root not in _FLUSH_REGISTERED:
            _FLUSH_REGISTERED.add(root)
            import atexit
            from multiprocessing import util as mp_util

            atexit.register(flush_analytic_stats, root)
            mp_util.Finalize(
                None, flush_analytic_stats, args=(root,), exitpriority=10
            )


def take_pending_stats(root: str) -> dict[str, int]:
    """Pop ``root``'s pending counter deltas (for ``TieredCache``'s merge)."""
    with _PENDING_LOCK:
        return _PENDING.pop(root, {})


def flush_analytic_stats(root: str | None = None) -> None:
    """Merge pending analytic counter deltas into sidecar stats files.

    Runs at process exit (and on demand); with ``root=None`` every
    pending root is flushed.  Zero-delta roots never touch the
    filesystem.
    """
    from ..engine.cache import record_stats

    with _PENDING_LOCK:
        roots = [root] if root is not None else list(_PENDING)
    for target in roots:
        record_stats(target, take_pending_stats(target))


def predict_cycles(scenario, root: str | None = None) -> Optional[float]:
    """One scenario's tier-0 cycle prediction, or ``None`` to fall back.

    Looks up (fitting on miss) the calibration for the scenario's
    (workload, arch-class); refuses calibrations whose achieved probe
    error exceeds the predictor's declared bound.  ``root`` names the
    cache directory whose calibration store and stats sidecar to use
    (``None``: the process-wide in-memory store, obs counters only).

    Returns:
        Predicted cycles (``>= 1``), or ``None`` when the caller must
        evaluate through the workload plugin instead.
    """
    workload = scenario.workload
    if workload not in PREDICTORS:
        _count(root, "analytic_fallbacks", _FALLBACKS)
        return None
    store = calibration_store_for(root)
    try:
        record, fitted = ensure_calibrated(workload, scenario, store)
    except (ValueError, RuntimeError):
        _count(root, "analytic_fallbacks", _FALLBACKS)
        return None
    if fitted:
        _count(root, "analytic_calibrations", _CALIBRATIONS)
    if not record.within_bound:
        _count(root, "analytic_fallbacks", _FALLBACKS)
        return None
    terms = PREDICTORS.get(workload)(scenario)
    prediction = (
        terms.setup
        + record.setup_cycles
        + record.factor * terms.work
        + record.contention_factor * terms.contention
    )
    _count(root, "analytic_predictions", _PREDICTIONS)
    return max(float(prediction), 1.0)
