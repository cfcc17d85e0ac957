"""Tier-0: calibrated closed-form performance models.

The third evaluation tier, beside the reference and fast simulators.
Every registered workload gets a pure closed-form predictor ``T = setup
+ inner_iters x cycles_per_iter x overhead_factor``
(:mod:`repro.analytic.models`) whose overhead factors are
auto-calibrated against FastEngine runs
(:mod:`repro.analytic.calibrate`), persisted race-safely alongside the
stage cache (:mod:`repro.analytic.store`), and served through
``engine="analytic"`` (:mod:`repro.analytic.tier`).  Predictions carry a
declared relative-error bound; calibrations that miss their bound are
refused at prediction time and the evaluation falls back to the fast
engine.
"""

from .models import AnalyticTerms
from .store import (
    CalibrationRecord,
    CalibrationStore,
    calibration_store_for,
)
from .calibrate import calibrate, ensure_calibrated
from .tier import flush_analytic_stats, predict_cycles

__all__ = [
    "AnalyticTerms",
    "CalibrationRecord",
    "CalibrationStore",
    "calibrate",
    "calibration_store_for",
    "ensure_calibrated",
    "flush_analytic_stats",
    "predict_cycles",
]
