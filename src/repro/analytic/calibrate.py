"""Fitting tier-0 overhead factors against FastEngine runs.

The calibration protocol for a (workload, arch-class):

1. Build one scenario per declared ``calibration_dim`` that differs
   from the requesting scenario only in problem size (``matrix_dim``,
   tile re-derived), so the arch-class — cores, capacity, word size,
   arch overrides — is held fixed.
2. Measure each with the workload's tier-1 evaluation: the registered
   plugin, which for the simulated kernels *is* FastEngine.
3. Least-squares fit ``measured = setup_cal + factor x work
   (+ contention_factor x contention)`` over the calibration dims —
   ``work`` and ``contention`` come from the predictor's
   :class:`~repro.analytic.models.AnalyticTerms`.
4. Re-measure at the held-out ``probe_dims`` and record every relative
   residual; the max probe residual is the **achieved error** enforced
   against the predictor's declared bound at prediction time.

The fit deliberately regresses the *calibrated portion* only: each
measurement has the predictor's analytic ``setup`` term subtracted
first (zero for the built-in kernels), so the fitted constant absorbs
prologue and barrier cost while any exact phase arithmetic stays
analytic.

:func:`calibrate` and :func:`ensure_calibrated` derive the dims and the
content key in one place (:func:`_question`), so a fit is always stored
under the key the next lookup reads.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..api.registry import PREDICTORS, WORKLOADS
from .store import (
    CalibrationRecord,
    CalibrationStore,
    arch_class_of,
    calibration_key,
)


class _Question(NamedTuple):
    """One (workload, arch-class) calibration question and its address."""

    predictor: Callable
    calibration_dims: tuple[int, ...]
    probe_dims: tuple[int, ...]
    arch_class: dict
    model_version: str
    key: str


def _question(workload: str, scenario) -> _Question:
    """What a scenario asks of its workload's predictor, and its key.

    The probe dims default to the calibration dims when the predictor
    declares none.
    """
    from ..api.scenario import CODE_MODEL_VERSION

    predictor = PREDICTORS.get(workload)
    cal_dims = tuple(getattr(predictor, "calibration_dims", ()) or ())
    probe_dims = tuple(getattr(predictor, "probe_dims", ()) or ()) or cal_dims
    arch_class = arch_class_of(scenario)
    key = calibration_key(
        workload, arch_class, cal_dims, probe_dims, CODE_MODEL_VERSION
    )
    return _Question(
        predictor, cal_dims, probe_dims, arch_class, CODE_MODEL_VERSION, key
    )


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting (tiny dense systems)."""
    n = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-12:
            raise ValueError("singular calibration system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for row in range(n):
            if row == col:
                continue
            ratio = aug[row][col] / aug[col][col]
            for k in range(col, n + 1):
                aug[row][k] -= ratio * aug[col][k]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def _least_squares(
    rows: list[tuple[float, ...]], targets: list[float]
) -> list[float]:
    """Solve ``min ||A c - y||`` via the normal equations."""
    cols = len(rows[0])
    ata = [
        [sum(r[i] * r[j] for r in rows) for j in range(cols)]
        for i in range(cols)
    ]
    aty = [sum(r[i] * y for r, y in zip(rows, targets)) for i in range(cols)]
    return _solve(ata, aty)


def calibrate(workload: str, scenario) -> CalibrationRecord:
    """Fit one (workload, arch-class) calibration from scratch.

    Args:
        workload: Registered predictor name.
        scenario: Any scenario of the target arch-class (its problem
            size is ignored; the declared calibration dims are used).

    Returns:
        The fitted record, residual summary included.  The record is
        *not* persisted here — see :func:`ensure_calibrated`.

    Raises:
        ValueError: If the predictor declares too few calibration dims
            for its regressor count.
    """
    question = _question(workload, scenario)
    predictor = question.predictor
    cal_dims, probe_dims = question.calibration_dims, question.probe_dims
    error_bound = float(getattr(predictor, "error_bound", 0.05))

    def sample(dim: int) -> tuple[float, float, float]:
        cal_scenario = scenario.replace(
            workload=workload, matrix_dim=dim, tile_size=None
        )
        terms = predictor(cal_scenario)
        # The plugin measures the whole kernel; the predictor's analytic
        # setup is subtracted so only the fitted portion is regressed.
        measured = float(WORKLOADS.get(workload)(cal_scenario)) - terms.setup
        return terms.work, terms.contention, measured

    points = [sample(dim) for dim in cal_dims]
    with_contention = any(z != 0.0 for _, z, _ in points)
    params = 3 if with_contention else 2
    if len(points) < params:
        raise ValueError(
            f"predictor {workload!r} declares {len(cal_dims)} calibration "
            f"dims but its fit needs at least {params}"
        )
    rows = [(1.0, x, z) if with_contention else (1.0, x) for x, z, _ in points]
    targets = [y for _, _, y in points]
    coefficients = _least_squares(rows, targets)
    setup_cal, factor = coefficients[0], coefficients[1]
    contention_factor = coefficients[2] if with_contention else 0.0

    def predicted(x: float, z: float) -> float:
        return setup_cal + factor * x + contention_factor * z

    residuals: dict[str, float] = {}
    for dim, (x, z, y) in zip(cal_dims, points):
        residuals[str(dim)] = (predicted(x, z) - y) / y if y else 0.0
    probe_errors: list[float] = []
    for dim in probe_dims:
        x, z, y = sample(dim)
        err = (predicted(x, z) - y) / y if y else 0.0
        residuals[str(dim)] = err
        probe_errors.append(abs(err))

    return CalibrationRecord(
        key=question.key,
        workload=workload,
        arch_class=question.arch_class,
        model_version=question.model_version,
        calibration_dims=cal_dims,
        probe_dims=probe_dims,
        setup_cycles=float(setup_cal),
        factor=float(factor),
        contention_factor=float(contention_factor),
        error_bound=error_bound,
        achieved_error=max(probe_errors) if probe_errors else 0.0,
        residuals=residuals,
    )


def ensure_calibrated(
    workload: str, scenario, store: CalibrationStore
) -> tuple[CalibrationRecord, bool]:
    """The live calibration for a scenario's arch-class, fitting on miss.

    Returns:
        ``(record, fitted)`` — ``fitted`` is True when this call ran the
        fit (a fresh or stale-replacing calibration), False on a store
        hit.
    """
    record = store.get(_question(workload, scenario).key)
    if record is not None:
        return record, False
    record = calibrate(workload, scenario)
    store.put(record)
    return record, True
