"""Additional physical-layer tests: calibration overrides."""

import pytest

from repro.core.config import Flow, MemPoolConfig
from repro.physical.calibration import (
    Calibration,
    PowerCalibration,
    TimingCalibration,
)
from repro.physical.flow2d import implement_group_2d


class TestCalibrationOverrides:
    def test_zero_noise_changes_frequency(self):
        config = MemPoolConfig(8, Flow.FLOW_2D)
        default = implement_group_2d(config)
        mechanistic = implement_group_2d(
            config, calibration=Calibration(closure_adjust_ps={})
        )
        # The 2D-8MiB entry carries a large negative (lucky-run) noise.
        assert mechanistic.timing.frequency_mhz < default.timing.frequency_mhz

    def test_wire_activity_scales_power(self):
        config = MemPoolConfig(1, Flow.FLOW_2D)
        low = implement_group_2d(
            config,
            calibration=Calibration(power=PowerCalibration(wire_activity=0.05)),
        )
        high = implement_group_2d(
            config,
            calibration=Calibration(power=PowerCalibration(wire_activity=0.20)),
        )
        assert high.power.wires_mw > 2 * low.power.wires_mw

    def test_diagonal_fraction_scales_wire_delay(self):
        config = MemPoolConfig(1, Flow.FLOW_2D)
        short = implement_group_2d(
            config,
            calibration=Calibration(
                timing=TimingCalibration(diagonal_route_fraction=0.5),
                closure_adjust_ps={},
            ),
        )
        long = implement_group_2d(
            config,
            calibration=Calibration(
                timing=TimingCalibration(diagonal_route_fraction=1.0),
                closure_adjust_ps={},
            ),
        )
        assert long.timing.wire_delay_ps == pytest.approx(
            2 * short.timing.wire_delay_ps
        )

    def test_unknown_config_noise_defaults_to_zero(self):
        cal = Calibration()
        assert cal.closure_noise("2D", 16) == 0.0
        assert cal.closure_noise("3D", 8) != 0.0
