"""Tests for the yield and implementation-cost models."""

import pytest

from repro.core.config import Flow, MemPoolConfig
from repro.physical.cost import (
    CostModelParams,
    analyze_cost,
    cost_ratio_3d_over_2d,
    dies_per_wafer,
    murphy_yield,
)
from repro.physical.flow2d import implement_group_2d
from repro.physical.flow3d import implement_group_3d


class TestYieldModel:
    def test_murphy_yield_bounds(self):
        assert murphy_yield(1e-9, 0.25) == pytest.approx(1.0, abs=1e-6)
        assert 0 < murphy_yield(500.0, 0.25) < murphy_yield(50.0, 0.25) < 1

    def test_zero_defects_perfect_yield(self):
        assert murphy_yield(100.0, 0.0) == 1.0

    def test_dies_per_wafer_decreases_with_area(self):
        assert dies_per_wafer(10.0, 300) > dies_per_wafer(100.0, 300)

    def test_dies_per_wafer_sane_magnitude(self):
        # A ~100 mm^2 die on a 300 mm wafer: several hundred dies.
        assert 400 < dies_per_wafer(100.0, 300) < 800

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            murphy_yield(0, 0.25)
        with pytest.raises(ValueError):
            dies_per_wafer(0, 300)


class TestCostAnalysis:
    @pytest.fixture(scope="class")
    def pair(self):
        g3 = implement_group_3d(MemPoolConfig(4, Flow.FLOW_3D))
        g2 = implement_group_2d(MemPoolConfig(4, Flow.FLOW_2D))
        return g3, g2

    def test_3d_uses_two_smaller_dies(self, pair):
        g3, g2 = pair
        c3, c2 = analyze_cost(g3), analyze_cost(g2)
        assert c3.dies == 2 and c2.dies == 1
        assert c3.die_area_mm2 < c2.die_area_mm2
        assert c3.dies_per_wafer > c2.dies_per_wafer

    def test_smaller_die_yields_better(self, pair):
        g3, g2 = pair
        assert analyze_cost(g3).die_yield > analyze_cost(g2).die_yield

    def test_3d_unit_yield_includes_bonding(self, pair):
        g3, _ = pair
        c3 = analyze_cost(g3)
        assert c3.unit_yield < c3.die_yield**2 + 1e-12

    def test_cost_ratio_moderate(self, pair):
        g3, g2 = pair
        ratio = cost_ratio_3d_over_2d(g3, g2)
        # Two dies cost more, but yield pulls the ratio well below 2x.
        assert 1.0 < ratio < 2.0

    def test_defect_density_penalizes_w2w_bonding(self, pair):
        # Wafer-to-wafer bonding joins *untested* dies: the unit needs two
        # good dies, so although each 3D die is smaller and yields better,
        # rising defect density still widens the 3D cost gap.  (This is
        # the classic argument for known-good-die / die-to-wafer flows.)
        g3, g2 = pair
        clean = cost_ratio_3d_over_2d(g3, g2, CostModelParams(defect_density_per_cm2=0.05))
        dirty = cost_ratio_3d_over_2d(g3, g2, CostModelParams(defect_density_per_cm2=1.0))
        assert dirty > clean

    def test_argument_order_enforced(self, pair):
        g3, g2 = pair
        with pytest.raises(ValueError):
            cost_ratio_3d_over_2d(g2, g3)
