"""The 2D implementation flow.

Section III: 2D tiles use a six-layer BEOL (M6); 2D groups add two layers
(M8) for over-the-tile routing.  Logic and macros share a single die, so
the tile footprint carries the full SRAM area plus halos — the mechanism
behind the steep footprint growth of the 2D column in Table I.
"""

from __future__ import annotations

from ..api.registry import register_flow
from ..core.config import Flow, MemPoolConfig
from ..core.metrics import GroupResult
from ..core.partition import TilePartition
from .calibration import Calibration, DEFAULT_CALIBRATION
from .floorplan import plan_2d_tile
from .flowbase import GroupImplementation, TileImplementation, implement_group_from_tile, signoff_group
from .netlist import build_tile_netlist
from .technology import DEFAULT_TECHNOLOGY, Technology

#: Standard-cell density target of the tile implementations.
TARGET_DENSITY = 0.90

#: Macro-heavy 2D floorplans close at a lower achievable density (the 84-86 %
#: utilizations of the 4 and 8 MiB rows of Table I).
MACRO_HEAVY_DENSITY = 0.85


def _achievable_density(logic_area: float, macro_area: float) -> float:
    """Tool-achievable placement density for a macro/logic mix.

    When macros dominate the die, placement fragments around the halos and
    the achievable density drops below the 90 % target.
    """
    if macro_area <= logic_area:
        return TARGET_DENSITY
    return MACRO_HEAVY_DENSITY


def implement_tile_2d(
    config: MemPoolConfig, tech: Technology = DEFAULT_TECHNOLOGY
) -> TileImplementation:
    """Implement a 2D tile: one die holding logic and all macros."""
    if config.flow is not Flow.FLOW_2D:
        raise ValueError(f"{config.name} is not a 2D configuration")
    netlist = build_tile_netlist(config)
    logic = netlist.logic_area_um2
    macros = netlist.macro_area_um2
    plan = plan_2d_tile(
        logic_area_um2=logic,
        macro_area_um2=macros,
        target_density=_achievable_density(logic, macros),
    )
    partition = TilePartition(
        spm_banks_on_memory_die=0,
        spm_banks_on_logic_die=config.arch.banks_per_tile,
        icache_on_memory_die=False,
    )
    return TileImplementation(
        config=config,
        netlist=netlist,
        partition=partition,
        logic_die=plan,
        memory_die=None,
    )


def implement_group_2d(
    config: MemPoolConfig,
    tech: Technology = DEFAULT_TECHNOLOGY,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> GroupImplementation:
    """Implement a 2D group on the M8 stack."""
    tile = implement_tile_2d(config, tech)
    stack = tech.stacks["M8"]
    return implement_group_from_tile(config, tile, stack, tech, calibration)


@register_flow("2D")
def scenario_flow_2d(scenario) -> GroupResult:
    """Flow plugin: a scenario's group result with the 2D flow.

    Equals ``implement_group_2d(scenario.to_config()).to_group_result()``;
    the layout is shared across frequency targets (:func:`signoff_group`).
    """
    config = scenario.to_config(flow=Flow.FLOW_2D)
    return signoff_group(config, implement_group_2d)
