"""The Macro-3D implementation flow.

Section III-IV: Macro-3D partitions each tile into a logic die and a
memory die, bonded face to face with 10 um-pitch hybrid vias.  Both dies
share a mirrored M6M6 BEOL whose routing resources are combined, and the
group level routes through the same stack (no over-the-tile layers, but
twelve layers inside the channels).

The partition is chosen with the paper's flexible scheme
(:func:`repro.core.partition.select_partition`): all macros on the memory
die up to 4 MiB; at 8 MiB one SPM bank and the I$ banks move to the logic
die so the 15 remaining macros pack the memory die at ~100 % utilization
(Figure 3c's 5x3 array).
"""

from __future__ import annotations

from ..api.registry import register_flow
from ..core.config import Flow, MemPoolConfig
from ..core.metrics import GroupResult
from ..core.partition import TilePartition, select_partition
from .calibration import Calibration, DEFAULT_CALIBRATION
from .floorplan import MacroArray, best_macro_array, memory_die_packing, plan_3d_tile
from .flowbase import GroupImplementation, TileImplementation, implement_group_from_tile, signoff_group
from .netlist import TileNetlist, build_tile_netlist
from .technology import DEFAULT_TECHNOLOGY, Technology

#: Logic-die standard-cell density target.
TARGET_DENSITY = 0.90

#: Logic dies that also host macros close at a slightly lower density,
#: mirroring the 84-85 % logic utilizations of the 4/8 MiB rows of Table I.
MACRO_ON_LOGIC_DENSITY = 0.86


def _partition_tile(config: MemPoolConfig, netlist: TileNetlist) -> TilePartition:
    """Select the die partition for this capacity."""
    bank_area = netlist.spm_macros[0].area_um2
    icache_area = sum(m.area_um2 for m in netlist.icache_macros)
    logic_die_area = netlist.logic_area_um2 / TARGET_DENSITY
    return select_partition(
        config,
        bank_area_um2=bank_area,
        icache_area_um2=icache_area,
        logic_die_area_um2=logic_die_area,
    )


def memory_die_array(
    config: MemPoolConfig, netlist: TileNetlist | None = None
) -> MacroArray:
    """The memory die's macro arrangement (Figure 3).

    For the 8 MiB configuration this returns the paper's 5x3 array of 15
    macros.
    """
    netlist = netlist or build_tile_netlist(config)
    partition = _partition_tile(config, netlist)
    return best_macro_array(
        count=partition.spm_banks_on_memory_die, macro=netlist.spm_macros[0]
    )


def implement_tile_3d(
    config: MemPoolConfig, tech: Technology = DEFAULT_TECHNOLOGY
) -> TileImplementation:
    """Implement a Macro-3D tile: logic die + memory die."""
    if config.flow is not Flow.FLOW_3D:
        raise ValueError(f"{config.name} is not a 3D configuration")
    netlist = build_tile_netlist(config)
    partition = _partition_tile(config, netlist)

    bank_area = netlist.spm_macros[0].area_um2
    icache_area = sum(m.area_um2 for m in netlist.icache_macros)
    logic_macros = partition.spm_banks_on_logic_die * bank_area
    if not partition.icache_on_memory_die:
        logic_macros += icache_area
    memory_macros = partition.spm_banks_on_memory_die * bank_area
    if partition.icache_on_memory_die:
        memory_macros += icache_area

    density = TARGET_DENSITY if logic_macros == 0 else MACRO_ON_LOGIC_DENSITY
    logic_die, memory_die = plan_3d_tile(
        logic_area_um2=netlist.logic_area_um2,
        logic_die_macro_area_um2=logic_macros,
        memory_die_macro_area_um2=memory_macros,
        target_density=density,
        memory_packing=memory_die_packing(netlist.spm_macros[0].capacity_bits),
    )
    return TileImplementation(
        config=config,
        netlist=netlist,
        partition=partition,
        logic_die=logic_die,
        memory_die=memory_die,
        target_density=density,
    )


def implement_group_3d(
    config: MemPoolConfig,
    tech: Technology = DEFAULT_TECHNOLOGY,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> GroupImplementation:
    """Implement a Macro-3D group on the mirrored M6M6 stack."""
    tile = implement_tile_3d(config, tech)
    stack = tech.stacks["M6M6"]
    return implement_group_from_tile(config, tile, stack, tech, calibration)


def implement_group(
    config: MemPoolConfig,
    tech: Technology = DEFAULT_TECHNOLOGY,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> GroupImplementation:
    """Dispatch to the flow matching the configuration."""
    from .flow2d import implement_group_2d

    if config.flow is Flow.FLOW_3D:
        return implement_group_3d(config, tech, calibration)
    return implement_group_2d(config, tech, calibration)


@register_flow("3D")
def scenario_flow_3d(scenario) -> GroupResult:
    """Flow plugin: a scenario's group result with the Macro-3D flow.

    Equals ``implement_group_3d(scenario.to_config()).to_group_result()``;
    the layout is shared across frequency targets (:func:`signoff_group`).
    """
    config = scenario.to_config(flow=Flow.FLOW_3D)
    return signoff_group(config, implement_group_3d)
