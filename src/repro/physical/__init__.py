"""Physical-implementation models: technology, floorplan, timing, power, flows.

Names resolve lazily (PEP 562, :mod:`repro._lazy`): importing the
package imports none of its submodules, and the first access of an
exported name imports the one submodule that defines it.  So a flow
plugin (:mod:`~repro.physical.flow2d`, :mod:`~repro.physical.flow3d`)
loads without the numpy-backed maps of :mod:`~repro.physical.maps`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "calibration": ("Calibration", "DEFAULT_CALIBRATION"),
    "cluster_level": ("ClusterImplementation", "implement_cluster"),
    "cost": ("CostModelParams", "analyze_cost", "cost_ratio_3d_over_2d"),
    "maps": ("cell_density_map", "routing_demand_map"),
    "flow2d": ("implement_group_2d", "implement_tile_2d"),
    "flow3d": (
        "implement_group", "implement_group_3d", "implement_tile_3d",
        "memory_die_array",
    ),
    "flowbase": ("GroupImplementation", "TileImplementation"),
    "sram": ("SRAMCompiler", "SRAMMacro", "icache_bank_macro", "spm_bank_macro"),
    "technology": ("DEFAULT_TECHNOLOGY", "MetalStack", "Technology", "make_stack"),
})
