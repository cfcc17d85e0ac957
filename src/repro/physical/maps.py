"""Cell-density and routing-demand maps (Figure 4).

Figure 4 of the paper shows the routing map and the cell-density map of
the MemPool-3D-4MiB group: tiles are blackboxes (near-zero group-level
cell density), the four group interconnects form pockets of very high
density at the design center, and routing concentrates in the channels.

This module rasterizes a :class:`~repro.physical.flowbase.GroupImplementation`
into a numeric grid (cells per bin / routed-track demand per bin) and
renders it as ASCII art for terminal inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .flowbase import GroupImplementation

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Share of the group-level cells sitting in the central interconnect
#: pockets (Figure 4b's yellow/red regions).
CENTER_POCKET_SHARE = 0.55

#: ASCII shades from empty to saturated.
_SHADES = " .:-=+*#%@"


@dataclass(frozen=True)
class DensityMap:
    """A rasterized map over the group die.

    Attributes:
        values: 2D array (rows x cols) of the mapped quantity, normalized
            to [0, 1].
        label: What the map shows.
    """

    values: np.ndarray
    label: str

    @property
    def peak(self) -> float:
        """Maximum bin value."""
        return float(self.values.max())

    @property
    def center_mean(self) -> float:
        """Mean value of the central ninth of the die."""
        rows, cols = self.values.shape
        r0, r1 = rows // 3, 2 * rows // 3 + 1
        c0, c1 = cols // 3, 2 * cols // 3 + 1
        return float(self.values[r0:r1, c0:c1].mean())

    @property
    def edge_mean(self) -> float:
        """Mean value outside the central ninth."""
        import numpy as np

        rows, cols = self.values.shape
        mask = np.ones_like(self.values, dtype=bool)
        r0, r1 = rows // 3, 2 * rows // 3 + 1
        c0, c1 = cols // 3, 2 * cols // 3 + 1
        mask[r0:r1, c0:c1] = False
        return float(self.values[mask].mean())

    def to_ascii(self) -> str:
        """Render the map as ASCII art (dark = empty, dense = saturated)."""
        lines = [f"{self.label} (peak-normalized)"]
        peak = self.peak or 1.0
        for row in self.values:
            chars = []
            for value in row:
                index = int(round(value / peak * (len(_SHADES) - 1)))
                chars.append(_SHADES[index])
            lines.append("".join(chars))
        return "\n".join(lines)


def _bin_edges(extent: float, bins: int) -> np.ndarray:
    import numpy as np

    return np.linspace(0.0, extent, bins + 1)


def _is_in_tile(placement, x: float, y: float) -> bool:
    """Whether a point falls inside any tile blackbox."""
    half_w = placement.tile_width_um / 2
    half_h = placement.tile_height_um / 2
    for row in range(placement.grid):
        for col in range(placement.grid):
            cx, cy = placement.tile_center(row, col)
            if abs(x - cx) <= half_w and abs(y - cy) <= half_h:
                return True
    return False


def cell_density_map(impl: GroupImplementation, bins: int = 24) -> DensityMap:
    """Rasterize the group-level standard-cell density (Figure 4b).

    Tiles are blackboxes (zero group-level cells); the channels carry the
    interconnect cells and buffers, with the center pockets holding
    :data:`CENTER_POCKET_SHARE` of them.
    """
    if bins < 6:
        raise ValueError("need at least 6 bins for a meaningful map")
    import numpy as np

    placement = impl.placement
    values = np.zeros((bins, bins))
    xs = _bin_edges(placement.width_um, bins)
    ys = _bin_edges(placement.height_um, bins)
    centers_x = (xs[:-1] + xs[1:]) / 2
    centers_y = (ys[:-1] + ys[1:]) / 2

    channel_bins = []
    center_bins = []
    cx0, cy0 = placement.center
    pocket_radius = placement.width_um / 6
    for i, y in enumerate(centers_y):
        for j, x in enumerate(centers_x):
            if _is_in_tile(placement, x, y):
                continue
            if abs(x - cx0) < pocket_radius and abs(y - cy0) < pocket_radius:
                center_bins.append((i, j))
            else:
                channel_bins.append((i, j))

    total_cells = impl.netlist.interconnect_cells.total + impl.buffering.total
    center_cells = total_cells * CENTER_POCKET_SHARE
    edge_cells = total_cells - center_cells
    for i, j in center_bins:
        values[i, j] = center_cells / max(len(center_bins), 1)
    for i, j in channel_bins:
        values[i, j] = edge_cells / max(len(channel_bins), 1)

    peak = values.max() or 1.0
    return DensityMap(values=values / peak, label=f"cell density: {impl.config.name}")


def routing_demand_map(impl: GroupImplementation, bins: int = 24) -> DensityMap:
    """Rasterize routing-track demand (Figure 4a).

    Every tile's boundary bits route towards the center hub; demand in a
    bin is the number of tile-to-hub routes whose bounding box covers it.
    In the 2D flow, routes may pass over tiles (M7/M8); the map includes
    those crossings, matching the over-the-tile routing visible in
    Figure 5a.
    """
    if bins < 6:
        raise ValueError("need at least 6 bins for a meaningful map")
    import numpy as np

    placement = impl.placement
    values = np.zeros((bins, bins))
    xs = _bin_edges(placement.width_um, bins)
    ys = _bin_edges(placement.height_um, bins)
    centers_x = (xs[:-1] + xs[1:]) / 2
    centers_y = (ys[:-1] + ys[1:]) / 2
    hub_x, hub_y = placement.center
    bits_per_tile = impl.netlist.boundary_bits / placement.grid**2

    for row in range(placement.grid):
        for col in range(placement.grid):
            tx, ty = placement.tile_center(row, col)
            x_lo, x_hi = sorted((tx, hub_x))
            y_lo, y_hi = sorted((ty, hub_y))
            for i, y in enumerate(centers_y):
                for j, x in enumerate(centers_x):
                    # L-shaped route: horizontal leg at the tile's y, then
                    # vertical leg at the hub's x.
                    on_h_leg = abs(y - ty) < placement.height_um / bins and x_lo <= x <= x_hi
                    on_v_leg = abs(x - hub_x) < placement.width_um / bins and y_lo <= y <= y_hi
                    if on_h_leg or on_v_leg:
                        values[i, j] += bits_per_tile

    peak = values.max() or 1.0
    return DensityMap(values=values / peak, label=f"routing demand: {impl.config.name}")
