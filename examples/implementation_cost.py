#!/usr/bin/env python3
"""Implementation cost and cluster-level analysis.

The paper observes that the *combined* die area — not the footprint — is
what matters for cost, and that the cluster level should favor 3D even
more than the group level.  This example quantifies both: cost per good
unit (wafer cost, Murphy yield, wafer-to-wafer bonding yield) and the
full 256-core cluster outline.

Run:  python examples/implementation_cost.py
"""

from repro.core.config import CAPACITIES_MIB, Flow, MemPoolConfig
from repro.physical.cluster_level import implement_cluster
from repro.physical.cost import analyze_cost, cost_ratio_3d_over_2d
from repro.physical.flow2d import implement_group_2d
from repro.physical.flow3d import implement_group_3d


def main() -> None:
    print(f"{'cap':>4} {'flow':>4} {'die mm2':>8} {'$/unit':>7} {'yield':>6} "
          f"{'cluster mm2':>12}")
    for cap in CAPACITIES_MIB:
        g2 = implement_group_2d(MemPoolConfig(cap, Flow.FLOW_2D))
        g3 = implement_group_3d(MemPoolConfig(cap, Flow.FLOW_3D))
        for impl in (g2, g3):
            cost = analyze_cost(impl)
            cluster = implement_cluster(impl)
            flow = "3D" if impl.tile.is_3d else "2D"
            print(f"{cap:>3}M {flow:>4} {cost.die_area_mm2:8.1f} "
                  f"{cost.cost_per_good_unit_usd:7.2f} {cost.unit_yield:6.3f} "
                  f"{cluster.footprint_um2 / 1e6:12.1f}")
        ratio = cost_ratio_3d_over_2d(g3, g2)
        print(f"      3D/2D cost ratio: {ratio:.2f} "
              f"(combined-area ratio: {g3.combined_area_um2 / g2.combined_area_um2:.2f})")

    print("\nTakeaways:")
    print("  - 3D silicon costs more per unit (two dies + untested-die bonding),")
    print("    but the overhead tracks the combined-area column of Table II and")
    print("    shrinks as the SPM grows.")
    print("  - The cluster-level footprint ratio is slightly better than the")
    print("    group-level one, as Section V-A anticipates.")


if __name__ == "__main__":
    main()
