"""Full-state fingerprints of simulated clusters, one line per run.

Each line names a case and an engine and hashes everything the run left
on its cluster: cycles, instructions and barrier episodes, every core's
stats, the router's counters and remote-port claims, every tile's port
counters and i-cache state, every bank's counters and busy cycle, and
the bytes of ``export_spm()``.  The cases cover the five simulated
kernels at 1 and 8 MiB, on 16 and 256 cores, on a ``banks_per_tile: 8``
architecture, and a second run on a cluster the first run left behind.

``tests/test_sim_state.py`` pins the lines by their sha256.  Run as a
script, the module prints them, so the lines of two source trees can be
diffed (the ``cache-compat`` CI job does this against the base commit)::

    PYTHONPATH=src python tests/sim_state.py
"""

from __future__ import annotations

import hashlib
import json

from repro.core.config import ArchParams, Flow, MemPoolConfig
from repro.kernels.workloads import (
    prepare_axpy,
    prepare_conv2d,
    prepare_dotp,
    prepare_matvec,
    prepare_stencil5,
)
from repro.simulator.engine import run_cluster

ENGINES = ("reference", "fast")

#: ``kernel -> prepare(config, size, cores)``; ``size`` is the element
#: count of the 1D kernels and the edge of the 2D kernels' square grid.
PREPARERS = {
    "dotp": lambda config, n, cores: prepare_dotp(config, n, cores),
    "axpy": lambda config, n, cores: prepare_axpy(config, n, cores),
    "conv2d": lambda config, n, cores: prepare_conv2d(config, n, n, cores),
    "matvec": lambda config, n, cores: prepare_matvec(config, n, n, cores),
    "stencil5": lambda config, n, cores: prepare_stencil5(config, n, n, cores),
}

#: ``kernel -> problem size``: the element count of the 1D kernels and
#: the edge of the 2D kernels' square grid.  In ``LARGE`` the dotp, axpy
#: and matvec operands pass 1,024 words, so they reach bank offsets
#: beyond 0; ``WIDE`` gives 256 cores large 1D kernels, but small 2D
#: grids, since the reference engine steps every waiting core.
SMALL = {"dotp": 320, "axpy": 320, "conv2d": 10, "matvec": 18, "stencil5": 12}
LARGE = {"dotp": 640, "axpy": 640, "conv2d": 20, "matvec": 36, "stencil5": 24}
WIDE = {**SMALL, "dotp": 1280, "axpy": 1280}

#: ``case -> (capacity MiB, arch overrides, cores, sizes, runs on one
#: cluster)``.
CASES = {
    "1MiB-16c": (1, {}, 16, LARGE, 1),
    "8MiB-256c": (8, {}, 256, WIDE, 1),
    "2MiB-bpt8-16c": (2, {"banks_per_tile": 8}, 16, LARGE, 1),
    "1MiB-16c-twice": (1, {}, 16, SMALL, 2),
}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cluster_state(cluster, result) -> str:
    """The line body: run totals plus digests of the cluster state."""
    port_cycle, port_use = cluster.router.export_port_state()
    state = {
        "cores": [vars(core.stats) for core in cluster.cores],
        "router": vars(cluster.router.stats),
        "port_claims": [port_cycle, sorted(port_use.items())],
        "tile_ports": [vars(tile.port_stats) for tile in cluster.tiles],
        "icaches": [tile.icache.export_state() for tile in cluster.tiles],
    }
    banks = [
        [vars(bank.stats), bank.busy_cycle]
        for tile in cluster.tiles
        for bank in tile.spm.banks
    ]
    spm = hashlib.sha256(cluster.export_spm().tobytes()).hexdigest()[:16]
    return (
        f"cycles={result.cycles} instructions={result.instructions} "
        f"episodes={result.barrier_episodes} state={_digest(state)} "
        f"banks={_digest(banks)} spm={spm}"
    )


def case_lines(case: str) -> list[str]:
    """One line per (kernel, engine) of ``case``, engines in
    :data:`ENGINES` order."""
    capacity, arch, cores, sizes, runs = CASES[case]
    config = MemPoolConfig(
        capacity_mib=capacity, flow=Flow.FLOW_3D, arch=ArchParams(**arch)
    )
    lines = []
    for kernel, prepare in PREPARERS.items():
        for engine in ENGINES:
            cluster, _finish = prepare(config, sizes[kernel], cores)
            program = cluster.cores[0].program
            for run in range(runs):
                if run:
                    cluster.load_program(program, num_cores=cores)
                result = run_cluster(cluster, engine=engine)
            lines.append(
                f"{case} {kernel} {engine} {cluster_state(cluster, result)}"
            )
    return lines


def main() -> None:
    for case in CASES:
        for line in case_lines(case):
            print(line)


if __name__ == "__main__":
    main()
