"""Declarative sweep specifications and content-addressed jobs.

A :class:`SweepSpec` names the axes of a design-space sweep — SPM
capacity, implementation flow, off-chip bandwidth, matrix dimension, core
count, phase-model calibration knobs, and workload — and cross-products
them into :class:`Job` records.  A job is a view of one validated
:class:`repro.api.Scenario` plus its :attr:`Job.key` content address,
computed once at construction: the sha256 of the canonical scenario dict
plus the code-model version, which is stable across processes and
sessions — that is what makes the result cache and resumability work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterator, Optional

from ..api.scenario import CODE_MODEL_VERSION, Scenario
from ..core.config import CAPACITIES_MIB, PAPER_MATRIX_DIM, Flow, MemPoolConfig
from ..kernels.phases import DEFAULT_PHASE_PARAMS, PhaseModelParams
from ..kernels.tiling import TilingPlan
from ..simulator.memsys import DDR_CHANNEL_BYTES_PER_CYCLE

__all__ = ["CODE_MODEL_VERSION", "FLOW_VALUES", "Job", "SweepSpec"]

FLOW_VALUES = tuple(f.value for f in Flow)

#: Job field names in constructor and :meth:`Job.params` order.  Each
#: reads the scenario field of the same name, except ``kernel``, which
#: reads ``workload``.
_FIELDS = (
    "capacity_mib", "flow", "bandwidth", "matrix_dim", "num_cores",
    "cpi_mac", "phase_overhead_cycles", "kernel", "tile_size",
    "word_bytes", "target_frequency_mhz", "arch",
)
_read_fields = attrgetter(*("workload" if f == "kernel" else f for f in _FIELDS))


def point_label(params: dict) -> str:
    """The label of :meth:`Job.params` output (a record's ``job``)."""
    return f"MemPool-{params['flow']}-{params['capacity_mib']}MiB@{params['bandwidth']:g}B/c"


@dataclass(frozen=True, init=False)
class Job:
    """One fully-resolved design point to evaluate.

    A job is a view of one validated :class:`~repro.api.Scenario` plus
    its :attr:`key`, computed once at construction for the evaluation
    :attr:`engine` the job is built for (``"fast"`` unless
    :meth:`from_scenario` names another): the
    scenario's :meth:`~repro.api.Scenario.cache_key_for` that engine.
    An :class:`~repro.engine.Engine` re-keys a job built for another
    engine, and matches records to jobs by this key.  Jobs compare and
    hash by key, and pickle without re-validation, so a worker can emit
    failure records for a job it cannot itself validate (e.g. a
    workload registered only in the parent).  The field attributes
    (``capacity_mib`` ... ``arch``, with ``kernel`` for the scenario's
    ``workload``) read through to the scenario.
    """

    _scenario: Scenario = field(compare=False)
    key: str
    engine: str = field(compare=False)

    def __init__(
        self,
        capacity_mib: int,
        flow: str,
        bandwidth: float = DDR_CHANNEL_BYTES_PER_CYCLE,
        matrix_dim: int = PAPER_MATRIX_DIM,
        num_cores: int = DEFAULT_PHASE_PARAMS.num_cores,
        cpi_mac: float = DEFAULT_PHASE_PARAMS.cpi_mac,
        phase_overhead_cycles: float = DEFAULT_PHASE_PARAMS.phase_overhead_cycles,
        kernel: str = "matmul",
        tile_size: Optional[int] = None,
        word_bytes: int = 4,
        target_frequency_mhz: float = 1000.0,
        arch: Optional[dict] = None,
    ) -> None:
        self._adopt(Scenario(
            capacity_mib=capacity_mib, flow=flow, bandwidth=bandwidth,
            matrix_dim=matrix_dim, num_cores=num_cores, cpi_mac=cpi_mac,
            phase_overhead_cycles=phase_overhead_cycles, workload=kernel,
            tile_size=tile_size, word_bytes=word_bytes,
            target_frequency_mhz=target_frequency_mhz, arch=arch,
        ))

    def _adopt(self, scenario: Scenario, engine: str = "fast") -> None:
        object.__setattr__(self, "_scenario", scenario)
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "key", scenario.cache_key_for(engine))

    @classmethod
    def from_scenario(cls, scenario: Scenario, engine: str = "fast") -> "Job":
        """The job evaluating ``scenario`` with evaluation engine
        ``engine``, adopted as is (not rebuilt)."""
        job = cls.__new__(cls)
        job._adopt(scenario, engine)
        return job

    def __getattr__(self, name: str) -> object:
        if name not in _FIELDS:
            raise AttributeError(f"'Job' object has no attribute {name!r}")
        return getattr(self._scenario, "workload" if name == "kernel" else name)

    def scenario(self, objective: Optional[str] = None) -> Scenario:
        """The adopted scenario, or a copy ranked by ``objective``."""
        if objective is None or objective == self._scenario.objective:
            return self._scenario
        return self._scenario.replace(objective=objective)

    def params(self) -> dict[str, object]:
        """The job as a plain dict (field order preserved)."""
        return dict(zip(_FIELDS, _read_fields(self._scenario)))

    @property
    def label(self) -> str:
        """Human-readable point label, e.g. ``MemPool-3D-4MiB@16B/c``."""
        return point_label(self.params())

    def to_config(self) -> MemPoolConfig:
        """The architectural configuration this job evaluates."""
        return self._scenario.to_config()

    def tiling(self) -> TilingPlan:
        """Tiling plan: the paper's for paper points, fitted otherwise."""
        return self._scenario.tiling()

    def phase_params(self) -> PhaseModelParams:
        """Phase-model calibration for this job."""
        return self._scenario.phase_params()

    @classmethod
    def from_params(cls, params: dict[str, object]) -> "Job":
        """Rebuild a job from :meth:`params` output (e.g. a store record)."""
        return cls(**params)


@dataclass(frozen=True)
class SweepSpec:
    """Cross-product specification of a design-space sweep.

    Every axis is a non-empty tuple; :meth:`jobs` yields the full cross
    product in a deterministic order (capacity outermost, kernel
    innermost), so job order — and therefore shard assignment — is
    reproducible.  The ``kernels`` axis accepts any name in the
    ``repro.api`` workload registry, so a workload registered with
    ``@register_workload`` sweeps without core changes.
    """

    capacities_mib: tuple[int, ...] = CAPACITIES_MIB
    flows: tuple[str, ...] = FLOW_VALUES
    bandwidths: tuple[float, ...] = (DDR_CHANNEL_BYTES_PER_CYCLE,)
    matrix_dims: tuple[int, ...] = (PAPER_MATRIX_DIM,)
    core_counts: tuple[int, ...] = (DEFAULT_PHASE_PARAMS.num_cores,)
    cpi_macs: tuple[float, ...] = (DEFAULT_PHASE_PARAMS.cpi_mac,)
    phase_overheads: tuple[float, ...] = (DEFAULT_PHASE_PARAMS.phase_overhead_cycles,)
    kernels: tuple[str, ...] = ("matmul",)

    def __post_init__(self) -> None:
        for f in fields(self):
            values = tuple(getattr(self, f.name))
            if not values:
                raise ValueError(f"axis {f.name} must be non-empty")
            object.__setattr__(self, f.name, values)

    def __len__(self) -> int:
        n = 1
        for f in fields(self):
            n *= len(getattr(self, f.name))
        return n

    def jobs(self) -> Iterator[Job]:
        """Yield every job of the cross product, deterministically ordered."""
        for capacity in self.capacities_mib:
            for flow in self.flows:
                for bandwidth in self.bandwidths:
                    for matrix_dim in self.matrix_dims:
                        for num_cores in self.core_counts:
                            for cpi_mac in self.cpi_macs:
                                for overhead in self.phase_overheads:
                                    for kernel in self.kernels:
                                        yield Job(
                                            capacity_mib=capacity,
                                            flow=flow,
                                            bandwidth=bandwidth,
                                            matrix_dim=matrix_dim,
                                            num_cores=num_cores,
                                            cpi_mac=cpi_mac,
                                            phase_overhead_cycles=overhead,
                                            kernel=kernel,
                                        )

    def to_dict(self) -> dict[str, list]:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {f.name: list(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, list]) -> "SweepSpec":
        """Build a spec from :meth:`to_dict` output.

        Raises:
            ValueError: On unknown axis names.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown sweep axes: {sorted(unknown)}")
        return cls(**{name: tuple(values) for name, values in data.items()})
