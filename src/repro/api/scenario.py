"""The Scenario record: one fully-specified co-exploration point.

A :class:`Scenario` bundles everything the pipeline needs to evaluate a
design point — architectural parameters (SPM capacity, optional
:class:`~repro.core.config.ArchParams` overrides), the implementation
flow, the off-chip memory system, the workload and its blocking, and the
ranking objective — as a frozen, strictly-validated, JSON-round-trippable
dataclass.  Its canonical dict is the unit of serialization everywhere:
sweep cache keys, ``repro run --scenario file.json``, and stored results
all derive from it.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Optional

from ..core.config import (
    ArchParams,
    CAPACITIES_MIB,
    Flow,
    MemPoolConfig,
    PAPER_MATRIX_DIM,
    TILE_SIZE_BY_CAPACITY,
)
from ..kernels.phases import DEFAULT_PHASE_PARAMS, PhaseModelParams
from ..kernels.tiling import TilingPlan, fit_tiling, paper_tiling
from ..simulator.memsys import DDR_CHANNEL_BYTES_PER_CYCLE, OffChipMemory
from .registry import FLOWS, OBJECTIVES, PREDICTORS, WORKLOADS

#: Flow names that map onto the :class:`~repro.core.config.Flow` enum and
#: therefore onto a :class:`MemPoolConfig`.  Custom registered flows build
#: their own implementation from the scenario instead.
_ENUM_FLOWS = tuple(f.value for f in Flow)

_DEFAULT_ARCH = ArchParams()

#: Evaluation engines of a pipeline or an engine: the fast simulator, or
#: the calibrated tier-0 predictions, which fall back to it per
#: scenario.  The reference simulator is bit-identical to the fast one,
#: so it stays a simulator choice (``run_cluster(engine=...)``).
EVALUATION_ENGINES = ("fast", "analytic")

#: Float fields the sign checks cannot bound: NaN compares false with
#: everything, and infinity is positive.
_FINITE_FIELDS = (
    "bandwidth", "cpi_mac", "phase_overhead_cycles", "target_frequency_mhz"
)


def check_engine(engine: str) -> str:
    """``engine``, if it names one of :data:`EVALUATION_ENGINES`.

    Raises:
        ValueError: On any other name.
    """
    if engine not in EVALUATION_ENGINES:
        raise ValueError(
            f"unknown evaluation engine {engine!r}; "
            f"pick from {EVALUATION_ENGINES}"
        )
    return engine


def arch_overrides(arch: ArchParams) -> Optional[dict]:
    """Canonical override dict of ``arch``: non-default fields only.

    Returns ``None`` when ``arch`` equals the defaults, so default
    scenarios serialize (and hash) identically whether or not the caller
    spelled the architecture out.
    """
    overrides = {
        f.name: getattr(arch, f.name)
        for f in fields(ArchParams)
        if getattr(arch, f.name) != getattr(_DEFAULT_ARCH, f.name)
    }
    return overrides or None


@dataclass(frozen=True)
class Scenario:
    """One co-exploration point: architecture x flow x workload x objective.

    Attributes:
        capacity_mib: Total cluster L1 SPM capacity in MiB.
        flow: Registered implementation-flow name (``"2D"``/``"3D"``
            built in; case-insensitive).
        bandwidth: Off-chip bandwidth of the memory system in
            bytes/cycle.
        matrix_dim: Workload problem dimension (matmul matrix edge; the
            element/grid count for the simulator-backed kernels).
        tile_size: Explicit blocking tile edge, or ``None`` to derive it
            (the paper's tile for paper points, the largest fitting tile
            otherwise).
        word_bytes: Workload element size in bytes.
        num_cores: Compute cores participating in the kernel.
        cpi_mac: Phase-model cycles per multiply-accumulate.
        phase_overhead_cycles: Phase-model static cycles per phase pair.
        workload: Registered workload name.
        objective: Registered ranking-objective name.
        arch: Optional :class:`ArchParams` override dict (non-default
            fields only; ``None`` keeps the paper's architecture).
        target_frequency_mhz: Implementation frequency target.
    """

    capacity_mib: int
    flow: str = "2D"
    bandwidth: float = DDR_CHANNEL_BYTES_PER_CYCLE
    matrix_dim: int = PAPER_MATRIX_DIM
    tile_size: Optional[int] = None
    word_bytes: int = 4
    num_cores: int = DEFAULT_PHASE_PARAMS.num_cores
    cpi_mac: float = DEFAULT_PHASE_PARAMS.cpi_mac
    phase_overhead_cycles: float = DEFAULT_PHASE_PARAMS.phase_overhead_cycles
    workload: str = "matmul"
    objective: str = "edp"
    arch: Optional[dict] = None
    target_frequency_mhz: float = 1000.0

    def __post_init__(self) -> None:
        # Normalize types so equal scenarios serialize (and hash) equally.
        object.__setattr__(self, "capacity_mib", int(self.capacity_mib))
        object.__setattr__(self, "flow", str(self.flow))
        object.__setattr__(self, "bandwidth", float(self.bandwidth))
        object.__setattr__(self, "matrix_dim", int(self.matrix_dim))
        object.__setattr__(self, "word_bytes", int(self.word_bytes))
        object.__setattr__(self, "num_cores", int(self.num_cores))
        object.__setattr__(self, "cpi_mac", float(self.cpi_mac))
        object.__setattr__(
            self, "phase_overhead_cycles", float(self.phase_overhead_cycles)
        )
        object.__setattr__(self, "workload", str(self.workload))
        object.__setattr__(self, "objective", str(self.objective))
        object.__setattr__(
            self, "target_frequency_mhz", float(self.target_frequency_mhz)
        )

        for name in _FINITE_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.capacity_mib <= 0:
            raise ValueError("SPM capacity must be positive")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.matrix_dim <= 0:
            raise ValueError("matrix_dim must be positive")
        if self.word_bytes <= 0:
            raise ValueError("word_bytes must be positive")
        if self.num_cores <= 0:
            raise ValueError("num_cores must be positive")
        if self.cpi_mac <= 0:
            raise ValueError("cpi_mac must be positive")
        if self.phase_overhead_cycles < 0:
            raise ValueError("phase_overhead_cycles must be non-negative")
        if self.target_frequency_mhz <= 0:
            raise ValueError("target frequency must be positive")

        if self.arch is not None:
            object.__setattr__(self, "arch", self._canonical_arch(self.arch))
        if self.tile_size is not None:
            tile = int(self.tile_size)
            if tile <= 0:
                raise ValueError("tile_size must be positive")
            if self.matrix_dim % tile:
                raise ValueError("tile_size must divide matrix_dim")
            # Canonicalize an explicit tile that matches the derived one
            # back to None, so "default" scenarios have one spelling.
            try:
                if tile == self._auto_tiling().tile_size:
                    tile = None
            except ValueError:
                pass
            object.__setattr__(self, "tile_size", tile)

        # Canonicalize case only toward a registered name, so the builtin
        # "2d"/"3d" spellings fold to "2D"/"3D" while custom flows keep
        # the exact (possibly lowercase) name they registered under.
        if self.flow not in FLOWS and self.flow.upper() in FLOWS:
            object.__setattr__(self, "flow", self.flow.upper())
        if self.flow not in FLOWS:
            raise ValueError(
                f"unknown flow {self.flow!r}; pick from {sorted(FLOWS.names())}"
            )
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"pick from {sorted(WORKLOADS.names())}"
            )
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; "
                f"pick from {sorted(OBJECTIVES.names())}"
            )
        if self.flow in _ENUM_FLOWS:
            self.to_config()  # surfaces capacity/bank/arch inconsistencies

    def _canonical_arch(self, overrides: object) -> Optional[dict]:
        if not isinstance(overrides, dict):
            raise ValueError("arch must be a dict of ArchParams overrides or None")
        try:
            params = ArchParams(**overrides)
        except TypeError as exc:
            raise ValueError(f"invalid arch overrides: {exc}") from None
        return arch_overrides(params)

    # -- derived objects ---------------------------------------------------
    @property
    def name(self) -> str:
        """Paper-style instance name, e.g. ``"MemPool-3D-4MiB"``."""
        return f"MemPool-{self.flow}-{self.capacity_mib}MiB"

    def arch_params(self) -> ArchParams:
        """The architectural parameters (defaults plus overrides)."""
        return ArchParams(**self.arch) if self.arch else _DEFAULT_ARCH

    def to_config(self, flow: Optional[Flow] = None) -> MemPoolConfig:
        """The :class:`MemPoolConfig` this scenario describes.

        Args:
            flow: Explicit flow enum for custom-named flows whose
                adapters still build a standard MemPool instance.

        Raises:
            ValueError: If the flow name has no enum counterpart and no
                explicit ``flow`` is given.
        """
        if flow is None:
            if self.flow not in _ENUM_FLOWS:
                raise ValueError(
                    f"flow {self.flow!r} has no MemPoolConfig counterpart; "
                    "pass an explicit Flow"
                )
            flow = Flow(self.flow)
        return MemPoolConfig(
            capacity_mib=self.capacity_mib,
            flow=flow,
            arch=self.arch_params(),
            target_frequency_mhz=self.target_frequency_mhz,
        )

    def _auto_tiling(self) -> TilingPlan:
        if (
            self.matrix_dim == PAPER_MATRIX_DIM
            and self.capacity_mib in TILE_SIZE_BY_CAPACITY
            and self.word_bytes == 4
        ):
            return paper_tiling(self.capacity_mib)
        return fit_tiling(
            self.matrix_dim,
            self.capacity_mib * (1 << 20),
            word_bytes=self.word_bytes,
        )

    def tiling(self) -> TilingPlan:
        """Blocking plan: explicit tile, the paper's, or the best fit."""
        if self.tile_size is not None:
            return TilingPlan(
                matrix_dim=self.matrix_dim,
                tile_size=self.tile_size,
                word_bytes=self.word_bytes,
            )
        return self._auto_tiling()

    def phase_params(self) -> PhaseModelParams:
        """Phase-model calibration for this scenario."""
        return PhaseModelParams(
            cpi_mac=self.cpi_mac,
            phase_overhead_cycles=self.phase_overhead_cycles,
            num_cores=self.num_cores,
        )

    def memory(self) -> OffChipMemory:
        """The off-chip memory system."""
        return OffChipMemory(bandwidth_bytes_per_cycle=self.bandwidth)

    def replace(self, **changes) -> "Scenario":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical plain dict (inverse of :meth:`from_dict`)."""
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Build a scenario from :meth:`to_dict` output.

        Raises:
            ValueError: On unknown keys (strict round-trip contract).
        """
        unknown = set(data).difference(_FIELD_NAMES)
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def predicted_by(self, engine: str) -> bool:
        """Whether evaluation engine ``engine`` predicts this scenario's
        cycles: the analytic tier, with a predictor for the workload.

        The engine check runs first, so the fast path never touches
        (and never seeds) the predictor registry.
        """
        return engine == "analytic" and self.workload in PREDICTORS

    def cache_dict(self, engine: str = "fast") -> dict:
        """The evaluation-determining subset of :meth:`to_dict`.

        The objective only ranks results — it never changes the metrics —
        so it stays out of cache keys: one evaluation serves every
        objective.

        When ``engine`` predicts this scenario (:meth:`predicted_by`),
        the dict gains an ``evaluation_tier`` marker: tier-0 predictions
        are approximations with a declared error bound, so they must
        never share content addresses (record cache, stage memos) with
        simulated results.  Without it the dict is byte-identical to
        previous versions.
        """
        data = self.to_dict()
        del data["objective"]
        if self.predicted_by(engine):
            data["evaluation_tier"] = "analytic"
        return data

    def physical_dict(self) -> dict:
        """The fields the physical ``implement()`` stage depends on.

        Flow adapters see only the instance they implement — capacity,
        architecture, flow, and the frequency target — so two scenarios
        that agree here share one physical implementation no matter which
        workload, tiling, bandwidth, or objective they evaluate.  Flow
        plugins must honour this contract (read nothing else from the
        scenario) to be stage-cacheable.
        """
        return {
            "flow": self.flow,
            "capacity_mib": self.capacity_mib,
            "arch": self.arch,
            "target_frequency_mhz": self.target_frequency_mhz,
        }

    def cycles_dict(self, engine: str = "fast") -> dict:
        """The fields the workload ``cycles()`` stage depends on.

        Everything the kernel models read — problem size, tiling, core
        count, calibration, bandwidth, capacity, and architecture — but
        not the flow or the frequency target, which only affect the
        physical stage: cycle counts are shared across flow and
        frequency variants.  Workload plugins must honour this contract
        (read nothing else from the scenario) to be stage-cacheable.
        """
        data = self.cache_dict(engine)
        del data["flow"]
        del data["target_frequency_mhz"]
        return data

    @property
    def cache_key(self) -> str:
        """Content address of the simulated evaluation: sha256 of the
        canonical evaluation dict."""
        return _CACHE_KEY.digest(self)

    @property
    def physical_key(self) -> str:
        """Content address of the physical stage (see :meth:`physical_dict`)."""
        return _PHYSICAL_KEY.digest(self)

    @property
    def cycles_key(self) -> str:
        """Content address of the simulated workload stage (see
        :meth:`cycles_dict`)."""
        return _CYCLES_KEY.digest(self)

    def cache_key_for(self, engine: str) -> str:
        """:attr:`cache_key` of the evaluation by ``engine``."""
        if self.predicted_by(engine):
            return _CACHE_KEY.digest(self, True)
        return self.cache_key

    def cycles_key_for(self, engine: str) -> str:
        """:attr:`cycles_key` of the evaluation by ``engine``."""
        if self.predicted_by(engine):
            return _CYCLES_KEY.digest(self, True)
        return self.cycles_key


#: Scenario field names in declaration (and :meth:`Scenario.to_dict`) order.
_FIELD_NAMES = tuple(f.name for f in fields(Scenario))


def scenario_schema() -> dict[str, str]:
    """Field name -> annotated type of the canonical scenario schema."""
    return {f.name: str(f.type) for f in fields(Scenario)}


def _schema_digest() -> str:
    blob = json.dumps(scenario_schema(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


#: Version of the evaluation models baked into sweep cache keys.  The
#: major number is bumped by hand when model arithmetic changes; the
#: suffix is derived from the scenario schema itself, so any change to
#: the job/scenario encoding (added fields, renames, type changes)
#: automatically invalidates cache entries written under the old
#: encoding instead of silently reusing them.
CODE_MODEL_VERSION = f"2.{_schema_digest()}"

#: The encoder of every key, for the values with no fast path below.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: What :data:`_ENCODER` writes for each exact type a key field holds.
#: Validation leaves only finite floats, which it writes as their repr.
_ENCODE = {
    float: float.__repr__,
    int: int.__repr__,
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
}

#: A template slot: the JSON of the placeholder ``"\0" + field name``.
_SLOT = re.compile(r'"\\u0000(\w*)"')


class _KeyTemplate:
    """A content key: sha256 of the canonical JSON of its payload,
    ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``.

    ``payload(version, view)`` wraps one of the scenario's dict views.
    The bytes are written by filling a template, so no dict is built
    and no ``json.dumps`` runs per key.  The template is that JSON with
    a ``%s`` slot for the version and for each scenario field of the
    view; anything else in the view (the ``evaluation_tier`` marker
    :meth:`Scenario.cache_dict` adds when the analytic tier predicts the
    workload) is kept as written.  It is derived from the view itself,
    on first use for each tier (``predicted`` false or true), so a field
    added to a view reaches its key with no edit here.
    """

    def __init__(self, view, payload) -> None:
        self.view = view
        self.payload = payload
        self.forms = [None, None]  # (template, field getter) per tier

    def digest(self, scenario: Scenario, predicted: bool = False) -> str:
        template, getter = (
            self.forms[predicted] or self._derive(scenario, predicted)
        )
        get, other = _ENCODE.get, _ENCODER.encode
        blob = template % (
            encode_basestring_ascii(CODE_MODEL_VERSION),
            *[get(type(value), other)(value) for value in getter(scenario)],
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _derive(self, scenario: Scenario, predicted: bool) -> tuple:
        # Only the two views that take an engine are derived predicted.
        engine = ("analytic",) if predicted else ()
        view = {
            name: "\0" + name if name in _FIELD_NAMES else value
            for name, value in self.view(scenario, *engine).items()
        }
        blob = json.dumps(
            self.payload("\0", view), sort_keys=True, separators=(",", ":")
        ).replace("%", "%%")
        # "model_version" sorts first in every payload: the version's
        # empty-named slot comes first.
        names = _SLOT.findall(blob)[1:]
        form = self.forms[predicted] = (
            _SLOT.sub("%s", blob), attrgetter(*names)
        )
        return form


_CACHE_KEY = _KeyTemplate(
    Scenario.cache_dict,
    lambda version, view: {"model_version": version, "scenario": view},
)
_PHYSICAL_KEY = _KeyTemplate(
    Scenario.physical_dict,
    lambda version, view: {
        "model_version": version, "stage": "physical", "params": view,
    },
)
_CYCLES_KEY = _KeyTemplate(
    Scenario.cycles_dict,
    lambda version, view: {
        "model_version": version, "stage": "cycles", "params": view,
    },
)


def paper_scenarios(
    bandwidth: float = DDR_CHANNEL_BYTES_PER_CYCLE, **overrides
) -> tuple[Scenario, ...]:
    """The paper's eight configurations as scenarios, Table II order.

    Extra keyword arguments are forwarded to every :class:`Scenario`
    (e.g. ``objective="performance"`` or phase-model overrides).
    """
    return tuple(
        Scenario(capacity_mib=cap, flow=flow, bandwidth=bandwidth, **overrides)
        for cap in CAPACITIES_MIB
        for flow in ("2D", "3D")
    )
