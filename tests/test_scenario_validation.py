"""Scenario validation, pinned: every rejection's exact message and order,
and the canonical form of every valid spelling.

``Scenario.__post_init__`` normalizes and checks each field; these tests
hold it to the messages callers (the CLI, the service's 4xx answers)
show, to which check wins when several fields are bad, and to the
normalized values and content keys of equivalent spellings.
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import FLOWS, OBJECTIVES, WORKLOADS, Scenario
from repro.core.config import PAPER_MATRIX_DIM, ArchParams


def _listing(registry) -> str:
    return str(sorted(registry.names()))


#: ``(overrides of a valid 1 MiB scenario, exact message)``; a callable
#: message is built at test time, after the registries are seeded.
REJECTIONS = [
    ({"capacity_mib": 0}, "SPM capacity must be positive"),
    ({"capacity_mib": -3}, "SPM capacity must be positive"),
    ({"bandwidth": 0}, "bandwidth must be positive"),
    ({"bandwidth": -1.0}, "bandwidth must be positive"),
    ({"matrix_dim": 0}, "matrix_dim must be positive"),
    ({"word_bytes": 0}, "word_bytes must be positive"),
    ({"num_cores": 0}, "num_cores must be positive"),
    ({"num_cores": -4}, "num_cores must be positive"),
    ({"cpi_mac": 0.0}, "cpi_mac must be positive"),
    ({"phase_overhead_cycles": -1.0},
     "phase_overhead_cycles must be non-negative"),
    ({"target_frequency_mhz": 0}, "target frequency must be positive"),
    ({"tile_size": 0}, "tile_size must be positive"),
    ({"tile_size": -256}, "tile_size must be positive"),
    ({"tile_size": 7}, "tile_size must divide matrix_dim"),
    ({"flow": "2.5D"},
     lambda: f"unknown flow '2.5D'; pick from {_listing(FLOWS)}"),
    ({"workload": "fft"},
     lambda: f"unknown workload 'fft'; pick from {_listing(WORKLOADS)}"),
    ({"objective": "beauty"},
     lambda: f"unknown objective 'beauty'; pick from {_listing(OBJECTIVES)}"),
    ({"arch": [("cores_per_tile", 8)]},
     "arch must be a dict of ArchParams overrides or None"),
    ({"arch": "x"}, "arch must be a dict of ArchParams overrides or None"),
    ({"arch": {"banks_per_tile": 0}}, "banks_per_tile must be positive"),
    ({"arch": {"banks_per_tile": 48}},
     "capacity must divide evenly across SPM banks"),
    # When several fields are bad, the first check in this order wins:
    # signs, arch, tile, flow, workload, objective, bank split.
    ({"capacity_mib": 0, "bandwidth": -1}, "SPM capacity must be positive"),
    ({"bandwidth": 0, "tile_size": 7}, "bandwidth must be positive"),
    ({"arch": "x", "tile_size": 7},
     "arch must be a dict of ArchParams overrides or None"),
    ({"tile_size": 7, "flow": "2.5D"}, "tile_size must divide matrix_dim"),
    ({"flow": "2.5D", "workload": "fft"},
     lambda: f"unknown flow '2.5D'; pick from {_listing(FLOWS)}"),
    ({"flow": "3d", "workload": "fft"},
     lambda: f"unknown workload 'fft'; pick from {_listing(WORKLOADS)}"),
    ({"workload": "fft", "objective": "beauty"},
     lambda: f"unknown workload 'fft'; pick from {_listing(WORKLOADS)}"),
    ({"objective": "beauty", "arch": {"banks_per_tile": 48}},
     lambda: f"unknown objective 'beauty'; pick from {_listing(OBJECTIVES)}"),
]


@pytest.mark.parametrize(
    "overrides, message", REJECTIONS,
    ids=[repr(overrides) for overrides, _ in REJECTIONS],
)
def test_rejection_message(overrides, message):
    if callable(message):
        message = message()
    with pytest.raises(ValueError) as info:
        Scenario(**{"capacity_mib": 1, **overrides})
    assert str(info.value) == message


def test_unknown_arch_field_message():
    # The TypeError text of an unexpected keyword differs across Python
    # versions ("ArchParams.__init__()" since 3.10's qualified names).
    with pytest.raises(ValueError) as info:
        Scenario(capacity_mib=1, arch={"warp_size": 32})
    assert re.fullmatch(
        r"invalid arch overrides: (ArchParams\.)?__init__\(\) got an "
        r"unexpected keyword argument 'warp_size'",
        str(info.value),
    )


@pytest.mark.parametrize("field", ["capacity_mib", "bandwidth", "matrix_dim"])
def test_unconvertible_value_raises_from_the_conversion(field):
    with pytest.raises(ValueError, match="'x'"):
        Scenario(**{"capacity_mib": 1, field: "x"})


# ---------------------------------------------------------------------------
# Equivalent spellings


def _int_spellings(value: int) -> list:
    return [value, float(value)] + ([True] if value == 1 else [])


def _float_spellings(value: float) -> list:
    spellings = [value]
    if value.is_integer():
        spellings.append(int(value))
    if value in (0.0, 1.0):
        spellings.append(bool(value))
    return spellings


_CANONICAL = st.fixed_dictionaries({
    "capacity_mib": st.sampled_from([1, 2, 4, 8]),
    "flow": st.sampled_from(["2D", "3D"]),
    "bandwidth": st.sampled_from([0.5, 1.0, 3.25, 16.0, 128.0]),
    "matrix_dim": st.sampled_from([PAPER_MATRIX_DIM, 4096, 1024, 96]),
    "word_bytes": st.sampled_from([1, 2, 4, 8]),
    "num_cores": st.sampled_from([1, 16, 256]),
    "cpi_mac": st.sampled_from([1.0, 2.5, 3.0]),
    "phase_overhead_cycles": st.sampled_from([0.0, 1.0, 12.5, 50.0]),
    "workload": st.sampled_from(["matmul", "dotp"]),
    "objective": st.sampled_from(["edp", "performance", "footprint"]),
    "target_frequency_mhz": st.sampled_from([1.0, 523.5, 1000.0]),
})

_DEFAULT_ARCH_SPELLINGS = [
    None, {}, {"cores_per_tile": 4}, dataclasses.asdict(ArchParams()),
]


@st.composite
def _spelled(draw):
    """``(canonical scenario, the same point spelled another way)``."""
    values = draw(_CANONICAL)
    canonical = Scenario(**values)
    spelled = {}
    for name, value in values.items():
        if isinstance(value, str):
            spelled[name] = value
        elif isinstance(value, int):
            spelled[name] = draw(st.sampled_from(_int_spellings(value)))
        else:
            spelled[name] = draw(st.sampled_from(_float_spellings(value)))
    spelled["flow"] = draw(st.sampled_from([values["flow"], values["flow"].lower()]))
    spelled["arch"] = draw(st.sampled_from(_DEFAULT_ARCH_SPELLINGS))
    try:
        tile = canonical.tiling().tile_size
    except ValueError:
        tile = None
    if tile is not None:
        spelled["tile_size"] = draw(st.sampled_from([None, tile, float(tile)]))
    return canonical, spelled


@settings(max_examples=150, deadline=None)
@given(_spelled())
def test_every_spelling_is_the_canonical_scenario(pair):
    canonical, spelled = pair
    scenario = Scenario(**spelled)
    assert scenario == canonical
    assert scenario.arch is None and scenario.tile_size is None
    assert scenario.to_dict() == canonical.to_dict()
    assert [type(v) for v in scenario.to_dict().values()] == [
        type(v) for v in canonical.to_dict().values()
    ]
    assert scenario.cache_key == canonical.cache_key
    assert scenario.physical_key == canonical.physical_key
    assert scenario.cycles_key == canonical.cycles_key
    assert Scenario.from_dict(spelled) == canonical
