"""The 2D/3D flow plugins share each group layout across frequency targets.

Only the signoff slack population reads the target, so within a process
a (flow, capacity, arch) layout is implemented once and a new target
recomputes only TNS and the failing paths
(:func:`repro.physical.flowbase.signoff_group`).  Every result must
still equal a fresh ``implement_group_*``, byte for byte, and every
physical stage line must keep the bytes existing stage memos hold.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Pipeline, Scenario
from repro.core.config import paper_configurations
from repro.engine.cache import StageCache
from repro.physical import flowbase
from repro.physical.flow2d import implement_group_2d
from repro.physical.flow3d import implement_group_3d
from repro.sweep.cache import encode_line

IMPLEMENT = {"2D": implement_group_2d, "3D": implement_group_3d}

ARCHS = [None, {"banks_per_tile": 8}, {"banks_per_tile": 32},
         {"core_kge": 75.0}, {"cores_per_tile": 8},
         {"icache_bytes_per_tile": 4096}]

LAYOUTS = st.tuples(st.sampled_from(sorted(IMPLEMENT)),
                    st.sampled_from([1, 2, 4, 8, 16]),
                    st.sampled_from(ARCHS))


def _line(result) -> bytes:
    return encode_line(dataclasses.asdict(result))


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(
        # A target below the achieved frequency (over_target is 0) and
        # one above it (over_target > 0) for every layout.
        st.tuples(LAYOUTS, st.floats(0.1, 0.99), st.floats(1.01, 10.0)),
        min_size=1, max_size=4,
    ),
    order=st.randoms(use_true_random=False),
)
def test_plugin_equals_a_fresh_implementation(points, order):
    flowbase._layout.cache_clear()
    scenarios = []
    for (flow, capacity, arch), below, above in points:
        base = Scenario(capacity_mib=capacity, flow=flow, arch=arch)
        achieved = IMPLEMENT[flow](base.to_config()).timing.frequency_mhz
        scenarios += [
            dataclasses.replace(base, target_frequency_mhz=achieved * factor)
            for factor in (below, above)
        ]
    order.shuffle(scenarios)
    pipeline = Pipeline()
    for scenario in scenarios + scenarios:  # cold first calls, then warm
        expected = IMPLEMENT[scenario.flow](scenario.to_config())
        assert _line(pipeline.implement(scenario)) == _line(
            expected.to_group_result()
        )
    distinct = {(f, c, repr(a)) for (f, c, a), _, _ in points}
    assert flowbase._layout.cache_info().currsize == len(distinct)


#: sha256 of ``stages.jsonl`` after the physical stage of the paper's
#: eight configurations (Table II order) at one target: existing stage
#: memos keep serving only while these bytes hold.
_PINNED_PHYSICAL_LINES = {
    250.0: "4c3c399674ce2a268e9b3586e14cee524a83b84db0e1e95a688a0df69fbd8b74",
    523.5: "51e7375c5894d9250e45a31f66671531fae3c5888141251488489da3547b5521",
    1000.0: "515d93dcafbbacf9b2207fa5fd90e7b4389092a345f08f2acca70e821e2effa7",
}


@pytest.mark.parametrize("target", sorted(_PINNED_PHYSICAL_LINES))
def test_pinned_physical_lines(tmp_path, target):
    flowbase._layout.cache_clear()
    for memo in ("cold", "warm"):
        cache = StageCache(tmp_path / memo)
        for config in paper_configurations():
            Pipeline(stage_cache=cache).implement(Scenario(
                capacity_mib=config.capacity_mib, flow=config.flow.value,
                target_frequency_mhz=target,
            ))
        data = (tmp_path / memo / StageCache.FILENAME).read_bytes()
        assert data.count(b"\n") == 8
        assert hashlib.sha256(data).hexdigest() == (
            _PINNED_PHYSICAL_LINES[target]
        ), memo


def test_memo_holds_at_most_its_bound():
    flowbase._layout.cache_clear()
    pipeline = Pipeline()
    for i in range(flowbase.LAYOUT_MEMO_SIZE + 20):
        pipeline.implement(Scenario(capacity_mib=1, flow="3D",
                                    arch={"core_kge": 40.0 + i / 8}))
    info = flowbase._layout.cache_info()
    assert info.maxsize == flowbase.LAYOUT_MEMO_SIZE
    assert info.currsize == flowbase.LAYOUT_MEMO_SIZE
