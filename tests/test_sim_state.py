"""Pinned full-state fingerprints of simulated runs.

``tests/test_fast_sim.py`` holds the fast engine to the reference, but
both read the same SPM, fabric and core layers, so a layout bug the two
share would still pass there.  These pins hold the state itself: each
case's lines (``tests/sim_state.py``: run totals, core, router, port,
i-cache and bank counters, busy cycles and the ``export_spm()`` bytes,
for the five simulated kernels on both engines) hash to the value the
code gave before the SPM became one structure-of-arrays store.
"""

import hashlib

import pytest

from sim_state import CASES, ENGINES, case_lines

_PINNED = {
    "1MiB-16c":
        "733ee7f5580a8961c457af03c96539482113338dc7ad8f19629937fd85eaf5b7",
    "8MiB-256c":
        "010952a1cbd870be865f3f0eb3d989d5949e06b827a59308c3511fe7e736e8c2",
    "2MiB-bpt8-16c":
        "e2cc0cea25a3827a09d45d702f0ff186ff7e1624d81122b014c5cc14f46d131c",
    "1MiB-16c-twice":
        "09b90615b7e2b339fa7f2d9eb367540d38ac1fcc86d14ba303e77b94ae877623",
}


def test_every_case_is_pinned():
    assert sorted(_PINNED) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_state(case):
    lines = case_lines(case)
    assert len(lines) == 5 * len(ENGINES)
    # both engines leave the same state (the engine name is field 3)
    for reference, fast in zip(lines[::2], lines[1::2]):
        assert reference.split()[2] == "reference"
        assert fast.split()[2] == "fast"
        assert fast.split()[3:] == reference.split()[3:]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == _PINNED[case], "\n".join(lines)
