"""The sweep report reads records without re-keying them.

A report never looks a record up by key, so it must not hash one: the
label comes from the record's job params, and rebuilding a design point
validates one :class:`~repro.api.Scenario` per record and computes no
content key.
"""

import pytest

from repro.api import scenario as scenario_module
from repro.engine import Engine
from repro.sweep import SweepSpec, summarize


@pytest.fixture(scope="module")
def grid_records():
    """The 56-point paper grid's records."""
    spec = SweepSpec(bandwidths=(2, 4, 8, 16, 32, 64, 128))
    records = Engine().run(spec.jobs()).records
    assert len(records) == 56
    return records


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_summarize_builds_no_key(grid_records, monkeypatch):
    digests = _count_calls(monkeypatch, scenario_module._KeyTemplate, "digest")
    builds = _count_calls(monkeypatch, scenario_module.Scenario, "__post_init__")
    report = summarize(grid_records)
    assert "MemPool-3D-1MiB@128B/c" in report  # the grid optimum
    assert digests == []
    assert len(builds) == len(grid_records)  # one Scenario per record
