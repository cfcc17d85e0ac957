"""Cold start: a process imports only the modules its requests use.

The package ``__init__`` modules resolve their exports on first use
(PEP 562, ``repro._lazy``), and numpy loads only inside the functions
that build arrays.  So the closed-form matmul path of the paper's
design-space grid never loads numpy, the cycle-level simulator or the
HTML report.  Each stage below runs in one fresh interpreter, so the
test process's own imports do not leak in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Loaded by none of the stages before the simulated point.
HEAVY = (
    "numpy",
    "repro.simulator.fast",
    "repro.obs.report",
    "repro.kernels.blocked",
    "repro.kernels.matmul",
    "repro.kernels.transforms",
)

#: Not loaded by ``import repro, repro.api, repro.engine`` either.
NOT_AT_IMPORT = HEAVY + (
    "repro.simulator.engine",
    "repro.arch.cluster",
    "repro.sweep.executor",
)

_SCRIPT = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("repro"))

stages = {}
import repro
stages["import repro"] = loaded()
import repro.api, repro.engine
stages["import repro.api, repro.engine"] = loaded()
from repro.api import Scenario
from repro.engine import Engine
grid = [Scenario(capacity_mib=c, flow=f, bandwidth=b)
        for c in (1, 2, 4, 8) for f in ("2D", "3D")
        for b in (2, 4, 8, 16, 32, 64, 128)]
outcome = Engine().run(grid)
stages["paper grid"] = loaded()
stages["paper grid status"] = sorted({r["status"] for r in outcome.records})
dotp = Engine().run([Scenario(capacity_mib=1, workload="dotp",
                              matrix_dim=256, num_cores=16)])
stages["dotp"] = loaded()
stages["dotp status"] = [r["status"] for r in dotp.records]
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages() -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout)


def test_import_repro_loads_no_numpy(stages):
    assert "numpy" not in stages["import repro"]
    assert stages["import repro"] == ["repro", "repro._lazy"]


def test_import_surface_loads_no_simulator(stages):
    loaded = set(stages["import repro.api, repro.engine"])
    assert loaded.isdisjoint(NOT_AT_IMPORT), sorted(loaded & set(NOT_AT_IMPORT))


def test_paper_grid_stays_off_numpy_and_the_simulator(stages):
    assert stages["paper grid status"] == ["ok"]
    loaded = set(stages["paper grid"])
    assert loaded.isdisjoint(HEAVY), sorted(loaded & set(HEAVY))


def test_simulated_point_imports_numpy_on_first_use(stages):
    assert stages["dotp status"] == ["ok"]
    assert "numpy" in stages["dotp"]
    assert "repro.simulator.fast" in stages["dotp"]


def test_obs_exports_resolve():
    import repro.obs

    assert repro.obs.__all__
    for name in repro.obs.__all__:
        assert getattr(repro.obs, name, None) is not None, f"repro.obs.{name}"
    assert repro.obs.trace.__name__ == "repro.obs.trace"
