"""Smoke tests of the benchmark itself (a few items per workload).

Run from the repository root with ``python3 -m pytest perfbench``; the
repository's own test run does not collect this directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert "digest " in proc.stdout


def test_same_seed_gives_same_outputs():
    digests = []
    for _ in range(2):
        proc = _run("--workload", "grid-sweep", "--seed", "5", "--smoke")
        assert proc.returncode == 0, proc.stderr
        digests.append([ln for ln in proc.stdout.splitlines() if "digest" in ln])
    assert digests[0] == digests[1]


def test_host_factor_is_the_mean_of_the_probes_beside_each_item():
    sys.path.insert(0, str(HERE))
    import bench_host

    ref = bench_host.REFERENCE_PROBE_S
    host = bench_host.HostSpeed()
    host.samples = [ref, 3 * ref, 2 * ref]
    assert host.factors(2) == pytest.approx([2.0, 2.5])
    with pytest.raises(ValueError):
        host.factors(3)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
