"""Shared benchmark plumbing: where the BENCH_*.json artifacts go.

The emitters write their stamped artifact only when ``REPRO_BENCH_OUT``
names a directory (the CI benchmark jobs set it to the checkout root);
otherwise, as in every tier-1 run, the figures are printed and nothing
tracked is rewritten.
"""

import json
import os
from pathlib import Path

import pytest

#: Environment variable naming the artifact directory.
BENCH_OUT_ENV = "REPRO_BENCH_OUT"


@pytest.fixture(scope="session")
def write_bench():
    """``write_bench(name, payload)``: write one artifact, if asked to."""

    def write(name: str, payload: dict) -> None:
        out = os.environ.get(BENCH_OUT_ENV)
        if not out:
            return
        directory = Path(out)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    return write
