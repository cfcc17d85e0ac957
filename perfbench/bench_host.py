"""Host-speed probe: a fixed pure-Python snippet timed between items.

On a shared host the CPU the benchmark runs on switches, every few
milliseconds, between its full speed and a mode in which the same code
takes up to about 1.9 times as long (another tenant on the same core),
while CPU steal stays near zero.  The share of time spent in the slow
mode changes from second to second and from run to run, so raw host
times of the same items spread by a quarter between runs.

The probe times a snippet that exercises the interpreter the way the
workloads do (dict and attribute access, calls, small allocations,
string building) and that does not depend on the program under test.
A probe runs before every item and after the last one; an item's
*host factor* is the mean of the probes on either side of it divided by
``REFERENCE_PROBE_S``, and its *normalized* latency is its host time
divided by that factor to the workload's ``host_exponent`` (the slow
mode slows this small probe more than it slows the workloads).  A
program change moves normalized times as it moves host times; only the
host's speed is divided out.
"""

from __future__ import annotations

import statistics
import time

#: Seconds one probe takes on the reference host (a 2-vCPU shared VM,
#: Python 3.11) at full speed: the low end of its probe times.
REFERENCE_PROBE_S = 0.000200
PROBE_ROUNDS = 300


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def _snippet(rounds: int = PROBE_ROUNDS) -> int:
    table: dict = {}
    total = 0
    for i in range(rounds):
        p = _Point(i, i & 15)
        key = f"k{p.y}"
        table[key] = table.get(key, 0) + p.x
        total += len(key) + sum((p.x, p.y, 1))
    return total + len(table)


class HostSpeed:
    """Probe times taken between the items of one timed pass."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        _snippet()  # warm-up: the first call is not representative

    def probe(self) -> None:
        t = time.perf_counter()
        _snippet()
        self.samples.append(time.perf_counter() - t)

    def factors(self, items: int) -> list[float]:
        """Per-item host factor, from the probes before and after it."""
        s = self.samples
        if len(s) != items + 1:
            raise ValueError(f"{len(s)} probes for {items} items; "
                             "need one before each item and one after the last")
        return [(s[i] + s[i + 1]) / (2 * REFERENCE_PROBE_S) for i in range(items)]

    def summary(self) -> str:
        s = sorted(self.samples)
        return (f"host probe: {len(s)} probes, median "
                f"{1e3 * statistics.median(s):.4f} ms, 2nd percentile "
                f"{1e3 * s[len(s) // 50]:.4f} ms, reference "
                f"{1e3 * REFERENCE_PROBE_S:.4f} ms")
