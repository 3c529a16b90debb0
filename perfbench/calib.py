"""Scaling of measured times to a reference host speed.

On a shared host the speed of a vCPU steps by up to 1.7x for tens of
seconds to minutes at a time, which no run of reasonable length averages
out.  So every unit times a fixed pure-Python kernel when it starts and
between its operations, and a run scales its measured times by ``REF_S``
over the median kernel time of the run: a slow stretch slows the kernel as
much as the operations, and the scaled times stay put.  The kernel uses
only the standard library, so no change to alliancelib moves it; it runs
with the collector off, so the heap an operation leaves behind does not
move it either.
"""

from __future__ import annotations

import gc
import json
import statistics
from time import perf_counter

REF_S = 0.06  # kernel time at which scaled times equal measured ones
SAMPLES = 3  # kernel passes per calibration


def kernel() -> float:
    """Seconds one pass of the kernel takes.  It mixes what alliancelib
    spends its time on: set churn, string formatting and parsing, JSON and
    sorting (the compilers, writers and parsers), and a recursive search
    over connected vertex sets with frozensets (the solver)."""
    start = perf_counter()
    adj: dict[int, set[int]] = {}
    for i in range(80000):
        adj.setdefault(i % 8000, set()).add((i * 7919) % 8000)
    lines = [f"e {u} {v}" for u, vs in adj.items() for v in sorted(vs)]
    parsed = [tuple(map(int, line.split()[1:])) for line in lines]
    rows = json.loads(json.dumps({"rows": [list(p) for p in parsed]}))["rows"]
    rows.sort(key=lambda r: (r[1], r[0]))
    ring = [frozenset({(v - 1) % 32, (v + 1) % 32, (v + 5) % 32}) for v in range(32)]
    found = [0]

    def grow(members: frozenset[int], ext: frozenset[int], banned: frozenset[int]) -> None:
        found[0] += 1
        if len(members) == 4:
            return
        for u in sorted(ext):
            grown = members | {u}
            grow(grown, (ext | (ring[u] - grown - banned)) - {u}, banned)
            banned = banned | {u}

    for seed in range(32):
        grow(frozenset([seed]), ring[seed] - frozenset(range(seed)), frozenset(range(seed + 1)))
    return perf_counter() - start


class Clock:
    """Kernel times of one unit: SAMPLES passes when the clock starts and
    after every segment of operations lasting at least `segment_s`."""

    def __init__(self, segment_s: float = 0.0) -> None:
        self.segment_s = segment_s
        self.kernel_s: list[float] = []
        self._open = False
        self._calibrate()

    def _calibrate(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.kernel_s += [kernel() for _ in range(SAMPLES)]
        finally:
            if enabled:
                gc.enable()
        self._open = False
        self._since = perf_counter()

    def tick(self) -> None:
        """Count one finished operation; calibrate once the segment is long
        enough."""
        self._open = True
        if perf_counter() - self._since >= self.segment_s:
            self._calibrate()

    def close(self) -> None:
        """Calibrate after the last operation, unless that just happened."""
        if self._open:
            self._calibrate()


def scale(units: list[dict]) -> float:
    """Factor from measured to reference times for a run's units."""
    return REF_S / statistics.median(t for u in units for t in u["kernel_s"])
