"""Reference-speed calibration of timings.

The benchmark's host shares its cores: over a few minutes the same code
runs up to a third faster or slower as other tenants come and go, which
no longer run can average away.  A fixed pure-Python workload that does
not touch the package (small frozen objects, tuple-keyed dict traffic,
integer arithmetic, the same kind of work the package does) is timed
between items throughout a run.  Every item time is then expressed in
reference seconds: seconds at the speed where one calibration pass takes
REF_SECONDS.  A slower program still reads slower; a slower host does not.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

clock = time.perf_counter

# scale of a reference second: about one in-run calibration pass on the host
# the benchmark was defined on (2 shared cores, Python 3.11.7)
REF_SECONDS = 0.003


@dataclass(frozen=True)
class _Cell:
    num: int
    exp: int


def calibration_pass() -> int:
    table = {}
    acc = 0
    for i in range(1600):
        key = (i & 31, i % 7)
        cell = table.get(key)
        cell = _Cell(i, i >> 3) if cell is None else _Cell(cell.num + i,
                                                           cell.exp)
        table[key] = cell
        acc ^= max((cell.num << 2) % 11, cell.exp, acc & 1023)
    return acc


class Calibrator:
    """Samples the host's current speed every `every` seconds of a run."""

    def __init__(self, every: float = 0.2, reps: int = 3):
        self.every = every
        self.reps = reps
        self.samples = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Time the calibration pass; returns the sample's index."""
        runs = []
        for _ in range(self.reps):
            t0 = clock()
            calibration_pass()
            runs.append(clock() - t0)
        self.samples.append(statistics.median(runs))
        self._last = clock()
        return len(self.samples) - 1

    def due(self) -> bool:
        return clock() - self._last >= self.every

    def scale(self, i: int) -> float:
        """Factor turning seconds measured between samples i and i + 1
        into reference seconds."""
        return REF_SECONDS / ((self.samples[i] + self.samples[i + 1]) / 2)

    def speed(self) -> float:
        """Host speed relative to the reference host (above 1 is faster)."""
        return REF_SECONDS / statistics.median(self.samples)
