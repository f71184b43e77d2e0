"""Machine-speed calibration for timings on a shared, noisy host.

On a host shared with other tenants, the speed of pure-Python code drifts
by tens of percent over periods of 10-30 s, which is as long as a whole
run.  The benchmark therefore times a fixed pure-Python kernel (complex
arithmetic, like the library's series loops) between ops, outside every
op's clock, and scales each timing by NOMINAL_MS / (kernel time nearby).
Scaled timings read as if the host ran the kernel in NOMINAL_MS; raw
timings are printed alongside.  NOMINAL_MS is part of the benchmark's
definition: changing it rescales every timing.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_MS = 0.25
INTERVAL_S = 0.25   # calibrate after at least this much op time
WINDOW_S = 1.0      # an op uses the calibrations within this distance
REPEATS = 5


def _kernel() -> complex:
    z, c, t = 0.71 + 0.29j, 0.1 - 0.05j, 0j
    for k in range(1, 2000):
        t = t * z + c / k
    return t


def sample_ms() -> float:
    """Fastest of REPEATS kernel runs, in ms (the fastest drops interrupts)."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


class Calibration:
    """Kernel timings taken at positions along a run's op clock."""

    def __init__(self):
        self.at: list = []
        self.ms: list = []

    def take(self, position_s: float) -> None:
        self.at.append(position_s)
        self.ms.append(sample_ms())

    def due(self, position_s: float) -> bool:
        return not self.at or position_s - self.at[-1] >= INTERVAL_S

    def factor(self, position_s: float) -> float:
        """NOMINAL_MS over the median kernel time within WINDOW_S of the position."""
        lo = bisect.bisect_left(self.at, position_s - WINDOW_S)
        hi = bisect.bisect_right(self.at, position_s + WINDOW_S)
        if lo == hi:  # no calibration that close: use the nearest one
            i = min(range(len(self.at)), key=lambda j: abs(self.at[j] - position_s))
            lo, hi = i, i + 1
        return NOMINAL_MS / statistics.median(self.ms[lo:hi])

    def scale(self, records) -> None:
        """Add ``scaled_ms`` to op records that carry ``ms`` and their end position ``at``."""
        for rec in records:
            rec["scaled_ms"] = rec["ms"] * self.factor(rec["at"])
