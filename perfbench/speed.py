"""Machine-speed sampling, so that timings are comparable across runs.

On a shared virtual machine the speed of the same code flips between a fast
and a slow state, about 1.6x apart, on a scale of seconds, with no steal
time shown inside the guest; CPU time moves with wall time. A unit's seconds
then depend on when it ran as much as on the code. A probe run between units
misses flips inside a unit, so the sampler measures speed while the unit
runs: a profiling timer interrupts the process every `PERIOD_S` of CPU time,
and the handler times two short kernels that never call odmts, a pure-Python
loop (the core's speed) and a numpy gather of scattered elements from a
16 MB array (the memory system's). The handler runs in the main thread
between bytecodes, so a long call into HiGHS or numpy is sampled when it
returns.

A stretch of wall time is converted to seconds at reference speed by taking
off the time spent in the handler and dividing by the stretch's slowdown:
the geometric mean over the two kernels of the median time of the samples
taken in it over the kernel's reference time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Seconds per kernel call on a 2-core x86_64 virtual machine (Python 3.11.7,
# numpy 2.4.6) in its fast state; 1.0 slowdown means that speed.
LOOP_REFERENCE_S = 0.00035
GATHER_REFERENCE_S = 0.00011


def _loop() -> None:
    s = 0
    for j in range(10_000):
        s += j


class Sampler:
    def __init__(self) -> None:
        self._array = np.random.default_rng(0).random(2_000_000)
        self._index = np.random.default_rng(1).integers(0, len(self._array), 5_000)
        self.loop_s: list[float] = []
        self.gather_s: list[float] = []
        self.busy_s: list[float] = []

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        self._array[self._index].sum()
        t2 = time.perf_counter()
        self.loop_s.append(t1 - t0)
        self.gather_s.append(t2 - t1)
        self.busy_s.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def count(self) -> int:
        return len(self.busy_s)

    def slowdown(self, first: int = 0, last: int | None = None) -> float:
        """Slowdown shown by samples first..last; by the whole run's samples
        when the stretch holds none."""
        if not self.busy_s:
            return 1.0
        if last is None:
            last = len(self.busy_s)
        if first >= last:
            first, last = 0, len(self.busy_s)
        loop = statistics.median(self.loop_s[first:last]) / LOOP_REFERENCE_S
        gather = statistics.median(self.gather_s[first:last]) / GATHER_REFERENCE_S
        return math.sqrt(loop * gather)

    def at_reference_speed(self, wall_s: float, first: int, last: int) -> float:
        """Wall seconds of a stretch during which samples first..last were
        taken, at reference speed."""
        busy = sum(self.busy_s[first:last])
        return (wall_s - busy) / self.slowdown(first, last)
