"""The host's speed at the moment of a measurement, to scale wall times by.

Shared virtual machines switch between a fast and a slow speed: on a 2-core
VM the same operation took 34 ms in some stretches and 63 ms in others,
with CPU time equal to wall time in both. A stretch lasts seconds to minutes,
so a 30-second run's median follows whichever speed held most of it.

A fixed reference loop, timed right before each measured interval, reads the
speed at that moment. The loop's time tracks an interpreter-bound operation's
across both speeds (their ratio stayed within about 10% while the operation
itself moved 1.9x), so ``scaled`` reports a wall time as the time it would
have taken with one reference loop lasting REFERENCE_S. The loop lives in the
benchmark, not in electrovac, so both sides of a comparison run the same one.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 5e-4  # one reference loop at the fast speed of a 2-core VM
REPEATS = 3         # loops per reading; the reading is their median


def _loop() -> float:
    """Scalar Python arithmetic plus small-array numpy calls: the mix of an
    electrovac call on a few hundred points."""
    acc = 0.0
    for i in range(3000):
        acc += math.sqrt(i + 1.0) * 0.5
    a = np.linspace(1.0, 2.0, 384)
    for _ in range(60):
        a = np.sqrt(a * a + 1e-3)
    return acc + float(a.sum())


def reference_time() -> float:
    """Seconds one reference loop takes now."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scaled(wall_s: float, reference_s: float) -> float:
    """wall_s at the speed where one reference loop takes REFERENCE_S."""
    return wall_s * REFERENCE_S / reference_s
