"""Wall time scaled to the machine's speed at the moment it was measured.

The benchmark shares its CPUs with other tenants, whose load changes the
speed of the same code by 20-40% from minute to minute.  A fixed reference
loop, which imports nothing from stabilab and does the same kind of work as
the SGD recursion (minibatch draws from a numpy Generator and small matrix
products driven from Python), is timed before and after every measured
call.  The call's wall time is multiplied by ``REFERENCE_SECONDS`` over the
mean of the reference times just before and just after it, so it reads as
seconds on a machine on which the reference loop takes ``REFERENCE_SECONDS``.
A change to stabilab moves the scaled time as it moves the wall time; a
change of load moves both the call and the reference.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_SECONDS = 0.1
REFERENCE_STEPS = 4000
# reference loops averaged into one sample
SAMPLES_PER_GAP = 3


def reference_loop() -> float:
    """Seconds taken by a fixed minibatch-SGD loop on a 16 x 2 problem."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(7))
    A = rng.standard_normal((16, 2))
    y = rng.standard_normal(16)
    theta = np.zeros(2)
    for _ in range(REFERENCE_STEPS):
        idx = rng.choice(16, size=8, replace=False)
        theta = theta - 0.1 * (A[idx].T @ (A[idx] @ theta - y[idx])) / 8
    if not np.all(np.isfinite(theta)):
        raise ArithmeticError("reference loop diverged")
    return time.perf_counter() - start


class ScaledClock:
    """Times calls in wall seconds and in reference seconds.

    The reference is sampled before and after every call, each time as the
    mean of ``SAMPLES_PER_GAP`` loops: the host also flips between fast and
    slow phases several times a second, which one short loop would catch
    at random.
    """

    def __init__(self):
        self.last = self._sample()
        self.references = [self.last]

    @staticmethod
    def _sample() -> float:
        return statistics.fmean(reference_loop()
                                for _ in range(SAMPLES_PER_GAP))

    def time(self, fn) -> tuple[float, float]:
        """Run fn(); return (wall seconds, reference seconds)."""
        before = self.last
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        self.last = self._sample()
        self.references.append(self.last)
        return wall, wall * REFERENCE_SECONDS / ((before + self.last) / 2)
