"""Speed of the host, measured with a fixed kernel of the benchmark's own.

The host this benchmark was built on is shared, and its speed drifts by
tens of percent within minutes; back-to-back runs of one task differ by up
to 20 %.  A run therefore samples a fixed pure-Python kernel (GF(2)
homology, Bareiss determinants and small maximal-minor gcds, the kind of
integer work the program does) between tasks, about once a second.  It
scales the time of each task by ``REFERENCE_S / median sample`` over the
samples around it.  Reported times are thus seconds at the host speed at
which the kernel takes ``REFERENCE_S``.  The kernel shares no code with
``momentangle``, so a change to the program moves the scaled times in the
same proportion as the wall times.
"""

from __future__ import annotations

import random
import statistics
import time

import oracle
import workloads

# About the median kernel time on the reference host (2-vCPU Xeon VM,
# CPython 3.11.7).  It only fixes the unit; any constant would do, but a
# later change must not alter it, nor the kernel.
REFERENCE_S = 0.036
INTERVAL_S = 1.0
REPEATS = 3
WINDOW_S = 5.0

_rng = random.Random(20211012)
_FACETS = workloads.gale_facets(6, 11)
_SQUARE = [[_rng.randint(-9, 9) for _ in range(20)] for _ in range(20)]
_SMALL = [[[_rng.randint(-1, 1) for _ in range(9)] for _ in range(3)]
          for _ in range(300)]


def kernel():
    for _ in range(4):
        oracle.reduced_mod2_homology(_FACETS)
    for _ in range(10):
        oracle.det(_SQUARE)
    for M in _SMALL:
        oracle.maximal_minor_gcd(M)


class Calibration:
    """Kernel samples of one run, as (end time, seconds) pairs."""

    def __init__(self):
        self.samples = []

    def sample(self):
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.samples.append((end, end - t0))

    def maybe_sample(self):
        """Sample if the last sample is more than INTERVAL_S old."""
        if (not self.samples
                or time.perf_counter() - self.samples[-1][0] > INTERVAL_S):
            self.sample()

    def scaled(self, start, seconds):
        """Seconds measured from ``start``, at the reference host speed.

        The speed is the median of the samples that ended within WINDOW_S
        of the measured interval, so a task is scaled by the speed of the
        host around it.
        """
        near = [d for t, d in self.samples
                if start - WINDOW_S <= t <= start + seconds + WINDOW_S]
        return seconds * REFERENCE_S / statistics.median(
            near or [d for _, d in self.samples])
