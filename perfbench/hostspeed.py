"""Host-speed normalization for the benchmark's end-to-end times.

The benchmark host's speed drifts by 10-60% over seconds to minutes
(other tenants share the CPU), which moves every wall time of a run
together.  A short fixed reference computation, interleaved with the
operations, runs at the same drifting host.  Each operation's wall time
is multiplied by (REF_NOMINAL_S / local reference time) ** SENSITIVITY:
times are reported in milliseconds at the nominal speed, at which one
reference unit takes REF_NOMINAL_S.

SENSITIVITY is below 1 because the reference swings more than lgasym
does: its units take either about 1.3 or about 2.3 ms, while the same
analyze call moves by a third as much on a log scale.  It was chosen on
ten seeds per workload (seeds 501-510, --seconds 34, 2-vCPU Xeon VM):
the largest spread across seeds (interquartile range over median) of
latency_ms.p50, latency_ms.tail and ops_per_s was 0.21 with wall times,
0.20 with the full correction, 0.12 with the square root.

The reference is independent of lgasym: a library change does not move
it, so it moves the normalized times by the same fraction as the wall
times.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

_clock = time.perf_counter

# Seconds one reference unit takes at nominal speed: its median on the
# 2-vCPU Xeon VM the baseline was measured on, in a fast period.
REF_NOMINAL_S = 1.2e-3
SENSITIVITY = 0.5
REF_SHARE = 0.05       # reference time owed per second of operations
NEAREST = 31           # reference samples that set the local speed

_XK = np.linspace(-1.0, 1.0, 15)
_WK = np.full(15, 1.0 / 15.0)


def unit():
    """The reference computation: the mix lgasym spends its time in,
    small numpy kernels driven from a Python loop."""
    s = 0.0
    for i in range(400):
        xs = 0.5 + 0.25 * _XK
        ys = np.exp(-xs) * xs
        s += float(np.dot(_WK, ys)) + math.sqrt(i + 1.0) * 1e-9
    return s


class HostSpeed:
    """Reference samples taken between operations, and the normalization
    they give."""

    def __init__(self):
        self.stamps = []       # clock at the end of each reference unit
        self.times = []        # seconds each unit took
        self.owed = 0.0

    def sample(self, count=1):
        for _ in range(count):
            t0 = _clock()
            unit()
            t1 = _clock()
            self.stamps.append(t1)
            self.times.append(t1 - t0)

    def after(self, seconds):
        """Call after an operation that took `seconds`: runs the reference
        units that keep reference time at REF_SHARE of operation time."""
        self.owed += seconds * REF_SHARE
        while self.owed > 0.0:
            t0 = _clock()
            self.sample()
            self.owed -= _clock() - t0

    def scale(self, times):
        """Factor that takes a wall time measured while the reference
        took `times` to nominal speed."""
        return (REF_NOMINAL_S / statistics.median(times)) ** SENSITIVITY

    def scale_at(self, stamp):
        """scale() of the NEAREST reference samples around `stamp`."""
        j = bisect.bisect_left(self.stamps, stamp)
        lo = max(0, min(j - NEAREST // 2, len(self.times) - NEAREST))
        return self.scale(self.times[lo:lo + NEAREST])

    def normalize(self, seconds, stamps):
        return [s * self.scale_at(t) for s, t in zip(seconds, stamps)]
