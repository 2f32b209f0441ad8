"""Host-speed correction for timings taken on a shared machine.

The speed of a shared host drifts by up to 1.6x for minutes at a time, more
than any bound the benchmark can fix.  So a run interleaves a fixed
pure-Python reference computation (exact ``Fraction`` arithmetic in a dict)
with its jobs and scales every time it reports by

    speed_factor = (REFERENCE_S / median reference time of the run) ** ELASTICITY

The reference reacts about twice as strongly to the host's speed as the
critcenter jobs do: over paired runs on the host that defined the benchmark,
run medians of the jobs moved by about the square root of the reference's
ratio (chain, CLI mix and oper extraction alike), hence ELASTICITY = 0.5.
Raw times are printed beside the corrected ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

ITERATIONS = 10000
# Typical time of reference() on the host that defined the benchmark
# (Intel Xeon at 2.0 GHz, 2 vCPUs, Python 3.11.7), where it read 0.045-0.10 s.
REFERENCE_S = 0.085
ELASTICITY = 0.5


def reference():
    """Seconds taken by a fixed exact-arithmetic computation."""
    start = perf_counter()
    acc = {}
    step = Fraction(1, 3)
    for i in range(ITERATIONS):
        key = (i % 97, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + step * Fraction(i % 7 + 1, i % 5 + 1)
        if not acc[key]:
            del acc[key]
    return perf_counter() - start


def speed_factor(probes):
    """The factor that corrects the times of a run with these probes."""
    return (REFERENCE_S / statistics.median(probes)) ** ELASTICITY


class Clock:
    """Sums the time of timed calls and probes the reference after each."""

    def __init__(self):
        self.elapsed_s = 0.0
        self.probes = []

    def call(self, function, *args):
        start = perf_counter()
        result = function(*args)
        self.elapsed_s += perf_counter() - start
        self.probes.append(reference())
        return result
