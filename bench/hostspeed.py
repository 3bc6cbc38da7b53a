"""Host-speed reference for scaling measured times.

The benchmark host's speed drifts by 20-40 % over tens of seconds while the
guest sees no steal time, so raw wall times of identical runs differ by
more than any useful regression bound.  `sample()` times a fixed
pure-Python workload that shares no code with `sexticlab` (Fraction sums,
big-integer square roots, a bytes popcount and dict updates, the operation
mix of the program's kernels).  Runs sample it between jobs and scale their
times by NOMINAL_S / (median sample of the same pass), which reports each
time at the host speed on which NOMINAL_S was measured.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from time import perf_counter

# Median of sample() on the reference host (2 vCPUs, Python 3.11) in a
# quiet period.  A constant: changing it rescales every reported time.
NOMINAL_S = 0.018


def sample() -> float:
    """Seconds taken by the fixed reference workload (about 20 ms)."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 700):
        acc += Fraction(i * i + 7, i + 3)
    n = 3**300
    for i in range(1, 1600):
        isqrt(n * i)
    bits = bytes(range(256)) * 96
    ones = sum(bin(b).count("1") for b in bits)
    d = {}
    for i in range(16000):
        d[i % 101] = d.get(i % 101, 0) + i * ones
    return perf_counter() - t0
