"""Machine-speed reference for the benchmark's timings.

On a shared machine the speed of identical work changes by tens of percent
from one minute to the next as neighbouring tenants come and go, and the
change lasts long enough to shift whole runs. The harness therefore times a
fixed reference computation right before and right after every timed
section, and rescales the run's times by the square root of reference
time / median measured time, so that a run reads about as it would on the
reference machine. One sample is too short to judge a pass by (the speed
also swings from second to second), so a run pools every sample it takes.

The reference is a frozen plain-numpy Child-Sum Tree-LSTM forward pass over
fixed random trees: interpreter work and small matrix products, like the
program's hot path. It lives here, not in src/, so no change to the program
can move it. Being all interpreter work, it swings about twice as far as
the workloads, which also spend time in vectorized numpy: in ten-seed runs
of pairs-xproject its speed ranged over 0.90-1.51 while pass wall times
ranged over 7.4-10.3 s. Hence the square root. Over ten seeds per workload
it left 7-17 % quartile spread on the timing metrics, against 9-35 %
unscaled and 6-24 % with the full ratio.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel() time on the reference machine: a 2-core x86-64 VM at
# 2.1 GHz, Python 3.11, numpy 2.4, one OpenBLAS thread.
REFERENCE_S = 0.0714

_RNG = np.random.default_rng(0)
_PARENTS = [[-1] + [int(_RNG.integers(0, i)) for i in range(1, 30)] for _ in range(60)]
_W = _RNG.standard_normal((4, 16, 16)) * 0.3
_U = _RNG.standard_normal((4, 16, 16)) * 0.3
_E = _RNG.standard_normal((40, 16))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def kernel() -> float:
    """Seconds for one forward pass over the fixed trees."""
    t0 = time.perf_counter()
    for parent in _PARENTS:
        n = len(parent)
        children = [[] for _ in range(n)]
        for i in range(1, n):
            children[parent[i]].append(i)
        H, C = np.zeros((n, 16)), np.zeros((n, 16))
        X = _E[[i % 40 for i in range(n)]]
        for i in reversed(range(n)):
            ch = children[i]
            h_sum = H[ch].sum(axis=0) if ch else np.zeros(16)
            i_gate = _sigmoid(_W[0] @ X[i] + _U[0] @ h_sum)
            o_gate = _sigmoid(_W[1] @ X[i] + _U[1] @ h_sum)
            c = i_gate * np.tanh(_W[2] @ X[i] + _U[2] @ h_sum)
            for k in ch:
                c = c + _sigmoid(_W[3] @ X[i] + _U[3] @ H[k]) * C[k]
            C[i] = c
            H[i] = o_gate * np.tanh(c)
    return time.perf_counter() - t0


class Gauge:
    """Kernel timings taken through one run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples += [kernel(), kernel()]

    def speed(self) -> float:
        """The run's speed relative to the reference machine."""
        return (REFERENCE_S / statistics.median(self.samples)) ** 0.5
