"""Host-speed reference: a fixed kernel, timed between ops, that scales op times.

The benchmark runs on a few cores of a shared host whose speed swings by up to
1.6x from one second to the next and drifts over minutes; CPU time follows
wall time, so the swings are contention for the hardware, not descheduling.
A run therefore also times a fixed kernel that does not touch the library,
in chunks taken right after each op, and reports its timings scaled by

    factor = REFERENCE_CHUNK_S / median(chunk times of the run)

that is, as they would read on a host where one chunk takes REFERENCE_CHUNK_S.
The kernel mixes the kinds of work an op does (Fraction arithmetic, a Python
float loop, numpy array arithmetic and a small scipy tridiagonal eigensolve),
so that a slow period slows it in the same proportion as the ops. On the host
the benchmark was written on (2 cores of an Intel Xeon KVM guest at 2.1 GHz),
over ten 30-second runs of each workload with different seeds, scaling cut the
spread (interquartile range over median) of the op timings from 0.05-0.19
unscaled to 0.03-0.07, and that of set-up time from 0.10-0.28 to 0.05-0.10.
A change to the library cannot move the factor; a change to numpy, scipy or
Python can.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np
from scipy.linalg import eigh_tridiagonal

# Median chunk time on a 2-core Intel Xeon KVM guest at 2.1 GHz, Python 3.11,
# numpy 2.4, scipy 1.17. It only sets the scale of the reported times.
REFERENCE_CHUNK_S = 0.8e-3

_DIAG = np.linspace(1.0, 2.0, 300)
_OFFDIAG = np.full(299, -0.5)
_GRID = np.linspace(0.0, 3.0, 4000)


def kernel_chunk() -> None:
    """One chunk of the reference kernel, about REFERENCE_CHUNK_S long."""
    total = Fraction(0)
    for i in range(1, 30):
        total += Fraction(1, i * i + 1)
    x = 0.0
    for i in range(3000):
        x = x * 0.999 + i
    eigh_tridiagonal(_DIAG, _OFFDIAG, select="i", select_range=(0, 1))
    np.exp(-_GRID * _GRID).sum()


class HostSpeed:
    """Chunk times of the reference kernel over one phase of a run."""

    def __init__(self):
        self.chunks: list[float] = []

    def sample(self, budget_s: float) -> None:
        """Run kernel chunks for about budget_s seconds, at least one."""
        spent = 0.0
        while True:
            t0 = perf_counter()
            kernel_chunk()
            dt = perf_counter() - t0
            self.chunks.append(dt)
            spent += dt
            if spent >= budget_s:
                return

    def factor(self) -> float:
        """Multiply a time measured in this phase by this to scale it to the reference host."""
        return REFERENCE_CHUNK_S / statistics.median(self.chunks)
