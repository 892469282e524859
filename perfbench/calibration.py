"""Machine-speed calibration for timings on a shared, unsteady host.

On a host whose speed drifts (other tenants, shared cores), the same work
can take twice as long a minute later, so raw wall times of one run say
more about the host than about the program. Each timed interval is
therefore bracketed by a fixed calibration kernel that never calls velakit
but runs the same kind of work: Python loops over tiny numpy arrays, seeded
draws and small LAPACK factorizations. `Clock.interval` returns the raw wall time and the factor
NOMINAL_S / (mean kernel time around it) that rescales it to the nominal
speed. A program change moves the interval but not the kernel, so it moves the
rescaled time by the same factor.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median wall time over a minute on the 2-core x86-64 VM the
# reference figures come from (Python 3.11, numpy 2.4); its fastest was 0.0073 s
NOMINAL_S = 0.0150
_SPD = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
_STEP = 0.01 * np.array([[0.5, 0.1, 0.0], [0.1, 0.4, 0.2], [0.0, 0.3, 0.5]])


def kernel_seconds() -> float:
    """Time one pass of the kernel: seeded draws, a small recursion and tiny
    array operations in Python loops, and small LAPACK factorizations."""
    start = time.perf_counter()
    counts = {}
    for i in range(10_000):
        counts[i & 63] = counts.get(i & 63, 0) + i * i
    for rep in range(20):
        rng = np.random.default_rng(rep)
        walk = np.cumsum(rng.standard_normal((400, 2)), axis=0)
        shocks = rng.standard_normal((60, 3))
        z = np.zeros(3)
        for e in shocks:
            z = z + _STEP @ z + e
        for _ in range(5):
            x = np.asarray(_SPD, dtype=float)
            np.all(np.isfinite(x))
            np.abs(x - x.T).max()
            np.column_stack([walk[:40], np.ones(40)])
            np.diff(walk[:41], axis=0)
        np.linalg.qr(walk[:40])
        np.linalg.eigh(_SPD)
        np.linalg.cholesky(_SPD)
        np.linalg.solve(_SPD, z)
    return time.perf_counter() - start


class Clock:
    """Times intervals between calibration kernels, reusing each kernel
    measurement for the interval before and the interval after it."""

    def __init__(self):
        kernel_seconds()  # the first pass runs cold
        self.last = kernel_seconds()
        self.kernel_samples = [self.last]

    def interval(self, fn, *args):
        """Run fn(*args); return (result, raw seconds, scale), where a
        duration measured during the call times scale is its rescaled value."""
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        before, self.last = self.last, kernel_seconds()
        self.kernel_samples.append(self.last)
        return result, raw, NOMINAL_S / (0.5 * (before + self.last))
