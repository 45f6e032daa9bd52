"""Machine-speed calibration for a shared host whose speed drifts.

On a small shared VM the same code runs tens of percent slower or faster
from one minute to the next, as neighbours load the host's cores; the CPU
time of a run moves with its wall time, so neither is steady on its own.
A fixed kernel with the package's instruction mix (numpy operations on
level-sized arrays driven from a Python loop, float ``repr`` formatting,
and ufuncs over arrays larger than L2) is timed between consecutive
measurements, and each timed measurement is scaled by ``NOMINAL_S`` over
the mean of the kernel times on either side of it.  A calibrated time is the time the measurement would
have taken while the kernel took ``NOMINAL_S``.  The kernel does not touch
hjbpi, so no change to the package moves it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.06   # kernel seconds on the recording machine (see record.json)

_LEVEL = np.linspace(0.0, 1.0, 629)
_WIDE = np.linspace(0.0, 2.0 * np.pi, 500_000)


def kernel():
    acc = 0.0
    # level-sized arrays driven from a Python loop, as in the solvers
    for i in range(1000):
        lap = np.roll(_LEVEL, 1) - 2.0 * _LEVEL + np.roll(_LEVEL, -1)
        acc += float(np.minimum(lap, 0.5 * _LEVEL)[i % _LEVEL.size])
    # float repr formatting, as in the artifact writers
    text = ",".join(repr(i * 1e-3) for i in range(25000))
    # ufuncs over arrays larger than L2, as in the Hopf-Lax oracle
    for _ in range(4):
        acc += float(np.min(np.cos(_WIDE)))
    return acc + len(text)


def timed_kernel():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Calibrator:
    """Scales each timed operation by the kernel runs that bracket it."""

    def __init__(self):
        self._before = None
        self.factors = []

    def timed(self, operation):
        """Run ``operation`` (which returns its own seconds); return
        (calibrated seconds, raw seconds)."""
        if self._before is None:
            self._before = timed_kernel()
        raw = operation()
        after = timed_kernel()
        factor = NOMINAL_S / (0.5 * (self._before + after))
        self._before = after
        self.factors.append(factor)
        return raw * factor, raw

    def untimed(self, operation):
        """Run an operation whose result is not a time; the next timed one
        measures the kernel afresh."""
        self._before = None
        return operation()
