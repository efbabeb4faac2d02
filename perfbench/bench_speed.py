"""Host speed next to each timed section, so timings can be scaled to one reference speed.

The benchmark shares its cores with other machines' work, and their speed
shifts by a quarter or more in phases of a few seconds. A run samples too
few phases for its medians to settle, so its timings would spread from run
to run with the host, not with the program. A fixed reference kernel (numpy
elementwise passes over a 720k array and a pure-Python loop; no mflow code,
no BLAS call, one thread) is timed right before and right after each timed
section. ``scale`` is ``NOMINAL_S`` over the mean of the two kernel times:
below 1 when the host ran slow. A section's scaled time is its wall time
times its scale: the time it would have taken at the nominal speed.
Unscaled wall times are kept in the manifest next to the scaled metrics.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.065  # kernel time at the nominal speed: the median on a 2-vCPU x86-64 VM

_SRC = np.linspace(0.0, 1.0, 720_000)
_DST = _SRC.copy()  # pages touched here, not in the first timed pass


def reference_s() -> float:
    """Wall seconds of one pass of the reference kernel."""
    start = time.perf_counter()
    for _ in range(20):
        np.multiply(_SRC, 1.0001, out=_DST)
        np.add(_DST, _SRC, out=_DST)
        np.sqrt(_DST, out=_DST)
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - start


def speed_scale(before_s: float, after_s: float) -> float:
    """Nominal kernel time over the mean of the kernel times around a section."""
    return NOMINAL_S / ((before_s + after_s) / 2)


class Timed:
    """Wall time of a ``with`` block and the host speed around it."""

    def __enter__(self) -> "Timed":
        self._before = reference_s()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start
        self.scale = speed_scale(self._before, reference_s())
