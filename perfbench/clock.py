"""Wall times scaled to one reference speed of the machine.

On a shared host the speed of the same code drifts by up to 1.7x over seconds
and minutes, with no steal time reported to the guest.  Raw wall times of one 30-second run then differ from
the next by 10-25%, far more than any change worth measuring.  So every timed
call is bracketed by a fixed calibration kernel (a pure-Python loop and small
numpy products, no polyjac code), and the call's wall time is multiplied by
``REFERENCE_S`` over the mean of the two kernel times around it.  The result is
the wall time the call would take with the machine at the speed where the
kernel takes ``REFERENCE_S``; a change to polyjac moves it in proportion to
wall time, and the host's drift mostly cancels.  Over ten seeds on a 2-core
Xeon VM, the quartile spread of the median job time was 6-13% of the median in
wall time and 1-3% in reference time.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np

# The kernel's wall time on the 2-core Xeon VM the benchmark was written on,
# in its usual state; reference times there read close to wall times.
REFERENCE_S = 2.0e-3


class Span:
    """The wall and reference seconds of one timed block."""

    wall = ref = 0.0


class ReferenceClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._m = rng.standard_normal((24, 24)) / 5.0
        self._v = np.ones(24)
        self.kernel_s = []  # every kernel time, for the run's record

    def _kernel(self):
        t0 = time.perf_counter()
        s = 0
        for i in range(15000):
            s += i * i
        x = self._v
        for _ in range(200):
            x = np.tanh(self._m @ x) + 0.5 * x
        dt = time.perf_counter() - t0
        self.kernel_s.append(dt)
        return dt

    @contextmanager
    def timed(self):
        """Times the block; the yielded Span is filled in when it ends, also on an exception."""
        span = Span()
        before = self._kernel()
        t0 = time.perf_counter()
        try:
            yield span
        finally:
            span.wall = time.perf_counter() - t0
            span.ref = span.wall * 2.0 * REFERENCE_S / (before + self._kernel())

    def kernel_median_ms(self):
        return 1e3 * statistics.median(self.kernel_s) if self.kernel_s else 0.0
