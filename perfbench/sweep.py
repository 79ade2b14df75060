"""Per-call cost of the coefficient kernels as the dimension grows.

Reports ``<layer>.<fn>.<family>-n<N>.us``: the median wall time of one call,
in microseconds, for ``lower_to_poly`` (Burgers only: the dense family is
built from coefficients, not from a tree) and for ``eval``, ``jacobian`` and
``linearized_matrix`` on Burgers and on the dense random family.  Runs with
tracing off.  The dense ``(n,n,n,n)`` cubic tensor makes n=48 the largest
size that fits a small box: Burgers lowers there in about a second with a
few hundred MB peak.
"""

import math
import statistics
import time

import numpy as np

import polyjac as pj
from workloads import random_cubic

SIZES = (16, 32, 48)


def per_call_us(fn, min_reps=3, min_seconds=0.05, max_reps=500):
    """Median microseconds per call, and the last call's result."""
    times = []
    while len(times) < min_reps or (sum(times) < min_seconds and len(times) < max_reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times), result


def size_sweep(seed):
    out = {}
    for n in SIZES:
        sd = pj.burgers_discretize(n, 100.0)
        out[f"expressions.lower_to_poly.burgers-n{n}.us"], burgers = per_call_us(
            lambda: pj.lower_to_poly(sd.rhs, n))
        rng = np.random.default_rng([seed, 4, n])
        families = (
            ("burgers", burgers, np.sin(2.0 * math.pi * np.arange(n) / n)),
            ("dense", pj.from_kronecker(*random_cubic(rng, n)), rng.standard_normal(n)),
        )
        for family, s, U in families:
            for fn in ("eval", "jacobian", "linearized_matrix"):
                method = getattr(s, fn)
                out[f"system.{fn}.{family}-n{n}.us"] = per_call_us(lambda: method(U))[0]
    return out
