"""Run the three qn_solve variants over the benchmark's solver pools and count how they end.

    python3 tools/qn_census.py [CHECKOUT]

For seeds 1 and 7 it solves the 48 dense-solve systems (n=20, from U0 = 0)
and the systems of cli-batch jobs 0-197 (n=8, from U0 = 1, the CLI's start),
each by newton, classic_rank1 and modified_rank1 with max_iter 200: 1476
runs.  The systems are the ones ``perfbench/workloads.py`` draws, built with
``from_kronecker``.  It prints one line per pool, seed and variant: the
status counts, then the total, median, p90 and max of the iterations (the
recorded iterates minus the start; median and p90 by nearest rank).  The
line reads the same on two checkouts exactly when every run ends in the same
status after the same number of iterations there:

    diff <(python3 tools/qn_census.py ../parent) <(python3 tools/qn_census.py)

Exits 1 if any run does not converge.  Uses numpy and the standard library
only; BLAS is pinned to one thread as in ``perfbench/run.py``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import math
import sys
from pathlib import Path

SEEDS = (1, 7)
VARIANTS = ("newton", "classic_rank1", "modified_rank1")
MAX_ITER = 200
CLI_SYSTEMS = 198


def _pools(workloads, seed):
    """(pool name, [(coefficients, start state)]) of the dense-solve and cli-batch solves."""
    import numpy as np

    dense = workloads.DenseSolve(seed)
    cli = workloads.CliBatch(seed)
    yield dense.name, [(dense.coeffs(k), np.zeros(dense.N)) for k in range(dense.pool)]
    yield cli.name, [(cli._draw(k)[0], np.ones(cli.N)) for k in range(CLI_SYSTEMS)]


def _rank(ordered, fraction):
    """The nearest-rank percentile of a sorted list."""
    return ordered[max(math.ceil(fraction * len(ordered)) - 1, 0)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parent.parent,
                        type=Path, help="polyjac checkout to run (default: this one)")
    args = parser.parse_args(argv)

    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import polyjac as pj
    import workloads

    if Path(pj.__file__).resolve().parent != root / "src" / "polyjac":
        sys.exit(f"qn_census: imported polyjac from {pj.__file__}, not {root / 'src'}")
    failed = 0
    for seed in SEEDS:
        for pool, cases in _pools(workloads, seed):
            systems = [(pj.from_kronecker(*coeffs), U0) for coeffs, U0 in cases]
            for variant in VARIANTS:
                opts = pj.QNOptions(variant=variant, max_iter=MAX_ITER)
                traces = [pj.qn_solve(s, U0, opts) for s, U0 in systems]
                statuses = collections.Counter(tr.status for tr in traces)
                iters = sorted(tr.iterations - 1 for tr in traces)
                failed += len(traces) - statuses["converged"]
                counts = " ".join(f"{status}={statuses[status]}" for status in sorted(statuses))
                print(f"{pool} seed={seed} {variant} {counts} total={sum(iters)} "
                      f"median={_rank(iters, 0.5)} p90={_rank(iters, 0.9)} max={iters[-1]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
