"""Print a checkout's answers: sha256 lines over what public calls return, then two censuses.

    python3 tools/fingerprint.py [CHECKOUT]
    diff <(python3 tools/fingerprint.py ../parent) <(python3 tools/fingerprint.py)

Runs on the polyjac sources of CHECKOUT (default: the checkout holding this
file).  Floats are hashed by their exact bits and no line reads how a system
stores its coefficients, so a hash line reads the same on two checkouts
exactly when its answers are bit-identical.  One hash line per

- ``perfbench/workloads.py`` workload and seed (1, 7), over its jobs:
  burgers-march each IVP's start state, bounds and trajectories (times,
  states, status, per-step reports); dense-solve every solver trace;
  cli-batch each command's exit code, stdout, stderr and written files;
- method of ``polyjac --format csv integrate burgers --n 128 --h 0.0005
  --steps 400 --report``, run in-process: exit code, stdout and stderr;
- the 3-unknown tree L U - sin(U), which does not lower: exit code, stdout
  and stderr of ``polyjac --format csv integrate TREE --h 0.1 --steps 2``
  run in-process with explicit Euler, with explicit Euler and ``--report``,
  and with ``--method implicit-euler``;
- the NaN probes, states whose reports overflow to NaN: exit code, stdout
  and stderr of ``polyjac stability circle-cubic --state 1e200,1e200``,
  ``polyjac check-jacobian circle-cubic --state 1e200,1e200`` and
  ``polyjac stability burgers --n 8 --state 1e160,1,1,1,1,1,1,1``, run
  in-process;
- ``check-jacobian``: exit code, stdout and stderr of ``polyjac
  check-jacobian burgers --n 16`` (its default 20 random states of a lowered
  tree with no cubic), ``polyjac check-jacobian circle-cubic --state 0,-0``
  (a signed zero, which the perturbed points keep off the diagonal) and
  ``polyjac check-jacobian circle-cubic --state 1,1 --jacobian FILE`` with
  FILE the matrix CHECK_JACOBIAN_MATRIX, run in-process: the central
  differences and every report field;
- ``h_jacobian`` tree: Burgers n = 128 at its sine state,
  sin(A U) + (B U)^3 at n = 24 (seed 1), and, drawn after it, the product
  (C cos(sin U)) o exp(D U)^0.5 o (c o U) at n = 24, which has every node
  kind the first two lack;
- ``sweep``: ``sweep_once``'s (U_new, permutation), or the row of its
  SingularPivotError, by jacobi, gauss_seidel and sor with omega 1.1 on each
  of the 48 dense-solve systems of seed 1 at U = 0.1 (1, ..., 1).

The cli-batch lines and the ``integrate-tree`` line read one document
several times in one process (a cli-batch job's system four times, the tree
three times), so the diff against a parent checkout, which CI runs, covers the
CLI's parse cache: a later read of the last text read reuses its source.

Then one ``implicit-euler`` line per hashed run that takes implicit-Euler
steps (the burgers-march seeds and the n = 128 ``implicit-euler`` report)
gives its steps, the contractions they read in all (one per call of the
closure ``IVP.newton_system`` returns: the predictor and each Newton correction),
and the median and max per step, so a change to Newton's stop rule shows as
a count.

Then one ``lowerings`` line per burgers-march seed gives the ``lower_to_poly``
calls its jobs made, counted wherever a polyjac module looks the name up, so
whether the jobs share one lowering of their one Burgers tree shows as a count.
One ``lowerings`` line per cli-batch seed gives its jobs' ``burgers_discretize``
and ``lower_to_poly`` calls, counted the same way, so whether a job's three
Burgers commands share one preset and its one lowering shows as a count.

The solver census solves, for seeds 1 and 7, the 48 dense-solve systems
(n=20, from U0 = 0) and the systems of cli-batch jobs 0-197 (n=8, from
U0 = 1, the CLI's start) by newton, classic_rank1 and modified_rank1
(``qn_solve``, max_iter 200) and by jacobi, gauss_seidel and sor with omega
1.1 (``iterative_solve``, tol 1e-10, max_iter 200): 2952 runs.  Its line per
pool, seed and variant, quasi-Newton first, gives the status counts and the
total, median, p90 and max of the iterations (recorded iterates minus the
start; nearest rank), so it moves exactly when some run ends in another
status or iteration count.

Exits 1 if any solver census run does not converge, else 0.  Uses numpy and the
standard library only; BLAS is pinned to one thread as in
``perfbench/run.py``.  The oracles of ``workloads.py`` are not run.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

# Jobs hashed per workload and seed; a workload's inputs depend on the count.
JOBS = {"burgers-march": 24, "dense-solve": 48, "cli-batch": 24}
SEEDS = (1, 7)
REPORT = "--format csv integrate burgers --n 128 --h 0.0005 --steps 400 --report --method".split()
REPORT_METHODS = ("explicit-euler", "rk4", "implicit-euler", "semi-implicit-euler")
# L U - sin(U) with L the 3 x 3 second-difference matrix
SIN_TREE = {"n": 3, "rhs": {"op": "sum", "weights": [1.0, -1.0], "children": [
    {"op": "linear", "matrix": [[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]]},
    {"op": "hfunction", "name": "sin", "child": {"op": "state"}}]}}
SIN_TREE_RUNS = ([], ["--report"], ["--method", "implicit-euler"])
NAN_PROBES = ("stability circle-cubic --state 1e200,1e200", "check-jacobian circle-cubic --state 1e200,1e200",
              "stability burgers --n 8 --state 1e160,1,1,1,1,1,1,1")
CHECK_JACOBIAN_RUNS = ("check-jacobian burgers --n 16", "check-jacobian circle-cubic --state 0,-0",
                       "check-jacobian circle-cubic --state 1,1 --jacobian")
CHECK_JACOBIAN_MATRIX = [[2.5, 1.0], [-0.75, 3.0]]
VARIANTS = ("newton", "classic_rank1", "modified_rank1")
SWEEPS = (("jacobi", 1.0), ("gauss_seidel", 1.0), ("sor", 1.1))
MAX_ITER = 200
SWEEP_TOL = 1e-10  # dense-solve's tolerance
CLI_SYSTEMS = 198


def _feed(h, x):
    """Hash x by type and exact value; floats by their bits, containers in order."""
    if isinstance(x, (bool, np.bool_)):
        h.update(f"b{bool(x)};".encode())
    elif isinstance(x, (int, np.integer)):
        h.update(f"i{int(x)};".encode())
    elif isinstance(x, (float, np.floating)):
        h.update(f"f{float(x).hex()};".encode())
    elif x is None or isinstance(x, (str, bytes)):
        h.update(f"{x!r};".encode())
    elif isinstance(x, np.ndarray):
        h.update(f"a{x.dtype.str}{x.shape};".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, dict):
        h.update(f"d{len(x)};".encode())
        for key in sorted(x):
            _feed(h, key)
            _feed(h, x[key])
    elif isinstance(x, (list, tuple)):
        h.update(f"l{len(x)};".encode())
        for item in x:
            _feed(h, item)
    elif dataclasses.is_dataclass(x):
        h.update(f"{type(x).__name__};".encode())
        _feed(h, {f.name: getattr(x, f.name) for f in dataclasses.fields(x)})
    else:
        raise TypeError(f"cannot fingerprint {type(x).__name__}")


def _digest(items):
    """The sha256 of the items, fed in order."""
    h = hashlib.sha256()
    for x in items:
        _feed(h, x)
    return h.hexdigest()


def _captured(call, *args):
    """[call(*args), its stdout, its stderr]."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        result = call(*args)
    return [result, stdout.getvalue(), stderr.getvalue()]


def _burgers_march(workload, jobs):
    inputs = workload.setup(None, jobs)
    for i in range(jobs):
        ivp, bounds, trajs = workload.job(inputs, i)
        yield [ivp.U0, bounds, trajs]


def _dense_solve(workload, jobs):
    inputs = workload.setup(None, jobs)
    for i in range(jobs):
        yield workload.job(inputs, i)


def _cli_batch(workload, jobs):
    with tempfile.TemporaryDirectory() as tmp:
        out, specs = workload.setup(Path(tmp), jobs)
        for i in range(jobs):
            codes, stdout, stderr = _captured(workload.job, (out, specs), i)
            files = {}
            for f in sorted(out.iterdir()):
                files[f.name] = f.read_bytes()
                f.unlink()
            # Paths name the temporary directory, which differs between runs.
            yield [codes, stdout.replace(tmp, "<tmp>"), stderr.replace(tmp, "<tmp>"), files]


def _sin_tree_runs(cli):
    """[exit code, stdout, stderr] of each SIN_TREE_RUNS integrate run on SIN_TREE."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "tree.json"
        doc.write_text(json.dumps(SIN_TREE))
        argv = ["--format", "csv", "integrate", str(doc), "--h", "0.1", "--steps", "2"]
        return [_captured(cli.main, argv + extra) for extra in SIN_TREE_RUNS]


def _check_jacobian_runs(cli):
    """[exit code, stdout, stderr] of each CHECK_JACOBIAN_RUNS run; the last reads CHECK_JACOBIAN_MATRIX."""
    with tempfile.TemporaryDirectory() as tmp:
        matrix = Path(tmp) / "J.json"
        matrix.write_text(json.dumps(CHECK_JACOBIAN_MATRIX))
        argvs = [run.split() for run in CHECK_JACOBIAN_RUNS]
        argvs[-1].append(str(matrix))
        return [_captured(cli.main, argv) for argv in argvs]


RUNNERS = {"burgers-march": _burgers_march, "dense-solve": _dense_solve, "cli-batch": _cli_batch}


def _trees(pj):
    """(name, tree, state) of the hashed tree Jacobians."""
    from polyjac.presets import burgers_initial_state

    rng = np.random.default_rng(1)
    A, B = rng.standard_normal((2, 24, 24))
    yield "burgers-n128-sine", pj.burgers_discretize(128, 100.0).rhs, burgers_initial_state(128)
    sin_cube = pj.Sum((pj.ElementwiseFunction("sin", pj.LinearMap(A)), pj.HadamardPower(pj.LinearMap(B), 3.0)))
    yield "sin-cube-n24-seed1", sin_cube, rng.standard_normal(24)
    C, D = rng.standard_normal((2, 24, 24))
    mixed = pj.HadamardProduct(
        pj.LinearMap(C, pj.ElementwiseFunction("cos", pj.ElementwiseFunction("sin", pj.State()))),
        pj.HadamardPower(pj.ElementwiseFunction("exp", pj.LinearMap(D)), 0.5),
        pj.DiagScale(rng.standard_normal(24), pj.State()),
    )
    yield "product3-n24-seed1", mixed, rng.standard_normal(24)


def _sweeps(pj, workloads):
    """sweep_once's outcome per SWEEPS method on each dense-solve system of seed 1, at U = 0.1 (1, ..., 1)."""
    dense = workloads.DenseSolve(1)
    for k in range(dense.pool):
        s = pj.from_kronecker(*dense.coeffs(k))
        for method, omega in SWEEPS:
            try:
                yield pj.sweep_once(s, np.full(dense.N, 0.1), method, omega)
            except pj.SingularPivotError as exc:
                yield exc.row


def _pools(workloads, seed):
    """(pool name, [(coefficients, start state)]) of the dense-solve and cli-batch solves."""
    dense = workloads.DenseSolve(seed)
    cli = workloads.CliBatch(seed)
    yield dense.name, [(dense.coeffs(k), np.zeros(dense.N)) for k in range(dense.pool)]
    yield cli.name, [(cli._draw(k)[0], np.ones(cli.N)) for k in range(CLI_SYSTEMS)]


@contextlib.contextmanager
def _contractions(stability):
    """A list that gets, per implicit-Euler step taken inside the block, the contractions the step read."""
    per_step, step = [], stability._step

    def counted(value, system, method, U, h):
        calls = []
        V = step(value, lambda X: calls.append(None) or system(X), method, U, h)
        if method == "implicit_euler":
            per_step.append(len(calls))
        return V

    stability._step = counted
    try:
        yield per_step
    finally:
        stability._step = step


@contextlib.contextmanager
def _calls(function):
    """A list that gets one entry per call of function inside the block, in every polyjac module holding its name."""
    name = function.__name__
    calls, places = [], [m for key, m in sys.modules.items()
                         if key.partition(".")[0] == "polyjac" and vars(m).get(name) is function]

    def counted(*args, **kwargs):
        calls.append(None)
        return function(*args, **kwargs)

    for place in places:
        setattr(place, name, counted)
    try:
        yield calls
    finally:
        for place in places:
            setattr(place, name, function)


def _rank(ordered, fraction):
    """The nearest-rank percentile of a sorted list."""
    return ordered[max(math.ceil(fraction * len(ordered)) - 1, 0)]


def _census(pj, workloads):
    """Print the census lines; returns the number of runs that did not converge."""
    families = (
        [(variant, pj.qn_solve, pj.QNOptions(variant=variant, max_iter=MAX_ITER)) for variant in VARIANTS],
        [(method, pj.iterative_solve, pj.IterativeOptions(method=method, omega=omega, tol=SWEEP_TOL,
                                                          max_iter=MAX_ITER)) for method, omega in SWEEPS],
    )
    failed = 0
    for family in families:
        for seed in SEEDS:
            for pool, cases in _pools(workloads, seed):
                systems = [(pj.from_kronecker(*coeffs), U0) for coeffs, U0 in cases]
                for name, solve, opts in family:
                    traces = [solve(s, U0, opts) for s, U0 in systems]
                    statuses = collections.Counter(tr.status for tr in traces)
                    iters = sorted(tr.iterations - 1 for tr in traces)
                    failed += len(traces) - statuses["converged"]
                    counts = " ".join(f"{status}={statuses[status]}" for status in sorted(statuses))
                    print(f"{pool} seed={seed} {name} {counts} total={sum(iters)} "
                          f"median={_rank(iters, 0.5)} p90={_rank(iters, 0.9)} max={iters[-1]}")
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parent.parent,
                        type=Path, help="polyjac checkout to run (default: this one)")
    args = parser.parse_args(argv)

    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import polyjac as pj
    from polyjac import cli, stability
    import workloads

    if Path(pj.__file__).resolve().parent != root / "src" / "polyjac":
        sys.exit(f"fingerprint: imported polyjac from {pj.__file__}, not {root / 'src'}")
    implicit, lowerings, builds = {}, {}, {}
    for name in RUNNERS:
        for seed in SEEDS:
            with (_contractions(stability) as implicit[f"{name} seed={seed}"],
                  _calls(pj.lower_to_poly) as lowered, _calls(pj.burgers_discretize) as discretized):
                digest = _digest(RUNNERS[name](workloads.WORKLOADS[name](seed), JOBS[name]))
            print(f"{name} seed={seed} jobs={JOBS[name]} {digest}")
            if name == "burgers-march":
                lowerings[seed] = len(lowered)
            elif name == "cli-batch":
                builds[seed] = len(discretized), len(lowered)
    for method in REPORT_METHODS:
        with _contractions(stability) as implicit[f"integrate-report n=128 {method}"]:
            digest = _digest([_captured(cli.main, REPORT + [method])])
        print(f"integrate-report n=128 {method} {digest}")
    print(f"integrate-tree L U - sin(U) {_digest(_sin_tree_runs(cli))}")
    print(f"nan-probes {_digest([_captured(cli.main, probe.split()) for probe in NAN_PROBES])}")
    print(f"check-jacobian {_digest(_check_jacobian_runs(cli))}")
    for name, tree, U in _trees(pj):
        print(f"h_jacobian {name} {_digest([pj.h_jacobian(tree, U)])}")
    print(f"sweep dense-solve seed=1 U=0.1 {_digest(_sweeps(pj, workloads))}")
    for run, per_step in implicit.items():
        if per_step:
            per_step.sort()
            print(f"implicit-euler {run} steps={len(per_step)} contractions={sum(per_step)} "
                  f"median={_rank(per_step, 0.5)} max={per_step[-1]}")
    for seed, count in lowerings.items():
        print(f"lowerings burgers-march seed={seed} jobs={JOBS['burgers-march']} lowerings={count}")
    for seed, (discretized, lowered) in builds.items():
        print(f"lowerings cli-batch seed={seed} jobs={JOBS['cli-batch']} discretizations={discretized} "
              f"lowerings={lowered}")
    return 1 if _census(pj, workloads) else 0


if __name__ == "__main__":
    sys.exit(main())
