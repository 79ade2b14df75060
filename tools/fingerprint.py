"""Print one sha256 per benchmark workload and seed, over every output its jobs produce.

    python3 tools/fingerprint.py [CHECKOUT]

Runs the jobs of every ``perfbench/workloads.py`` workload, on seeds 1 and 7,
on the polyjac sources of CHECKOUT (default: the checkout holding this file)
and hashes what they return:

- burgers-march: the lowered L, quad, cubic and const, the start state, the
  bounds, and each trajectory's times, states, status and per-step reports;
- dense-solve: every solver trace (iterates, residuals, status, indices);
- cli-batch: each command's exit code, stdout and stderr, and the bytes of
  every file it wrote.

Floats are hashed by their exact bits, so two checkouts print equal lines
exactly when their outputs are bit-identical:

    diff <(python3 tools/fingerprint.py ../parent) <(python3 tools/fingerprint.py)

Uses numpy and the standard library only; BLAS is pinned to one thread as in
``perfbench/run.py``.  The oracles of ``workloads.py`` are not run.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

# Jobs hashed per workload and seed; a workload's inputs depend on the count.
JOBS = {"burgers-march": 24, "dense-solve": 48, "cli-batch": 24}
SEEDS = (1, 7)


def _feed(h, x):
    """Hash x by type and exact value; floats by their bits, containers in order."""
    import numpy as np

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


def _burgers_march(workload, h, jobs):
    inputs = workload.setup(None, jobs)
    for i in range(jobs):
        ivp, bounds, trajs = workload.job(inputs, i)
        p = ivp.poly
        _feed(h, [p.L, p.quad, p.cubic, p.const, ivp.U0, bounds, trajs])


def _dense_solve(workload, h, jobs):
    inputs = workload.setup(None, jobs)
    for i in range(jobs):
        _feed(h, workload.job(inputs, i))


def _cli_batch(workload, h, jobs):
    with tempfile.TemporaryDirectory() as tmp:
        out, specs = workload.setup(Path(tmp), jobs)
        for i in range(jobs):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                codes = workload.job((out, specs), i)
            files = {}
            for f in sorted(out.iterdir()):
                files[f.name] = f.read_bytes()
                f.unlink()
            # Paths name the temporary directory, which differs between runs.
            _feed(h, [codes, stdout.getvalue().replace(tmp, "<tmp>"),
                      stderr.getvalue().replace(tmp, "<tmp>"), files])


RUNNERS = {"burgers-march": _burgers_march, "dense-solve": _dense_solve,
           "cli-batch": _cli_batch}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parent.parent,
                        type=Path, help="polyjac checkout to run (default: this one)")
    args = parser.parse_args(argv)

    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import polyjac
    import workloads

    if Path(polyjac.__file__).resolve().parent != root / "src" / "polyjac":
        sys.exit(f"fingerprint: imported polyjac from {polyjac.__file__}, not {root / 'src'}")
    for name in RUNNERS:
        for seed in SEEDS:
            h = hashlib.sha256()
            RUNNERS[name](workloads.WORKLOADS[name](seed), h, JOBS[name])
            print(f"{name} seed={seed} jobs={JOBS[name]} {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
