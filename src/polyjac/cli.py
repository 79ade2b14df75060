"""Command-line front end: solve, check-jacobian, stability, integrate.

Exit codes are a stable scripting contract, decided in main by the error's
type: 0 success; 2 numerical failure (a status other than converged or
completed, a singular solve, a DomainError, or a NaN in a JSON report); 1
every other error.

A process that calls main more than once keeps its last input in one
(key, source) slot, the key a preset's resolved ("burgers", n, Re) or a
document's text, never its path; commands on one input share its parse,
discretization and lowering.  The slot is cleared before each build, and a
refused preset or a failed parse is not kept; --n or --re given for an input
other than burgers is refused before the slot is read.  A document is parsed
with the cyclic collector paused, as its decoded lists hold no cycles, and
the collector is left as it was found.
"""

import argparse
import functools
import gc
import json
import math
import sys

import numpy as np

from . import presets, relaxation, stability
from .expressions import DomainError, SemiDiscreteIVP, _Burgers, burgers_discretize, load_hexpr_json
from .quasi_newton import VARIANTS, QNOptions, qn_solve
from .relaxation import IterativeOptions, iterative_solve
from .pseudo_jacobian import NonlinearRhs, decompose, pj_step_bound_explicit
from .stability import (
    IVP,
    _polynomial,
    burgers_step_bound,
    integrate,
    is_negative_definite,
    scan_blowup_threshold,
    step_bound_explicit_euler,
    step_bound_rk4,
)
from .system import _integer, load_system_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ValueError line, not a usage banner."""

    def error(self, message):
        raise ValueError(message)


# [(key, source)] of the last input built: at most one pair.  Keys are compared with ==, which a
# dict lookup would precede by hashing the whole text on every read.
_slot = []


def _load_input(path, n=None, Re=None):
    """Resolve an input token to its source: a PolySystem or a SemiDiscreteIVP, kept while it is the last one built."""
    if path != "burgers" and (n, Re) != (None, None):
        raise ValueError(f"{'--n' if n is not None else '--re'} shapes only the burgers preset, not {path}")
    if path == "circle-cubic":
        return presets.circle_cubic_system()
    if path == "burgers":
        key = ("burgers", 32 if n is None else n, 100.0 if Re is None else Re)
    else:
        try:
            with open(path) as fh:
                key = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read input: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"cannot read input: {path}: {exc}") from exc
    if _slot and _slot[0][0] == key:
        return _slot[0][1]
    _slot.clear()
    if path == "burgers":
        try:
            source = burgers_discretize(*key[1:])
        except ValueError as exc:
            raise ValueError(f"bad preset argument: {exc}") from exc
    else:
        enabled = gc.isenabled()
        gc.disable()
        try:
            source = _source(json.loads(key))
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON in {path}: {exc}") from exc
        finally:
            if enabled:
                gc.enable()
    _slot.append((key, source))
    return source


def _source(data):
    """The source of a decoded system or tree document."""
    if isinstance(data, dict) and "rhs" in data:
        try:
            return SemiDiscreteIVP(n=_integer(data["n"], "field 'n'"), rhs=load_hexpr_json(data["rhs"]))
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ValueError(f"bad expression input: {exc}") from exc
    try:
        return load_system_json(data)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"bad system input: {exc}") from exc


def _parse_state(text, n):
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad state {text!r}: {exc}") from exc
    if len(vals) != n:
        raise ValueError(f"state has {len(vals)} entries, system dimension is {n}")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"bad state {text!r}: entries must be finite")
    return np.array(vals)


def _is_burgers(source):
    """True for a Burgers input, whose difference matrices give an a-priori step bound."""
    return isinstance(source, _Burgers)


def _initial_state(text, source):
    """The given state text, else sin(2 pi x) for a Burgers input, else ones."""
    if text:
        return _parse_state(text, source.n)
    if _is_burgers(source):
        return presets.burgers_initial_state(source.n)
    return np.ones(source.n)


def _emit(text, out):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _nan_field(value, name=""):
    """The name of a report's first field, in order, that holds a NaN (list entries by index); None if none does."""
    if isinstance(value, dict):
        fields = ((f"{name}.{key}" if name else key, v) for key, v in value.items())
    elif isinstance(value, list):
        fields = ((f"{name}[{i}]", v) for i, v in enumerate(value))
    else:
        return name if isinstance(value, float) and math.isnan(value) else None
    return next(filter(None, (_nan_field(v, key) for key, v in fields)), None)


def _emit_report(report, out):
    """Emit a JSON report; a NaN in it, which JSON cannot carry, raises FloatingPointError naming its field.

    An infinity is written as Infinity.  Only a report that holds a NaN or an infinity is walked.
    """
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError:
        if field := _nan_field(report):
            raise FloatingPointError(f"report field {field} is NaN")
        text = json.dumps(report, indent=2)
    _emit(text, out)


def _cmd_solve(args):
    system = _polynomial(_load_input(args.input, args.n, args.re), "solve")
    n = system.n
    U0 = _parse_state(args.x0, n) if args.x0 else np.ones(n)
    method = args.method.replace("-", "_")
    if method in VARIANTS:
        trace = qn_solve(system, U0, QNOptions(variant=method, tol=args.tol, max_iter=args.max_iter))
    else:
        opts = IterativeOptions(method=method, omega=args.omega, tol=args.tol, max_iter=args.max_iter)
        trace = iterative_solve(system, U0, opts)
    _emit(trace.to_csv() if args.format == "csv" else trace.to_json(), args.out)
    return EXIT_OK if trace.status == "converged" else EXIT_NUMERICAL


def _cmd_check_jacobian(args):
    if not (eps := np.finfo(float).eps) <= args.fd_step < np.inf:  # below eps, U_j +- h_j can round to U_j
        raise ValueError(f"--fd-step must be finite and at least machine epsilon {eps}, got {args.fd_step}")
    if not args.state and args.random_states < 1:
        raise ValueError(f"--random-states must be at least 1, got {args.random_states}")
    system = _polynomial(_load_input(args.input, args.n, args.re), "check-jacobian")
    n = system.n
    rng = np.random.default_rng(args.seed)
    if args.state:
        states = [_parse_state(args.state, n)]
    else:
        states = [rng.standard_normal(n) for _ in range(args.random_states)]

    J_hat_fixed = None
    if args.jacobian:
        try:
            with open(args.jacobian) as fh:
                J_hat_fixed = np.asarray(json.load(fh), dtype=float)
        except (OSError, ValueError, TypeError) as exc:
            raise ValueError(f"cannot read jacobian matrix: {exc}") from exc
        if J_hat_fixed.shape != (n, n):
            raise ValueError(f"jacobian matrix must be {n}x{n}, got {J_hat_fixed.shape}")

    rows = []
    for U in states:
        st = system.at(U)
        J = st.J
        J_fd = _central_difference_jacobian(system._values, U, args.fd_step)
        scale = 1.0 + np.abs(J).max()
        fd_err = float(np.abs(J - J_fd).max() / scale)
        r2, r3 = st.euler_residuals()
        J_hat = J_hat_fixed if J_hat_fixed is not None else J_fd
        try:
            dev = st.deviation(J_hat)
        except ValueError:
            dev = None
        rows.append(
            {
                "state": U.tolist(),
                "fd_max_rel_error": fd_err,
                "identity_residual_quadratic": r2,
                "identity_residual_cubic": r3,
                "deviation": dev,
            }
        )
    devs = [r["deviation"] for r in rows if r["deviation"] is not None]
    summary = {
        "states_checked": len(rows),
        "max_fd_rel_error": max(r["fd_max_rel_error"] for r in rows),
        "max_deviation": max(devs) if devs else None,
        "reports": rows,
    }
    _emit_report(summary, args.out)
    return EXIT_OK


def _central_difference_jacobian(values, U, step=1e-6):
    """Central finite differences, step h_j = step (1 + |U_j|), as a new matrix.

    values(X) gives f at each row of a stack X, and the 2n points U +- h_j e_j are one stack: U
    repeated, h_j added on the diagonal, so a -0.0 entry of U stays -0.0 off it.
    """
    U = np.asarray(U, dtype=float)
    n, j = U.size, np.arange(U.size)
    h = step * (1.0 + np.abs(U))
    X = np.tile(U, (2 * n, 1))
    X[j, j] += h
    X[j + n, j] -= h
    F = values(X)
    return ((F[:n] - F[n:]) / (2.0 * h)[:, None]).T


def _cmd_stability(args):
    source = _load_input(args.input, args.n, args.re)
    system = _polynomial(source, "stability")
    n = system.n
    U = _initial_state(args.state, source)
    A = system.at(U).A
    negdef, lam = is_negative_definite(A)
    report = {
        "dimension": n,
        "state": U.tolist(),
        "euler_bound_l1": step_bound_explicit_euler(A, "l1"),
        "euler_bound_linf": step_bound_explicit_euler(A, "linf"),
        "rk4_bound_l1": step_bound_rk4(A, "l1"),
        "rk4_bound_linf": step_bound_rk4(A, "linf"),
        "negdef_certificate": negdef,
        "eig_max_symmetric_part": lam,
    }
    if _is_burgers(source):
        report["burgers_a_priori_bound"] = burgers_step_bound(source, U, norm_kind="linf")
    if not np.any(U == 0.0):
        rhs = NonlinearRhs(L=system.L, N=lambda t, V: sum(system.nonlinear_parts(V)))
        form = decompose(rhs, 0.0, U)
        relaxed, tight = pj_step_bound_explicit(form, "linf")
        report["pseudo_jacobian_bound_relaxed"] = relaxed
        report["pseudo_jacobian_bound_tight"] = tight
    _emit_report(report, args.out)
    return EXIT_OK


def _cmd_integrate(args):
    source = _load_input(args.input, args.n, args.re)
    U0 = _initial_state(args.x0, source)
    ivp = IVP(source, U0)
    method = args.method.replace("-", "_")

    if args.scan:
        if args.h_lo is None or args.h_hi is None:
            raise ValueError("--scan requires --h-lo and --h-hi")
        threshold = scan_blowup_threshold(ivp, method, args.h_lo, args.h_hi, args.horizon)
        report = {"method": method, "blowup_threshold": threshold, "horizon": args.horizon}
        if _is_burgers(source):
            report["a_priori_bound"] = burgers_step_bound(source, U0, norm_kind="linf")
        _emit_report(report, args.out)
        return EXIT_OK

    if args.h is None:
        raise ValueError("--h is required unless --scan is given")
    traj = integrate(ivp, method, args.h, args.steps, report=args.report)
    _emit(traj.to_json() if args.format == "json" else traj.to_csv(), args.out)
    if traj.status != "completed":
        sys.stderr.write(f"integration {traj.status} at step {traj.failure_step}\n")
        return EXIT_NUMERICAL
    return EXIT_OK


def _seed(text):
    """argparse type of --seed: an integer >= 0, as numpy's default_rng takes."""
    try:
        if (seed := int(text)) >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


@functools.cache
def build_parser():
    p = _Parser(
        prog="polyjac",
        description="Solvers and stability analysis for polynomial-only nonlinear systems.",
    )
    p.add_argument("--seed", type=_seed, default=0, help="seed for randomized commands")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("input", help="system JSON path, or preset 'circle-cubic' / 'burgers'")
        sp.add_argument("--n", type=int, default=None, help="grid size for the burgers preset")
        sp.add_argument("--re", type=float, default=None, help="Reynolds number for the burgers preset")

    sp = sub.add_parser("solve", help="root-find f(U) = 0")
    add_common(sp)
    sp.add_argument(
        "--method",
        default="newton",
        choices=[m.replace("_", "-") for m in VARIANTS + relaxation.METHODS],
    )
    sp.add_argument("--omega", type=float, default=1.0)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--max-iter", type=int, default=200)
    sp.add_argument("--x0", default=None, help="comma-separated initial state")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("check-jacobian", help="exact vs finite-difference diagnostics")
    add_common(sp)
    sp.add_argument("--state", default=None, help="comma-separated state to check")
    sp.add_argument("--random-states", type=int, default=20)
    sp.add_argument("--jacobian", default=None, help="JSON matrix to use as the approximation")
    sp.add_argument("--fd-step", type=float, default=1e-6)
    sp.set_defaults(func=_cmd_check_jacobian)

    sp = sub.add_parser("stability", help="step-size bounds and definiteness certificate")
    add_common(sp)
    sp.add_argument("--state", default=None)
    sp.set_defaults(func=_cmd_stability)

    sp = sub.add_parser("integrate", help="time stepping and blow-up scans")
    add_common(sp)
    sp.add_argument(
        "--method",
        default="explicit-euler",
        choices=[m.replace("_", "-") for m in stability.METHODS],
    )
    sp.add_argument("--h", type=float, default=None)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--x0", default=None)
    sp.add_argument("--report", action="store_true", help="attach per-step stability columns")
    sp.add_argument("--scan", action="store_true", help="bisect for the blow-up threshold")
    sp.add_argument("--h-lo", type=float, default=None)
    sp.add_argument("--h-hi", type=float, default=None)
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.set_defaults(func=_cmd_integrate)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # Overflow and NaN are judged by the solvers' statuses, not printed as warnings.
        with np.errstate(all="ignore"):
            return args.func(args)
    except SystemExit:  # --help printed its text; a usage error raises ValueError instead
        return EXIT_OK
    except MemoryError:
        sys.stderr.write("error: input too large for memory\n")
        return EXIT_USAGE
    except (DomainError, np.linalg.LinAlgError, FloatingPointError) as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
