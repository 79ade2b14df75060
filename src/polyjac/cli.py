"""Command-line front end: solve, check-jacobian, stability, integrate.

Exit codes are a stable scripting contract: 0 success, 1 usage or IO error,
2 numerical failure (non-convergence, divergence, singular solve).
"""

import argparse
import json
import sys

import numpy as np

from . import presets
from .expressions import SemiDiscreteIVP, _infer_dim, h_eval, load_hexpr_json, lower_to_poly
from .quasi_newton import QNOptions, qn_solve
from .relaxation import IterativeOptions, iterative_solve
from .pseudo_jacobian import NonlinearRhs, decompose, pj_step_bound_explicit
from .stability import (
    IVP,
    burgers_step_bound,
    integrate,
    is_negative_definite,
    scan_blowup_threshold,
    step_bound_explicit_euler,
    step_bound_rk4,
)
from .system import jacobian_deviation, load_system_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class CliError(Exception):
    """Usage or IO failure; maps to exit code 1."""


def _load_input(path, n=None, Re=None):
    """Resolve an input token to (PolySystem or None, SemiDiscreteIVP or None)."""
    if path == "circle-cubic":
        return presets.circle_cubic_system(), None
    if path == "burgers":
        sd = presets.burgers_preset(n or 32, Re or 100.0)
        return lower_to_poly(sd.rhs, sd.n), sd
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read input: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}") from exc
    if isinstance(data, dict) and "rhs" in data:
        try:
            rhs = load_hexpr_json(data["rhs"])
            sd = SemiDiscreteIVP(n=int(data["n"]), rhs=rhs, description=data.get("description", ""))
        except (KeyError, ValueError, TypeError) as exc:
            raise CliError(f"bad expression input: {exc}") from exc
        dim = _infer_dim(rhs)
        if dim is not None and dim != sd.n:
            raise CliError(f"bad expression input: tree has dimension {dim}, 'n' is {sd.n}")
        try:
            with np.errstate(all="ignore"):
                out_len = h_eval(rhs, np.ones(sd.n)).size
        except (ValueError, TypeError) as exc:
            raise CliError(f"bad expression input: {exc}") from exc
        if out_len != sd.n:
            raise CliError(f"bad expression input: tree has output length {out_len}, 'n' is {sd.n}")
        try:
            poly = lower_to_poly(sd.rhs, sd.n)
        except (ValueError, TypeError):
            poly = None
        return poly, sd
    try:
        return load_system_json(data), None
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad system input: {exc}") from exc


def _parse_state(text, n):
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise CliError(f"bad state {text!r}: {exc}") from exc
    if len(vals) != n:
        raise CliError(f"state has {len(vals)} entries, system dimension is {n}")
    return np.array(vals)


def _emit(text, out):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_solve(args):
    system, _ = _load_input(args.input, args.n, args.re)
    if system is None:
        raise CliError("solve requires a polynomial system input")
    n = system.n
    U0 = _parse_state(args.x0, n) if args.x0 else np.ones(n)
    method = args.method.replace("-", "_")
    if method in ("newton", "classic_rank1", "modified_rank1"):
        opts = QNOptions(variant=method, tol=args.tol, max_iter=args.max_iter)
        trace = qn_solve(system, U0, opts)
    else:
        opts = IterativeOptions(
            method=method, omega=args.omega, tol=args.tol, max_iter=args.max_iter
        )
        trace = iterative_solve(system, U0, opts)
    _emit(trace.to_csv() if args.format == "csv" else trace.to_json(), args.out)
    return EXIT_OK if trace.status == "converged" else EXIT_NUMERICAL


def _cmd_check_jacobian(args):
    system, _ = _load_input(args.input, args.n, args.re)
    if system is None:
        raise CliError("check-jacobian requires a polynomial system input")
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
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise CliError(f"cannot read jacobian matrix: {exc}") from exc
        if J_hat_fixed.shape != (n, n):
            raise CliError(f"jacobian matrix must be {n}x{n}, got {J_hat_fixed.shape}")

    rows = []
    for U in states:
        J = system.jacobian(U)
        J_fd = _central_difference_jacobian(system.eval, U, args.fd_step)
        scale = 1.0 + np.abs(J).max()
        fd_err = float(np.abs(J - J_fd).max() / scale)
        r2, r3 = system.euler_residuals(U)
        J_hat = J_hat_fixed if J_hat_fixed is not None else J_fd
        try:
            dev = jacobian_deviation(system, U, J_hat)
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
    _emit(json.dumps(summary, indent=2), args.out)
    return EXIT_OK


def _central_difference_jacobian(f, U, step=None):
    n = U.size
    J = np.zeros((n, n))
    for j in range(n):
        h = (step if step else 1e-6) * (1.0 + abs(U[j]))
        up = U.copy()
        dn = U.copy()
        up[j] += h
        dn[j] -= h
        J[:, j] = (f(up) - f(dn)) / (2.0 * h)
    return J


def _cmd_stability(args):
    system, sd = _load_input(args.input, args.n, args.re)
    if system is None:
        raise CliError("stability requires a polynomial (or lowerable) input")
    n = system.n
    if args.state:
        U = _parse_state(args.state, n)
    elif sd is not None and sd.reynolds is not None:
        U = presets.burgers_initial_state(n)
    else:
        U = np.ones(n)
    A = system.linearized_matrix(U).A
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
    if sd is not None and sd.reynolds is not None:
        report["burgers_a_priori_bound"] = burgers_step_bound(sd, U, norm_kind="linf")
    if not np.any(U == 0.0):
        rhs = NonlinearRhs(L=system.L, N=lambda t, V: sum(system.nonlinear_parts(V)))
        form = decompose(rhs, 0.0, U)
        relaxed, tight = pj_step_bound_explicit(form, "linf")
        report["pseudo_jacobian_bound_relaxed"] = relaxed
        report["pseudo_jacobian_bound_tight"] = tight
    _emit(json.dumps(report, indent=2), args.out)
    return EXIT_OK


def _cmd_integrate(args):
    system, sd = _load_input(args.input, args.n, args.re)
    source = sd if sd is not None else system
    if source is None:
        raise CliError("integrate requires a system or expression input")
    n = sd.n if sd is not None else system.n
    if args.x0:
        U0 = _parse_state(args.x0, n)
    elif sd is not None and sd.reynolds is not None:
        U0 = presets.burgers_initial_state(n)
    else:
        U0 = np.ones(n)
    ivp = IVP(source, U0)
    method = args.method.replace("-", "_")

    if args.scan:
        if args.h_lo is None or args.h_hi is None:
            raise CliError("--scan requires --h-lo and --h-hi")
        try:
            threshold = scan_blowup_threshold(ivp, method, args.h_lo, args.h_hi, args.horizon)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        report = {"method": method, "blowup_threshold": threshold, "horizon": args.horizon}
        if sd is not None and sd.reynolds is not None:
            report["a_priori_bound"] = burgers_step_bound(sd, U0, norm_kind="linf")
        _emit(json.dumps(report, indent=2), args.out)
        return EXIT_OK

    if args.h is None:
        raise CliError("--h is required unless --scan is given")
    traj = integrate(ivp, method, args.h, args.steps, report=args.report)
    _emit(traj.to_json() if args.format == "json" else traj.to_csv(), args.out)
    if traj.status != "completed":
        sys.stderr.write(f"integration {traj.status} at step {traj.failure_step}\n")
        return EXIT_NUMERICAL
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="polyjac",
        description="Solvers and stability analysis for polynomial-only nonlinear systems.",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
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
        choices=("newton", "classic-rank1", "modified-rank1", "jacobi", "gauss-seidel", "sor"),
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
    sp.add_argument("--fd-step", type=float, default=None)
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
        choices=("explicit-euler", "rk4", "implicit-euler", "semi-implicit-euler"),
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
