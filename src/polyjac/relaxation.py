"""Direct nonlinear Jacobi, Gauss-Seidel and SOR sweeps on polynomial systems.

A sweep assembles a = A(U) at its start (the linear-form identity, so nothing
is linearized), row-interchanges a where a pivot collapses and targets
a U = b = -F.  Jacobi divides by the diagonal D of a; Gauss-Seidel (omega = 1)
and SOR are one lower-triangular solve (D + omega L) U_new = omega (b - U_up U)
+ (1 - omega) D U, with L and U_up the strict lower and upper parts of a."""

from dataclasses import dataclass
import functools
import math

import numpy as np

from .system import diverged
from .trace import SolverTrace, start_state

__all__ = ["IterativeOptions", "SingularPivotError", "iterative_solve", "sweep_once"]

METHODS = ("jacobi", "gauss_seidel", "sor")
PIVOT_TOL = 1e-12  # a diagonal entry of A(U) at or below this is swapped away


@dataclass(frozen=True)
class IterativeOptions:
    """Settings of one iterative_solve run.

    method is "jacobi", "gauss_seidel" or "sor"; omega is the SOR relaxation
    factor in (0, 2].  The solve stops once ||f(U)||_inf <= tol or after
    max_iter sweeps.  Every iterate is recorded in the trace.
    """

    method: str = "gauss_seidel"
    omega: float = 1.0
    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        _check_sweep(self.method, self.omega)
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be at least 0, got {self.max_iter}")


def _check_sweep(method, omega):
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if not 0.0 < omega <= 2.0:
        raise ValueError(f"omega must lie in (0, 2], got {omega}")


class SingularPivotError(ValueError):
    def __init__(self, row):
        super().__init__(f"zero diagonal at row {row} and no row interchange fixes it")
        self.row = row


def _pivot(a, b):
    """Row-interchange equations so every diagonal exceeds PIVOT_TOL.

    For each deficient diagonal, searches rows below (then above) for the
    largest usable entry in that column and swaps the equations.  Returns the
    applied row ordering.
    """
    n = a.shape[0]
    perm = list(range(n))
    if np.abs(np.diagonal(a)).min() > PIVOT_TOL:
        return perm
    for i in range(n):
        if abs(a[i, i]) > PIVOT_TOL:
            continue
        candidates = [j for j in range(i + 1, n)] + [j for j in range(i)]
        best, best_val = None, PIVOT_TOL
        for j in candidates:
            # the swap must leave row i usable without breaking row j's slot
            if abs(a[j, i]) > best_val and abs(a[i, j]) > PIVOT_TOL:
                best, best_val = j, abs(a[j, i])
        if best is None:
            # fall back: any row with a large entry in column i
            for j in candidates:
                if abs(a[j, i]) > best_val:
                    best, best_val = j, abs(a[j, i])
        if best is None:
            raise SingularPivotError(i)
        a[[i, best]] = a[[best, i]]
        b[[i, best]] = b[[best, i]]
        perm[i], perm[best] = perm[best], perm[i]
    return perm


@functools.cache
def _strict_lower(n):
    """Read-only mask of the entries below the diagonal of an n x n matrix."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


def _sweep(st, method, omega):
    """One sweep of A(U) U = -F from the state record st; returns (U_new, permutation)."""
    a, b, U = st.A, -st.s.const, st.U  # a and b are fresh arrays, changed in place
    perm = _pivot(a, b)
    n = U.size
    d = a.diagonal().copy()
    a.flat[:: n + 1] = 0.0
    if method == "jacobi":
        return (b - a @ U) / d, perm
    w = 1.0 if method == "gauss_seidel" else omega
    up = np.where(_strict_lower(n), 0.0, a)  # the strict upper part: a's diagonal is zero
    rhs = w * (b - up @ U) + (1.0 - w) * d * U
    m = (a - up) * w + 0.0  # the + 0.0 of D + omega L: a -0.0 off the diagonal becomes +0.0
    m.flat[:: n + 1] += d
    try:  # reversed, m is upper triangular: LAPACK swaps no rows and back-substitutes
        return np.linalg.solve(m[::-1, ::-1], rhs[::-1])[::-1], perm
    except np.linalg.LinAlgError:
        raise SingularPivotError(int(np.argmin(np.abs(d)))) from None


def sweep_once(s, U, method="gauss_seidel", omega=1.0):
    """One full sweep at iterate U; returns (U_new, permutation).

    Equations whose diagonal entry of A(U) is at or below PIVOT_TOL are
    row-interchanged first; the permutation lists the row order used.
    Raises SingularPivotError if no interchange fixes a diagonal, and
    ValueError for a method outside METHODS or an omega outside (0, 2].
    """
    _check_sweep(method, omega)
    return _sweep(s.at(U), method, omega)


def iterative_solve(s, U0, opts=None):
    """Run sweeps until the residual infinity norm drops below opts.tol."""
    opts = opts or IterativeOptions()
    U = start_state(U0, s.n)
    trace = SolverTrace()
    st = s.at(U)  # one record per iterate: its residual and its sweep's A(U)
    res = trace.record(U, st.f)
    for k in range(opts.max_iter):
        if res <= opts.tol:
            break
        try:
            U, trace.permutation = _sweep(st, opts.method, opts.omega)
        except SingularPivotError as exc:
            return trace.end("singular_pivot", exc.row)
        st = s.at(U)
        res = trace.record(U, st.f)
        if not math.isfinite(res) or diverged(U):
            return trace.end("diverged", k)
    return trace.end("converged" if res <= opts.tol else "max_iter_exceeded")
