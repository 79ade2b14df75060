"""Direct nonlinear Jacobi, Gauss-Seidel and SOR sweeps on polynomial systems.

Each sweep assembles the state-dependent matrix a = A(U) at the sweep-start
iterate and targets a U = -F.  Coefficients stay frozen within a sweep; only
the solved components use the partially updated iterate (Gauss-Seidel, SOR).
No linearization step is involved: the linear-form identity supplies the
matrix-vector separation the classical iterations need.
"""

from dataclasses import dataclass

import numpy as np

from .system import diverged
from .trace import SolverTrace

__all__ = ["IterativeOptions", "iterative_solve", "sweep_once"]

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
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.omega <= 2.0:
            raise ValueError(f"omega must lie in (0, 2], got {self.omega}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


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


def _sweep(a, b, U, method, omega):
    n = U.size
    if method == "jacobi":
        diag = np.diag(a)
        off = a - np.diag(diag)
        return (b - off @ U) / diag
    U_new = U.copy()
    for i in range(n):
        sigma = a[i, :i] @ U_new[:i] + a[i, i + 1 :] @ U[i + 1 :]
        gs_val = (b[i] - sigma) / a[i, i]
        if method == "gauss_seidel":
            U_new[i] = gs_val
        else:  # sor
            U_new[i] = (1.0 - omega) * U[i] + omega * gs_val
    return U_new


def sweep_once(s, U, method="gauss_seidel", omega=1.0):
    """One full sweep at iterate U; returns (U_new, permutation).

    Equations whose diagonal entry of A(U) is at or below PIVOT_TOL are
    row-interchanged first; the permutation lists the row order used.
    Raises SingularPivotError if no interchange fixes a diagonal.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    U = np.asarray(U, dtype=float).ravel()
    a = s.linearized_matrix(U).A.copy()
    b = -s.const.copy()
    perm = _pivot(a, b)
    return _sweep(a, b, U, method, omega), perm


def iterative_solve(s, U0, opts=None):
    """Run sweeps until the residual infinity norm drops below opts.tol."""
    opts = opts or IterativeOptions()
    U = np.asarray(U0, dtype=float).ravel()
    if U.size != s.n:
        raise ValueError(f"U0 length {U.size} != system dimension {s.n}")
    if not np.all(np.isfinite(U)):
        raise ValueError("U0 contains non-finite entries")

    trace = SolverTrace()

    def record(u):
        trace.iterates.append(u.copy())
        trace.residual_norms.append(float(np.linalg.norm(s.eval(u), np.inf)))
        return trace.residual_norms[-1]

    res = record(U)
    for k in range(opts.max_iter):
        if res <= opts.tol:
            break
        try:
            U, trace.permutation = sweep_once(s, U, opts.method, opts.omega)
        except SingularPivotError as exc:
            trace.status = "singular_pivot"
            trace.failure_index = exc.row
            return trace
        res = record(U)
        if not np.isfinite(res) or diverged(U):
            trace.status = "diverged"
            trace.failure_index = k
            return trace
    trace.status = "converged" if res <= opts.tol else "max_iter_exceeded"
    return trace
