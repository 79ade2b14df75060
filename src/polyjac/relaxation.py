"""Direct nonlinear Jacobi, Gauss-Seidel and SOR sweeps on polynomial systems.

A sweep reads a = A(U) and the residual f = a U + F of a U = -F from one contraction at
its start, PolySystem._linear_system (the linear-form identity: nothing is linearized), so
a state where that sum is exactly zero is a fixed point.  It row-interchanges a and f where a pivot collapses
and returns U - delta: Jacobi takes delta = f / D, with D the diagonal of a; Gauss-Seidel
(omega = 1) and SOR solve the triangular (D + omega L) delta = omega f, L the strict lower part of a."""

from dataclasses import dataclass
import functools
import math

import numpy as np

from .system import _solve, _state, diverged
from .trace import SolverTrace, check_stop, start_state

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
        check_stop(self.tol, self.max_iter)


def _check_sweep(method, omega):
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if not 0.0 < omega <= 2.0:
        raise ValueError(f"omega must lie in (0, 2], got {omega}")


class SingularPivotError(ValueError):
    def __init__(self, row):
        super().__init__(f"zero diagonal at row {row} and no row interchange fixes it")
        self.row = row


def _pivot(a, f):
    """Row-interchange equations so every diagonal exceeds PIVOT_TOL.

    For each deficient diagonal, searches rows below (then above) for the
    largest usable entry in that column and swaps the equations: the rows of
    a and the entries of the residual f.  Returns the applied row ordering;
    raises SingularPivotError at the first row still deficient after the swaps.
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
        f[[i, best]] = f[[best, i]]
        perm[i], perm[best] = perm[best], perm[i]
    if bad := [i for i in range(n) if not abs(a[i, i]) > PIVOT_TOL]:  # a later swap can undo an earlier one
        raise SingularPivotError(bad[0])
    return perm


@functools.cache
def _lower(n):
    """Read-only mask of the entries on and below the diagonal of an n x n matrix."""
    mask = np.tri(n, dtype=bool)
    mask.setflags(write=False)
    return mask


def _sweep(U, a, f, method, omega):
    """One sweep at U from a = A(U) and its residual f, both changed in place; returns (U_new, permutation)."""
    perm = _pivot(a, f)
    d = a.diagonal()
    if method == "jacobi":
        return U - f / d, perm
    m = np.where(_lower(d.size), a, 0.0)  # D + L
    if method == "sor":  # D + omega L: the diagonal scaled with the rest is set back
        m *= omega
        f *= omega
        m.flat[:: d.size + 1] = d
    # reversed, m is upper triangular with _pivot's nonzero diagonal: LAPACK swaps no rows and back-substitutes
    return U - _solve(m[::-1, ::-1], f[::-1])[::-1], perm


def sweep_once(s, U, method="gauss_seidel", omega=1.0):
    """One full sweep at iterate U; returns (U_new, permutation).

    The step is solved for from A(U) U + F, so a root U is returned unchanged.
    Equations whose diagonal entry of A(U) is at or below PIVOT_TOL are
    row-interchanged first; the permutation lists the row order used.
    Raises SingularPivotError if no interchange fixes a diagonal, and ValueError for
    a state of another length than s.n, a method outside METHODS or an omega outside (0, 2].
    """
    _check_sweep(method, omega)
    U = _state(U, s.n)
    return _sweep(U, *s._linear_system(U), method, omega)


def iterative_solve(s, U0, opts=None):
    """Run sweeps until ||f(U)||_inf <= opts.tol; each sweep steps from the f it was tested on."""
    opts = opts or IterativeOptions()
    U = start_state(U0, s.n)
    trace = SolverTrace()
    a, f = s._linear_system(U)  # one contraction per iterate: its residual and its sweep's A(U)
    res = trace.record(U, f)
    for k in range(opts.max_iter):
        if res <= opts.tol:
            break
        try:
            U, trace.permutation = _sweep(U, a, f, opts.method, opts.omega)
        except SingularPivotError as exc:
            return trace.end("singular_pivot", exc.row)
        a, f = s._linear_system(U)
        res = trace.record(U, f)
        if not math.isfinite(res) or diverged(U):
            return trace.end("diverged", k)
    return trace.end("converged" if res <= opts.tol else "max_iter_exceeded")
