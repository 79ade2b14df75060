"""Rank-one pseudo-Jacobian decomposition for arbitrary nonlinearities.

Any rhs L U + N(t, U) can be written (L + w v^T) U with w = N(t, U) and
v = (1/n) elementwise-reciprocal of U, because v^T U = 1.  The rank-one
matrix w v^T reproduces the nonlinearity at U without any differentiation,
which yields step-size bounds and cheap implicit steps via Sherman-Morrison.
States with zero components are shifted first.
"""

from dataclasses import dataclass

import numpy as np

from .stability import EULER_REAL_AXIS, _limit, _matrix_norm
from .system import _frozen, _solve, _square, _state, _vector

__all__ = [
    "NonlinearRhs",
    "decompose",
    "pj_step_bound_explicit",
    "pj_implicit_step",
    "deviation_matrix",
    "pseudo_jacobian_of_poly",
]

SM_DENOM_GUARD = 1e-12  # smallest usable Sherman-Morrison denominator in pj_implicit_step


@dataclass(frozen=True, eq=False)
class NonlinearRhs:
    """dU/dt = L U + N(t, U) with a caller-supplied nonlinearity."""

    L: np.ndarray
    N: callable

    def __post_init__(self):
        object.__setattr__(self, "L", _frozen(_square(self.L, "L")))


@dataclass(frozen=True, eq=False)
class RankOneForm:
    """L + w v^T built at a fixed state, with (w v^T) U_at = w."""

    L: np.ndarray
    w: np.ndarray
    v: np.ndarray
    U_at: np.ndarray
    shift: np.ndarray = None

    def matrix(self):
        return self.L + np.outer(self.w, self.v)


def decompose(rhs, t, U):
    """Build the rank-one form at state U, shifting away zero components.

    Components with |U_i| <= zero_tol = 1e-8 (1 + ||U||_inf) move by
    2*zero_tol in the direction of their sign (positive for exact zeros); the
    decomposition then represents the system at the shifted state, which the
    returned form records.
    """
    U = _state(_frozen(U, "U"), rhs.L.shape[0])
    n = U.size
    zero_tol = 1e-8 * (1.0 + np.linalg.norm(U, np.inf))
    offenders = np.abs(U) <= zero_tol
    shift = None
    U_at = U
    if np.any(offenders):
        shift = np.zeros(n)
        signs = np.where(U[offenders] >= 0.0, 1.0, -1.0)
        shift[offenders] = 2.0 * zero_tol * signs
        U_at = U + shift
    if (w := _vector(rhs.N(t, U_at))).shape != U.shape:
        raise ValueError(f"N(t, U) length {w.size} != system dimension {n}")
    v = (1.0 / n) / U_at
    return RankOneForm(L=rhs.L, w=w, v=v, U_at=U_at, shift=shift)


def pj_step_bound_explicit(form, norm_kind="linf"):
    """Explicit-Euler bounds from the rank-one form.

    Returns (relaxed, tight): 2/(||L|| + ||w v^T||) via the triangle
    inequality, and 2/||L + w v^T|| on the assembled matrix.  The relaxed
    bound never exceeds the tight one; a zero norm gives inf.
    """
    Lnrm = _matrix_norm(form.L, norm_kind)
    # induced norm of the outer product: ||w||_inf ||v||_1 (linf) or
    # ||w||_1 ||v||_inf (l1)
    if norm_kind == "linf":
        rank1 = np.linalg.norm(form.w, np.inf) * np.linalg.norm(form.v, 1)
    else:
        rank1 = np.linalg.norm(form.w, 1) * np.linalg.norm(form.v, np.inf)
    return _limit(EULER_REAL_AXIS, Lnrm + rank1), _limit(EULER_REAL_AXIS, _matrix_norm(form.matrix(), norm_kind))


def pj_implicit_step(form, U_n, h):
    """One implicit Euler step [I - (L + w v^T) h]^{-1} U_n.

    Computed with one dense solve against I - L h plus a Sherman-Morrison
    rank-one correction; the full matrix is never inverted.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    U_n = _state(U_n, form.L.shape[0])
    M = np.eye(U_n.size) - h * form.L
    try:
        x0 = _solve(M, U_n)
        z = _solve(M, form.w)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular I - L h at step size {h}") from exc
    denom = 1.0 - h * float(form.v @ z)
    if abs(denom) <= SM_DENOM_GUARD:
        raise ValueError(f"Sherman-Morrison denominator {denom:.3e} below guard")
    return x0 + (h * float(form.v @ x0) / denom) * z


def deviation_matrix(U):
    """The rank-one matrix p(U)[j, k] = (1/n) U_j / U_k; satisfies p(U) U = U.

    Links the pseudo-Jacobian to the exact nonlinear-part Jacobian of a
    polynomial system: pseudo = exact @ p(U).
    """
    U = _frozen(U, "U").ravel()
    if np.any(U == 0.0):
        raise ValueError("U has a zero entry; deviation matrix undefined")
    return (1.0 / U.size) * np.outer(U, 1.0 / U)


def pseudo_jacobian_of_poly(s, U):
    """Pseudo-Jacobian of a polynomial system's nonlinear part.

    Equals [2 N2(U) + 3 N3(U)] (1/n) (1/U)^T, i.e. the exact nonlinear-part
    Jacobian post-multiplied by deviation_matrix(U); both act identically
    on U itself.
    """
    U = _state(_frozen(U, "U"), s.n)
    if np.any(U == 0.0):
        raise ValueError("U has a zero entry; pseudo-Jacobian undefined")
    n2, n3 = s.nonlinear_parts(U)
    return np.outer(2.0 * n2 + 3.0 * n3, (1.0 / U.size) / U)
