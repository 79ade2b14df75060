import numpy as np
import pytest
from hypothesis import settings

from polyjac import PolySystem, system

# Property tests draw the same examples on every run and have no time limit,
# so a slow or busy host cannot make them flaky.
settings.register_profile("polyjac", derandomize=True, deadline=None, database=None)
settings.load_profile("polyjac")


@pytest.fixture
def no_dense_over_limit(monkeypatch):
    """Fail, rather than allocate, an np.zeros or np.bincount request over polyjac's dense limit."""
    zeros, bincount = np.zeros, np.bincount

    def guarded(shape, *args, **kwargs):
        assert 8 * np.prod(shape) <= system.DENSE_LIMIT_BYTES, f"allocates {shape}"
        return zeros(shape, *args, **kwargs)

    def guarded_bincount(x, weights=None, minlength=0):
        assert 8 * minlength <= system.DENSE_LIMIT_BYTES, f"allocates {minlength} bins"
        return bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "zeros", guarded)
    monkeypatch.setattr(np, "bincount", guarded_bincount)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def count_calls(monkeypatch, cls, name):
    """Patch method or property `name` of `cls` to log each call; returns the log."""
    calls = []
    orig = cls.__dict__[name]
    if isinstance(orig, property):
        monkeypatch.setattr(cls, name, property(lambda self: calls.append(self) or orig.fget(self)))
    else:
        monkeypatch.setattr(cls, name, lambda self, *a: calls.append(a) or orig(self, *a))
    return calls


LAYOUTS = ("c", "fortran", "transposed", "strided")


def laid_out(a, layout):
    """a's values in one of LAYOUTS: C order, Fortran order, the last two axes swapped in memory
    (a 1-D a reversed in memory), or every other entry of a wider array; None stays None."""
    if a is None or layout == "c":
        return a
    if layout == "fortran":
        return np.asfortranarray(a)
    if layout == "transposed":
        return a[::-1].copy()[::-1] if a.ndim == 1 else np.swapaxes(np.swapaxes(a, -1, -2).copy(), -1, -2)
    return np.repeat(a, 2, axis=-1)[..., ::2]


def fd_jacobian(f, U, step=1e-6):
    """Central finite differences of a per-state f, step scaled per component by 1 + |U_j|.

    One f call per point: the slow reference for check-jacobian's stacked differences.
    """
    U = np.asarray(U, dtype=float)
    cols = []
    for j in range(U.size):
        h = step * (1.0 + abs(U[j]))
        up = U.copy()
        dn = U.copy()
        up[j] += h
        dn[j] -= h
        cols.append((np.asarray(f(up)) - np.asarray(f(dn))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def random_poly_system(rng, n, scale=1.0, linear_only=False):
    L = scale * rng.standard_normal((n, n))
    if linear_only:
        quad = np.zeros((n, n, n))
        cubic = np.zeros((n, n, n, n))
    else:
        quad = scale * rng.standard_normal((n, n, n))
        cubic = scale * rng.standard_normal((n, n, n, n))
    F = scale * rng.standard_normal(n)
    return PolySystem(L=L, quad=quad, cubic=cubic, const=F)


def diag_dominant_quadratic_system(rng, n, margin=2.0):
    """A quadratic system whose linear form stays diagonally dominant near 1.

    Diagonal mass is at least `margin` times the off-diagonal row mass at the
    root region, so the classical sweeps converge.
    """
    off = 0.3 * rng.standard_normal((n, n))
    np.fill_diagonal(off, 0.0)
    row_mass = np.abs(off).sum(axis=1)
    L = off + np.diag(margin * (row_mass + 1.0) + 1.0)
    quad = np.zeros((n, n, n))
    for i in range(n):
        quad[i, i, i] = 0.1 * rng.uniform(0.5, 1.0)
    F = -rng.uniform(0.5, 1.5, size=n)
    return PolySystem(L=L, quad=quad, cubic=np.zeros((n, n, n, n)), const=F)


def dense_coefficients(s):
    """A system's full symmetric (quad, cubic), rebuilt from its stored orders; zeros for an absent order.

    A packed cubic column p holds w cubic[i, j, k, l] for the p-th pair k <= l, w = 1 if k == l else 2.
    """
    n = s.n
    quad, cubic = np.zeros((n,) * 3), np.zeros((n,) * 4)
    for m, C in s._orders:
        if m == 2:
            quad[...] = C.reshape(quad.shape)
        else:
            r, c = np.triu_indices(n)
            cubic[..., r, c] = cubic[..., c, r] = C.reshape(n, n, -1) / (2 - (r == c))
    return quad, cubic


def reference_values(s, U):
    """The system's quantities at U from plain einsum over the dense tensors.

    The slow reference for PolySystem's contraction path; keyed by method name,
    plus the per-order Jacobians J2 and J3.  s is a PolySystem, or anything
    with L, quad, cubic and const.
    """
    U = np.asarray(U, dtype=float)
    quad, cubic = dense_coefficients(s) if isinstance(s, PolySystem) else (s.quad, s.cubic)
    n2 = np.einsum("ijk,j,k->i", quad, U, U)
    n3 = np.einsum("ijkl,j,k,l->i", cubic, U, U, U)
    J2 = 2.0 * np.einsum("ijk,k->ij", quad, U)
    J3 = 3.0 * np.einsum("ijkl,k,l->ij", cubic, U, U)
    return {
        "eval": s.L @ U + n2 + n3 + s.const,
        "nonlinear_parts": (n2, n3),
        "jacobian": s.L + J2 + J3,
        "linearized_matrix": s.L + 0.5 * J2 + J3 / 3.0,
        "jacobian_action": s.L @ U + 2.0 * n2 + 3.0 * n3,
        "J2": J2,
        "J3": J3,
        "euler_residuals": (
            np.linalg.norm(2.0 * n2 - J2 @ U, np.inf),
            np.linalg.norm(3.0 * n3 - J3 @ U, np.inf),
        ),
    }


def reference_linear_sweep(A, b, U, method, omega):
    """Textbook Jacobi/GS/SOR sweep on a constant linear system."""
    n = U.size
    U_new = U.copy()
    if method == "jacobi":
        for i in range(n):
            sigma = A[i] @ U - A[i, i] * U[i]
            U_new[i] = (b[i] - sigma) / A[i, i]
        return U_new
    for i in range(n):
        sigma = A[i, :i] @ U_new[:i] + A[i, i + 1 :] @ U[i + 1 :]
        val = (b[i] - sigma) / A[i, i]
        U_new[i] = val if method == "gauss_seidel" else (1 - omega) * U[i] + omega * val
    return U_new
