"""Matrix products: ndarray.dot where it has the bits of @, and @ where it does not.

The per-step products of matrices the code makes go through ndarray.dot, which
calls BLAS with less dispatch than the @ gufunc.  For a C-contiguous matrix of
more than one element the two give the same bits; dot multiplies a matrix of one
element as a scalar, so [[-0.65]] . [0.0] reads -0.0 where @ reads +0.0.  These
tests pin that rule on the shapes the code meets, check that a 1 x 1 linear map and
an n = 1 system keep @'s signed zeros on every path that takes dot for larger
matrices, and check that the public rank-one updates keep @'s bits for a matrix
of any layout.  Every expected value is written with @.

The solves in the solvers' loops call system._solve, numpy's LAPACK gufunc under
the errstate of np.linalg.solve; the last tests check it against np.linalg.solve.
"""

import warnings

import numpy as np
import pytest

from polyjac import (
    LinearMap,
    PolySystem,
    QNOptions,
    classic_inverse_update,
    classic_update,
    h_eval,
    h_jacobian,
    integrate,
    modified_inverse_update,
    modified_update,
    qn_solve,
    sweep_once,
)
from polyjac import expressions
from polyjac.stability import IVP
from polyjac.system import _solve


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# every small shape, Burgers n = 24's maps and quadratic, and the packed cubic of n = 8
SHAPES = [(r, c) for r in range(1, 8) for c in range(1, 8)] + [(24, 24), (64, 36), (576, 24)]


def right_operands(rng, c):
    """Vectors of length c and one c x c matrix: plain, zeros of both signs, zeros mixed in, and complex."""
    zeros = np.copysign(0.0, rng.standard_normal(c))
    return [
        rng.standard_normal(c),
        zeros,
        np.where(rng.random(c) < 0.5, zeros, rng.standard_normal(c)),
        rng.standard_normal(c) + 1e-30j * rng.standard_normal(c),  # a complex-step state
        np.where(rng.random((c, c)) < 0.3, 0.0, rng.standard_normal((c, c))),  # a child's Jacobian
    ]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_the_product_used_has_the_bits_of_matmul(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    r, c = shape
    A = np.where(rng.random(shape) < 0.2, np.copysign(0.0, rng.standard_normal(shape)), rng.standard_normal(shape))
    value = expressions._compile(LinearMap(A), c)[1]  # a linear map's product, chosen when the tree compiles
    for x in right_operands(rng, c):
        assert same_bits(value(x), A @ x)
        if A.size > 1:  # a system's products for n > 1, and qn_solve's: ndarray.dot
            assert same_bits(np.ndarray.dot(A, x), A @ x)
    q = np.where(rng.random(r) < 0.3, -0.0, rng.standard_normal(r))
    if A.size > 1:  # q^T Jinv, the inverse update's vector-matrix product
        assert same_bits(np.ndarray.dot(q, A), q @ A)


def test_dot_of_a_one_element_matrix_is_a_scalar_product():
    # why a one-element matrix keeps @: dot gives the product's own signed zero, @ a sum's from +0.0
    A, x = np.array([[-0.65]]), np.array([0.0])
    assert np.signbit(A.dot(x)[0]) and not np.signbit((A @ x)[0])


class TestOneElementKeepsMatmul:
    # Each state below makes some product an exact zero whose sign dot and @ give apart, and the
    # path carries that sign to its answer.

    def test_tree_value_and_jacobian(self):
        A, B, U = np.array([[-0.65]]), np.array([[0.0]]), np.array([2.0])
        assert same_bits(h_eval(LinearMap(A), [0.0]), A @ np.array([0.0]))
        chain = LinearMap(A, LinearMap(B))  # A times the zero B U, and A B
        assert same_bits(h_eval(chain, U), A @ (B @ U)) and not np.signbit(h_eval(chain, U)[0])
        assert same_bits(h_jacobian(chain, U), A @ B) and not np.signbit(h_jacobian(chain, U)[0, 0])

    @staticmethod
    def system():
        # at U = -0.0 each of L U, M2 U and M3 U is -0.0 by dot and +0.0 by @, and F = -0.0 keeps the sign
        return PolySystem(L=[[0.65]], quad=[[[-0.3]]], cubic=[[[[0.2]]]], const=[-0.0])

    @staticmethod
    def terms(s, U):
        """(M2, M3) at U, written with @."""
        return (s.quad.reshape(1, 1) @ U).reshape(1, 1), (s.cubic.reshape(1, 1) @ (U * U)).reshape(1, 1)

    def want_f(self, s, U):
        M2, M3 = self.terms(s, U)
        return s.L @ U + M2 @ U + M3 @ U + s.const

    @pytest.mark.parametrize("u", [0.0, -0.0])
    def test_record(self, u):
        s, U = self.system(), np.array([u])
        st, (M2, M3) = s.at(U), self.terms(s, U)
        assert same_bits(st.M2, M2) and same_bits(st.M3, M3)
        assert same_bits(st.f, self.want_f(s, U))
        assert same_bits(st.fbar, s.L @ U + 2 * (M2 @ U) + 3 * (M3 @ U))

    def test_record_sign_is_matmuls(self):
        st = self.system().at([-0.0])
        assert not np.signbit(st.f[0]) and not np.signbit(st.fbar[0])

    @pytest.mark.parametrize("method", ["jacobi", "gauss_seidel"])
    def test_sweep_once(self, method):
        s, U = self.system(), np.array([-0.0])
        A = s.at(U).A
        residual = A @ U + s.const
        want = U - residual / A.diagonal() if method == "jacobi" else U - np.linalg.solve(A, residual)
        got, _ = sweep_once(s, U, method)
        assert same_bits(got, want) and np.signbit(got[0])

    def newton_system(self, s, h, V):
        """(f(V), I - h J(V)), written with @."""
        M2, M3 = self.terms(s, V)
        return self.want_f(s, V), (np.eye(1) - h * s.L) - M2 * (2 * h) - M3 * (3 * h)

    @pytest.mark.parametrize("h", [0.5, 2.0])
    def test_integrate(self, h):
        # each Newton correction is a zero, so the implicit step stops after its first one; at
        # h = 0.5 that correction erases the predictor's sign, at h = 2.0 (I - h J < 0) it keeps it
        s, U = self.system(), np.array([-0.0])
        f, K = self.newton_system(s, h, U)
        semi = U + h * np.linalg.solve(K, f)
        f, K = self.newton_system(s, h, semi)
        implicit = semi + np.linalg.solve(K, U + h * f - semi)
        for method, want in (("semi_implicit_euler", semi), ("implicit_euler", implicit)):
            traj = integrate(IVP(s, U), method, h, 1)
            assert traj.status == "completed" and same_bits(traj.states[1], want)

    @pytest.mark.parametrize("variant", ["classic_rank1", "modified_rank1"])
    def test_qn_solve_step(self, variant):
        # the step -J^-1 f underflows to a zero, whose sign the start U0 = -0.0 keeps
        s, U = PolySystem(L=[[1e200]], quad=None, cubic=None, const=[1e-200]), np.array([-0.0])
        trace = qn_solve(s, U, QNOptions(variant=variant, tol=1e-300, max_iter=1))
        want = U + (-np.linalg.inv(s.jacobian(U))) @ s.eval(U)
        assert same_bits(trace.iterates[1], want) and not np.signbit(want[0])


def layouts(M):
    """M in C order, reversed, column-strided, row-strided and Fortran order, each with M's values."""
    return {
        "c": M.copy(),
        "reversed": M[::-1, ::-1].copy()[::-1, ::-1],
        "column-strided": np.repeat(M, 2, axis=1)[:, ::2],
        "row-strided": np.repeat(M, 2, axis=0)[::2],
        "fortran": np.asfortranarray(M),
    }


@pytest.mark.parametrize("seed", range(20))
def test_public_updates_keep_matmuls_bits_for_any_layout(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    M, q, y, U_prev = rng.standard_normal((n, n)), rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n)
    U_cur = U_prev + q
    qm = U_cur - U_prev
    qq, t = float(q @ q), float(qm @ U_prev)
    for name, J in layouts(M).items():
        assert same_bits(classic_update(J, q, y), J - (J @ q - y)[:, None] * q / qq), name
        z = J @ y
        assert same_bits(classic_inverse_update(J, q, y), J - (z - q)[:, None] * (q @ J) / (float(q @ z) + 0.0)), name
        assert same_bits(modified_update(J, U_prev, U_cur, y), J - (J @ qm - y)[:, None] * qm / (float(qm @ qm) + t)), name
        z = J @ y
        want = J - (z - qm)[:, None] * (qm @ J) / (float(qm @ z) + t)
        assert same_bits(modified_inverse_update(J, None, U_prev, U_cur, y), want), name


def test_layouts_are_what_they_say():
    M = np.arange(16.0).reshape(4, 4)
    ways = layouts(M)
    assert all(np.array_equal(W, M) for W in ways.values())
    assert ways["reversed"].strides[0] < 0 and not ways["column-strided"].flags.c_contiguous
    assert ways["fortran"].flags.f_contiguous and not ways["fortran"].flags.c_contiguous


def solve_cases(n):
    """K in C order, Fortran order and as the reversed view that _sweep passes, with right-hand sides."""
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n)) + n * np.eye(n)
    zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    b = rng.standard_normal(n)
    b[::2] = zeros[::2]
    for K in (M, np.asfortranarray(M), M[::-1, ::-1]):
        for rhs in (rng.standard_normal(n), zeros, b, b[::-1]):
            yield K, rhs


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20, 24])
def test_solve_has_the_bits_of_linalg_solve(n):
    for K, b in solve_cases(n):
        assert same_bits(_solve(K, b), np.linalg.solve(K, b))


SINGULAR = [np.zeros((1, 1)), np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]])]


@pytest.mark.parametrize("outer", [{}, {"all": "ignore"}, {"all": "raise"}], ids=["default", "ignore", "raise"])
@pytest.mark.parametrize("K", SINGULAR, ids=["1x1", "3x3", "rank-1"])
def test_a_singular_matrix_raises_under_any_errstate(K, outer):
    # cli.main runs under errstate(all="ignore"); the kernel's own errstate decides either way
    with np.errstate(**outer):
        before = np.geterr(), np.geterrcall()
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            _solve(K, np.ones(K.shape[0]))
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            np.linalg.solve(K, np.ones(K.shape[0]))
        assert (np.geterr(), np.geterrcall()) == before


@pytest.mark.parametrize("outer", [{}, {"all": "raise"}], ids=["default", "raise"])
def test_a_nan_matrix_gives_nan_without_error_or_warning(outer):
    K = np.full((3, 3), np.nan)
    with warnings.catch_warnings(), np.errstate(**outer):
        warnings.simplefilter("error")
        before = np.geterr(), np.geterrcall()
        x = _solve(K, np.ones(3))
        assert (np.geterr(), np.geterrcall()) == before
    assert np.isnan(x).all() and same_bits(x, np.linalg.solve(K, np.ones(3)))
