import math

import numpy as np
import pytest

from polyjac import (
    NonlinearRhs,
    burgers_discretize,
    decompose,
    deviation_matrix,
    pj_implicit_step,
    pj_step_bound_explicit,
    col_scale,
    pseudo_jacobian_of_poly,
    row_scale,
    step_bound_explicit_euler,
)
from polyjac.presets import circle_cubic_system

from conftest import random_poly_system


def square_rhs(L):
    return NonlinearRhs(L=L, N=lambda t, U: U * U)


class TestDecompose:
    def test_elementwise_square_example(self):
        rhs = square_rhs(np.zeros((2, 2)))
        form = decompose(rhs, 0.0, np.array([1.0, 2.0]))
        np.testing.assert_allclose(form.w, [1.0, 4.0])
        np.testing.assert_allclose(form.v, [0.5, 0.25])
        assert form.shift is None

    def test_reproduces_rhs_exactly(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            L = rng.standard_normal((n, n))
            rhs = square_rhs(L)
            U = rng.uniform(0.2, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            form = decompose(rhs, 0.0, U)
            lhs = form.matrix() @ U
            ref = L @ U + U * U
            assert np.linalg.norm(lhs - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))

    def test_zero_component_shifted(self):
        rhs = square_rhs(np.zeros((3, 3)))
        U = np.array([1.0, 0.0, -2.0])
        form = decompose(rhs, 0.0, U)
        assert form.shift is not None
        assert form.shift[0] == 0.0 and form.shift[2] == 0.0
        assert form.shift[1] == pytest.approx(2e-8 * (1.0 + 2.0))  # 2 zero_tol, ||U||_inf = 2
        np.testing.assert_allclose(form.U_at, U + form.shift)
        # the decomposition is exact at the shifted state
        lhs = form.matrix() @ form.U_at
        ref = form.U_at * form.U_at
        assert np.linalg.norm(lhs - ref) <= 1e-12

    def test_negative_near_zero_shifts_negative(self):
        rhs = square_rhs(np.zeros((2, 2)))
        form = decompose(rhs, 0.0, np.array([-1e-9, 1.0]))
        assert form.shift[0] == pytest.approx(-2e-8 * (1.0 + 1.0))

    def test_burgers_nonlinearity(self):
        sd = burgers_discretize(16, 50.0)
        A, B = sd.first_diff, sd.second_diff
        rhs = NonlinearRhs(L=B / 50.0, N=lambda t, U: -U * (A @ U))
        rng = np.random.default_rng(7)
        U = rng.uniform(0.3, 1.2, size=16)
        form = decompose(rhs, 0.0, U)
        ref = B @ U / 50.0 - U * (A @ U)
        assert np.linalg.norm(form.matrix() @ U - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))

    def test_time_dependence_passed_through(self):
        rhs = NonlinearRhs(L=np.zeros((2, 2)), N=lambda t, U: t * U)
        form = decompose(rhs, 3.0, np.array([1.0, 2.0]))
        np.testing.assert_allclose(form.w, [3.0, 6.0])

    @pytest.mark.parametrize(
        "path", [pj_step_bound_explicit, lambda form: pj_implicit_step(form, np.ones(2), 0.1)],
        ids=["pj_step_bound_explicit", "pj_implicit_step"],
    )
    def test_nonlinearity_of_another_length_refused(self, path):
        # refused where w = N(t, U) is read, by both lengths, before either path reads the form
        rhs = NonlinearRhs(L=np.eye(2), N=lambda t, U: np.ones(3))
        with pytest.raises(ValueError, match=r"^N\(t, U\) length 3 != system dimension 2$"):
            path(decompose(rhs, 0.0, np.ones(2)))

    def test_nonfinite_state_rejected(self):
        rhs = square_rhs(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            decompose(rhs, 0.0, np.array([1.0, np.inf]))


class TestStepBounds:
    def test_zero_nonlinearity_reduces_to_linear_bound(self, rng):
        n = 4
        L = rng.standard_normal((n, n))
        rhs = NonlinearRhs(L=L, N=lambda t, U: np.zeros(n))
        U = rng.uniform(0.5, 1.5, size=n)
        relaxed, tight = pj_step_bound_explicit(decompose(rhs, 0.0, U))
        linear = step_bound_explicit_euler(L, "linf")
        assert relaxed == pytest.approx(linear)
        assert tight == pytest.approx(linear)

    def test_relaxed_never_exceeds_tight(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            rhs = square_rhs(rng.standard_normal((n, n)))
            U = rng.uniform(0.2, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            form = decompose(rhs, 0.0, U)
            for kind in ("l1", "linf"):
                relaxed, tight = pj_step_bound_explicit(form, kind)
                assert relaxed <= tight * (1.0 + 1e-13)

    def test_outer_product_norm_is_induced_norm(self, rng):
        # the shortcut ||w|| ||v|| equals the assembled induced norm
        rhs = square_rhs(np.zeros((4, 4)))
        U = rng.uniform(0.3, 1.5, size=4)
        form = decompose(rhs, 0.0, U)
        M = np.outer(form.w, form.v)
        relaxed, tight = pj_step_bound_explicit(form, "linf")
        assert relaxed == pytest.approx(2.0 / np.linalg.norm(M, np.inf))
        assert relaxed == pytest.approx(tight)

    def test_unknown_norm_kind_rejected(self):
        form = decompose(square_rhs(np.eye(2)), 0.0, np.ones(2))
        with pytest.raises(ValueError, match="norm_kind"):
            pj_step_bound_explicit(form, "fro")

    def test_zero_matrix_rejected(self):
        rhs = NonlinearRhs(L=np.zeros((2, 2)), N=lambda t, U: np.zeros(2))
        form = decompose(rhs, 0.0, np.ones(2))
        # a zero matrix imposes no step restriction
        assert pj_step_bound_explicit(form) == (math.inf, math.inf)


class TestImplicitStep:
    def test_matches_dense_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            rhs = square_rhs(-np.eye(n) + 0.2 * rng.standard_normal((n, n)))
            U = rng.uniform(0.2, 1.0, size=n)
            form = decompose(rhs, 0.0, U)
            h = 0.1
            dense = np.linalg.solve(np.eye(n) - h * form.matrix(), U)
            fast = pj_implicit_step(form, U, h)
            assert np.linalg.norm(fast - dense) <= 1e-10 * (1.0 + np.linalg.norm(dense))

    def test_small_step_limit(self, rng):
        rhs = square_rhs(rng.standard_normal((3, 3)))
        U = rng.uniform(0.5, 1.0, size=3)
        form = decompose(rhs, 0.0, U)
        out = pj_implicit_step(form, U, 1e-14)
        np.testing.assert_allclose(out, U, rtol=1e-10)

    def test_zero_nonlinearity_is_plain_implicit_euler(self, rng):
        n = 3
        L = -np.diag([1.0, 2.0, 3.0])
        rhs = NonlinearRhs(L=L, N=lambda t, U: np.zeros(n))
        U = np.ones(n)
        form = decompose(rhs, 0.0, U)
        h = 0.5
        out = pj_implicit_step(form, U, h)
        np.testing.assert_allclose(out, np.linalg.solve(np.eye(n) - h * L, U), rtol=1e-13)

    @pytest.mark.parametrize("h", [math.nan, 0.0, -0.1, math.inf])
    def test_step_must_be_positive_and_finite(self, h):
        form = decompose(square_rhs(-np.eye(2)), 0.0, np.ones(2))
        with pytest.raises(ValueError, match=f"^step h must be positive and finite, got {h}$"):
            pj_implicit_step(form, np.ones(2), h)

    def test_singular_linear_part_named(self):
        rhs = NonlinearRhs(L=np.eye(2), N=lambda t, U: np.zeros(2))
        form = decompose(rhs, 0.0, np.ones(2))
        with pytest.raises(ValueError, match="singular I - L h"):
            pj_implicit_step(form, np.ones(2), 1.0)

    def test_vanishing_sherman_morrison_denominator_named(self):
        # L = 0 and w = v = 1 at U = 1 make 1 - h v.z vanish at h = 1
        form = decompose(NonlinearRhs(L=np.zeros((1, 1)), N=lambda t, U: np.ones(1)), 0.0, np.ones(1))
        with pytest.raises(ValueError, match="^Sherman-Morrison denominator 0.000e\\+00 below guard$"):
            pj_implicit_step(form, np.ones(1), 1.0)


    @pytest.mark.parametrize("gap, trips", [(1e-13, True), (1e-11, False)])
    def test_sherman_morrison_guard_is_1e_12(self, gap, trips):
        # dU/dt = U at U = 1 as L = 0, w = v = 1: the denominator is 1 - h, exact for h = 1 - gap
        form = decompose(NonlinearRhs(L=np.zeros((1, 1)), N=lambda t, U: U), 0.0, np.ones(1))
        h = 1.0 - gap
        if trips:
            with pytest.raises(ValueError, match=f"^Sherman-Morrison denominator {1.0 - h:.3e} below guard$"):
                pj_implicit_step(form, np.ones(1), h)
        else:
            assert pj_implicit_step(form, np.ones(1), h)[0] == pytest.approx(1.0 / (1.0 - h), rel=1e-12)


class TestDeviationMatrix:
    def test_all_ones_state(self):
        np.testing.assert_allclose(deviation_matrix(np.ones(4)), np.full((4, 4), 0.25))

    def test_reproduces_state(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            U = rng.uniform(0.2, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            p = deviation_matrix(U)
            assert np.linalg.norm(p @ U - U) <= 1e-12 * (1.0 + np.linalg.norm(U))

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="zero entry"):
            deviation_matrix(np.array([1.0, 0.0]))


class TestPseudoJacobianOfPoly:
    def test_linear_system_gives_zero(self, rng):
        s = random_poly_system(rng, 3, linear_only=True)
        np.testing.assert_array_equal(pseudo_jacobian_of_poly(s, np.ones(3)), np.zeros((3, 3)))

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="^U has a zero entry; pseudo-Jacobian undefined$"):
            pseudo_jacobian_of_poly(circle_cubic_system(), np.array([1.0, 0.0]))

    def test_circle_cubic_action_at_ones(self):
        s = circle_cubic_system()
        U = np.ones(2)
        pj = pseudo_jacobian_of_poly(s, U)
        # acts on U like the exact nonlinear-part Jacobian: 2 N2 + 3 N3
        np.testing.assert_allclose(pj @ U, [4.0, 2.25])

    def test_factors_through_deviation_matrix(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            s = random_poly_system(rng, n)
            U = rng.uniform(0.2, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            exact_nl = s.jacobian(U) - s.L
            expected = exact_nl @ deviation_matrix(U)
            got = pseudo_jacobian_of_poly(s, U)
            scale = 1.0 + np.abs(expected).max()
            assert np.abs(got - expected).max() <= 1e-10 * scale

    def test_same_action_on_state_as_exact(self, rng):
        s = random_poly_system(rng, 4)
        U = rng.uniform(0.3, 1.5, size=4)
        exact_nl = s.jacobian(U) - s.L
        scale = 1.0 + np.linalg.norm(exact_nl @ U)
        assert np.linalg.norm(pseudo_jacobian_of_poly(s, U) @ U - exact_nl @ U) <= 1e-10 * scale


@pytest.mark.parametrize(
    "helper, name",
    [(lambda: row_scale(np.eye(2), [np.nan, 1.0]), "u"), (lambda: col_scale([np.inf, 1.0], np.eye(2)), "v"),
     (lambda: deviation_matrix([1.0, np.inf]), "U"),
     (lambda: pseudo_jacobian_of_poly(circle_cubic_system(), [1.0, np.inf]), "U")],
    ids=["row_scale", "col_scale", "deviation_matrix", "pseudo_jacobian_of_poly"],
)
def test_non_finite_vector_is_refused_by_name(helper, name):
    # unchecked, a NaN entry gives a NaN row and an inf entry meets numpy's inf * 0 RuntimeWarning
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
        helper()
