import re

import numpy as np
import pytest

from polyjac import (
    DiagScale,
    DomainError,
    ElementwiseFunction,
    HadamardPower,
    HadamardProduct,
    LinearMap,
    State,
    Sum,
    burgers_discretize,
    h_eval,
    h_jacobian,
    load_hexpr_json,
    lower_to_poly,
    row_scale,
    col_scale,
    system,
)

from conftest import fd_jacobian


def analogue_trees(rng, n):
    """The pointwise nonlinear-operator analogues exercised everywhere.

    c o (A U); (A U)^q; (A U^m) o (B U^p); sin(A U); exp(A U).
    """
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    c = rng.standard_normal(n)
    return [
        DiagScale(c, LinearMap(A)),
        HadamardPower(LinearMap(A), 2.0),
        HadamardProduct(LinearMap(A, HadamardPower(State(), 2.0)), LinearMap(B, HadamardPower(State(), 3.0))),
        ElementwiseFunction("sin", LinearMap(A)),
        ElementwiseFunction("exp", LinearMap(A)),
    ]


def jac_rel_error(tree, U):
    J = h_jacobian(tree, U)
    J_fd = fd_jacobian(lambda V: h_eval(tree, V), U)
    return np.abs(J - J_fd).max() / (1.0 + np.abs(J).max())


class TestEval:
    def test_product_of_identity_maps(self):
        tree = HadamardProduct(LinearMap(np.eye(2)), LinearMap(np.eye(2)))
        np.testing.assert_allclose(h_eval(tree, [2.0, 3.0]), [4.0, 9.0])

    def test_power_with_identity_map(self, rng):
        tree = HadamardPower(LinearMap(np.eye(4)), 2.0)
        U = rng.standard_normal(4)
        np.testing.assert_allclose(h_eval(tree, U), U * U, rtol=1e-15)

    def test_sum_weights(self, rng):
        A = rng.standard_normal((3, 3))
        tree = Sum(children=(LinearMap(A), State()), weights=(2.0, -1.0))
        U = rng.standard_normal(3)
        np.testing.assert_allclose(h_eval(tree, U), 2.0 * A @ U - U, rtol=1e-14)

    @pytest.mark.parametrize("f", [h_eval, h_jacobian], ids=["h_eval", "h_jacobian"])
    @pytest.mark.parametrize(
        "tree, U, messages",
        [
            (HadamardPower(State(), -1.0), [1.0, 0.0], ("negative power -1.0 of zero entry", "negative power -2.0 of zero entry")),
            (HadamardPower(State(), -2.0), [0.0], ("negative power -2.0 of zero entry", "negative power -3.0 of zero entry")),
            (DiagScale([2.0], HadamardPower(State(), -2.0)), [0.0], ("negative power -2.0 of zero entry", "negative power -3.0 of zero entry")),
            (HadamardPower(State(), 0.5), [-1.0], ("fractional power 0.5 of negative entry", "fractional power -0.5 of negative entry")),
            (DiagScale([2.0], HadamardPower(State(), 0.5)), [0.0], (None, "negative power -0.5 of zero entry")),
        ],
        ids=["U^-1", "U^-2", "2U^-2", "U^0.5-at-negative", "2U^0.5-at-zero"],
    )
    def test_negative_power_of_zero_raises(self, f, tree, U, messages):
        # the value fails at the exponent q, the Jacobian at q - 1: 2 U**0.5 has a value at 0, but no derivative
        message = messages[f is h_jacobian]
        if message is None:
            assert np.array_equal(f(tree, U), [0.0])
            return
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            f(tree, U)

    def test_overflow_passes_through_the_jacobian(self):
        # exp(800) overflows: the Jacobian carries the inf as the value does, under a DiagScale too
        tree = DiagScale([2.0], ElementwiseFunction("exp", LinearMap([[800.0]])))
        with np.errstate(over="ignore"):
            assert np.array_equal(h_eval(tree, [1.0]), [np.inf])
            assert np.array_equal(h_jacobian(tree, [1.0]), [[np.inf]])


class TestJacobian:
    def test_product_rule_structure(self, rng):
        Ax, Ay = rng.standard_normal((2, 5, 5))
        tree = HadamardProduct(LinearMap(Ax), LinearMap(Ay))
        U = rng.standard_normal(5)
        expected = row_scale(Ax, Ay @ U) + row_scale(Ay, Ax @ U)
        np.testing.assert_allclose(h_jacobian(tree, U), expected, rtol=1e-13)
        assert jac_rel_error(tree, U) < 1e-6

    def test_exp_structure(self, rng):
        A = rng.standard_normal((4, 4))
        tree = ElementwiseFunction("exp", LinearMap(A))
        U = 0.3 * rng.standard_normal(4)
        np.testing.assert_allclose(h_jacobian(tree, U), row_scale(A, np.exp(A @ U)), rtol=1e-13)

    def test_sin_structure(self, rng):
        A = rng.standard_normal((4, 4))
        tree = ElementwiseFunction("sin", LinearMap(A))
        U = rng.standard_normal(4)
        np.testing.assert_allclose(h_jacobian(tree, U), row_scale(A, np.cos(A @ U)), rtol=1e-13)

    def test_map_of_power_uses_column_scaling(self, rng):
        # d/dU of A (U^m) is A diag(m U^(m-1))
        A = rng.standard_normal((4, 4))
        m = 3
        tree = LinearMap(A, HadamardPower(State(), float(m)))
        U = rng.standard_normal(4)
        expected = col_scale(m * U ** (m - 1), A)
        np.testing.assert_allclose(h_jacobian(tree, U), expected, rtol=1e-13)
        assert jac_rel_error(tree, U) < 1e-6

    def test_analogue_corpus_matches_finite_differences(self, rng):
        for tree in analogue_trees(rng, 4):
            for _ in range(20):
                U = rng.uniform(0.3, 1.5, size=4)
                assert jac_rel_error(tree, U) < 1e-6

    def test_triple_product_identity(self, rng):
        # J(U) U = 3 * value for a product of three linear maps
        maps = rng.standard_normal((3, 4, 4))
        tree = HadamardProduct(*[LinearMap(A) for A in maps])
        U = rng.standard_normal(4)
        val = h_eval(tree, U)
        resid = np.abs(h_jacobian(tree, U) @ U - 3.0 * val).max()
        assert resid <= 1e-10 * (1.0 + np.abs(val).max())

    def test_degree_four_homogeneity_identity(self, rng):
        # the identity extends inductively: J(U) U = 4 * value at degree 4
        A = rng.standard_normal((4, 4))
        tree = HadamardPower(LinearMap(A), 4.0)
        U = rng.standard_normal(4)
        val = h_eval(tree, U)
        resid = np.abs(h_jacobian(tree, U) @ U - 4.0 * val).max()
        assert resid <= 1e-10 * (1.0 + np.abs(val).max())


class TestBurgers:
    def test_constant_state_annihilated(self):
        sd = burgers_discretize(8, 10.0)
        np.testing.assert_allclose(h_eval(sd.rhs, np.full(8, 3.7)), np.zeros(8), atol=1e-12)

    def test_matches_hand_assembly(self):
        n, Re = 8, 10.0
        sd = burgers_discretize(n, Re)
        x = np.arange(n) / n
        U = np.sin(2 * np.pi * x)
        expected = sd.second_diff @ U / Re - U * (sd.first_diff @ U)
        np.testing.assert_allclose(h_eval(sd.rhs, U), expected, rtol=1e-13, atol=1e-14)

    def test_jacobian_structure(self):
        n, Re = 8, 10.0
        sd = burgers_discretize(n, Re)
        U = np.sin(2 * np.pi * np.arange(n) / n)
        A, B = sd.first_diff, sd.second_diff
        expected = B / Re - np.diag(A @ U) - row_scale(A, U)
        np.testing.assert_allclose(h_jacobian(sd.rhs, U), expected, rtol=1e-12, atol=1e-13)
        assert jac_rel_error(sd.rhs, U) < 1e-6

    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            burgers_discretize(3, 10.0)


class TestLowering:
    def test_pure_linear_map(self, rng):
        A = rng.standard_normal((3, 3))
        s = lower_to_poly(LinearMap(A), 3)
        np.testing.assert_allclose(s.L, A, rtol=1e-15)
        assert not np.any(s.quad) and not np.any(s.cubic) and not np.any(s.const)

    def test_burgers_structure(self):
        n, Re = 8, 10.0
        sd = burgers_discretize(n, Re)
        s = lower_to_poly(sd.rhs, n)
        np.testing.assert_allclose(s.L, sd.second_diff / Re, rtol=1e-14)
        A = sd.first_diff
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    expected = -0.5 * ((i == j) * A[i, k] + (i == k) * A[i, j])
                    assert abs(s.quad[i, j, k] - expected) < 1e-14

    def test_fidelity_eval_and_jacobian(self, rng):
        sd = burgers_discretize(8, 25.0)
        s = lower_to_poly(sd.rhs, 8)
        for _ in range(50):
            U = rng.standard_normal(8)
            v = h_eval(sd.rhs, U)
            assert np.linalg.norm(s.eval(U) - v) <= 1e-12 * (1.0 + np.linalg.norm(v))
            J = h_jacobian(sd.rhs, U)
            assert np.abs(s.jacobian(U) - J).max() <= 1e-10 * (1.0 + np.abs(J).max())

    def test_nonlinear_part_identity_through_lowering(self, rng):
        # the lowered quadratic/cubic split reproduces the nonlinear value
        # through the half/third Jacobian contractions
        sd = burgers_discretize(6, 10.0)
        s = lower_to_poly(sd.rhs, 6)
        U = rng.standard_normal(6)
        n2, n3 = s.nonlinear_parts(U)
        st = s.at(U)
        half_thirds = 0.5 * (2 * st.M2) @ U + (3 * st.M3) @ U / 3.0
        np.testing.assert_allclose(half_thirds, n2 + n3, rtol=1e-12, atol=1e-13)

    def test_triple_product_lowering(self, rng):
        maps = rng.standard_normal((3, 4, 4))
        tree = HadamardProduct(*[LinearMap(A) for A in maps])
        s = lower_to_poly(tree, 4)
        for _ in range(10):
            U = rng.standard_normal(4)
            np.testing.assert_allclose(s.eval(U), h_eval(tree, U), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rows", [1, 3], ids=["crossing", "map-of-crossing"])
    def test_dense_limit_rejects_a_cubic(self, monkeypatch, rows):
        # the limit sits one float below a (rows, 4, 4, 4) tensor: the cubic
        # crossing, or the map of a one-row crossing to three rows, is refused
        monkeypatch.setattr(system, "DENSE_LIMIT_BYTES", 8 * rows * 4**3 - 8)
        cubic = HadamardProduct(*[LinearMap(np.ones((1, 4)))] * 3)
        tree = LinearMap(np.ones((4, rows)), cubic if rows == 1 else LinearMap(np.ones((rows, 1)), cubic))
        with pytest.raises(ValueError, match=rf"shape \({rows}, 4, 4, 4\).*limit"):
            lower_to_poly(tree, 4)
        monkeypatch.setattr(system, "DENSE_LIMIT_BYTES", 8 * 4**4)
        assert lower_to_poly(tree, 4).cubic.shape == (4, 4, 4, 4)

    def test_non_polynomial_rejected(self):
        with pytest.raises(ValueError, match="non-polynomial"):
            lower_to_poly(ElementwiseFunction("sin", LinearMap(np.eye(3))), 3)
        with pytest.raises(ValueError, match="non-polynomial"):
            lower_to_poly(HadamardPower(LinearMap(np.eye(3)), 0.5), 3)

    def test_degree_overflow_rejected(self, rng):
        A = rng.standard_normal((3, 3))
        quartic = HadamardProduct(
            HadamardPower(LinearMap(A), 2.0), HadamardPower(LinearMap(A), 2.0)
        )
        with pytest.raises(ValueError, match="degree"):
            lower_to_poly(quartic, 3)


class TestJsonLoader:
    def test_round_trip_evaluation(self, rng):
        A = rng.standard_normal((3, 3)).tolist()
        spec = {
            "op": "sum",
            "children": [
                {"op": "linear", "matrix": A},
                {"op": "hproduct", "children": [{"op": "state"}, {"op": "linear", "matrix": A}]},
            ],
            "weights": [1.0, -1.0],
        }
        tree = load_hexpr_json(spec)
        U = rng.standard_normal(3)
        expected = np.asarray(A) @ U - U * (np.asarray(A) @ U)
        np.testing.assert_allclose(h_eval(tree, U), expected, rtol=1e-13)

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown expression op"):
            load_hexpr_json({"op": "nope"})
