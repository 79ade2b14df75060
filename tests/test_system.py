import itertools
import json
import tracemalloc

import numpy as np
import pytest

from polyjac import PolySystem, burgers_discretize, from_kronecker, load_system_json, lower_to_poly
from polyjac.presets import circle_cubic_system, CIRCLE_CUBIC_ROOT_POS
from polyjac.system import check_dense, diverged

from conftest import random_poly_system, fd_jacobian


def kron_eval(K, G, R, F, C):
    return K @ C + G @ np.kron(C, C) + R @ np.kron(C, np.kron(C, C)) + F


def random_kron_coeffs(rng, n):
    return (
        rng.standard_normal((n, n)),
        rng.standard_normal((n, n * n)),
        rng.standard_normal((n, n * n * n)),
        rng.standard_normal(n),
    )


class TestFromKronecker:
    def test_linear_only(self, rng):
        n = 3
        K = rng.standard_normal((n, n))
        F = rng.standard_normal(n)
        s = from_kronecker(K, np.zeros((n, n * n)), np.zeros((n, n**3)), F)
        C = rng.standard_normal(n)
        np.testing.assert_allclose(s.eval(C), K @ C + F, rtol=1e-14)

    def test_matches_flattened_evaluation(self, rng):
        n = 4
        K, G, R, F = random_kron_coeffs(rng, n)
        s = from_kronecker(K, G, R, F)
        for _ in range(50):
            C = rng.standard_normal(n)
            np.testing.assert_allclose(
                s.eval(C), kron_eval(K, G, R, F, C), rtol=1e-12, atol=1e-12
            )

    def test_symmetrization_invariance(self, rng):
        # an asymmetric quadratic row and its symmetrized version evaluate
        # identically because C kron C is symmetric
        n = 3
        K, G, R, F = random_kron_coeffs(rng, n)
        G_sym = np.stack([(0.5 * (g.reshape(n, n) + g.reshape(n, n).T)).ravel() for g in G])
        s1 = from_kronecker(K, G, R, F)
        s2 = from_kronecker(K, G_sym, R, F)
        for _ in range(50):
            C = rng.standard_normal(n)
            np.testing.assert_allclose(s1.eval(C), s2.eval(C), rtol=1e-12, atol=1e-13)

    def test_circle_cubic_encoding(self):
        s = circle_cubic_system()
        root = np.array(CIRCLE_CUBIC_ROOT_POS)
        assert np.linalg.norm(s.eval(root), np.inf) < 1e-2
        np.testing.assert_allclose(s.eval(root), 0.0, atol=1e-12)

    def test_shape_errors(self, rng):
        with pytest.raises(ValueError, match="G must be"):
            from_kronecker(np.eye(2), np.zeros((2, 3)), np.zeros((2, 8)), np.zeros(2))


class TestCallerArrays:
    def test_constructor_copies_caller_arrays(self):
        L, F = np.eye(2), np.ones(2)
        s = PolySystem(L, np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2)), F)
        assert L.flags.writeable and F.flags.writeable
        L[0, 0], F[0] = 5.0, 5.0
        assert s.L[0, 0] == 1.0 and s.const[0] == 1.0
        assert not s.L.flags.writeable and not s.const.flags.writeable

    @pytest.mark.parametrize(
        "L, quad, cubic, const, message",
        [
            (np.ones((2, 3)), None, None, np.zeros(2), "L must be square"),
            (np.eye(2), np.zeros((2, 2)), None, np.zeros(2), "quad must be"),
            (np.eye(2), None, np.zeros((2, 2, 2)), np.zeros(2), "cubic must be"),
            (np.eye(2), None, None, np.zeros(3), "const must have length 2"),
            (np.array([[1.0, np.inf], [0.0, 1.0]]), None, None, np.zeros(2), "L contains non-finite"),
            (np.eye(2), np.full((2, 2, 2), np.nan), None, np.zeros(2), "quad contains non-finite"),
            (np.eye(2), None, None, [0.0, -np.inf], "const contains non-finite"),
        ],
        ids=["L-not-square", "quad-shape", "cubic-shape", "const-shape", "L-inf", "quad-nan", "const-inf"],
    )
    def test_constructor_rejects_bad_coefficients(self, L, quad, cubic, const, message):
        # from_kronecker and load_system_json check their inputs first, so only a direct build reaches these
        with pytest.raises(ValueError, match=message):
            PolySystem(L, quad, cubic, const)

    def test_from_kronecker_copies_caller_arrays(self):
        K, F = np.eye(2), np.ones(2)
        s = from_kronecker(K, np.zeros((2, 4)), np.zeros((2, 8)), F)
        assert K.flags.writeable and F.flags.writeable
        K[0, 0], F[0] = 5.0, 5.0
        assert s.L[0, 0] == 1.0 and s.const[0] == 1.0


def _peak_bytes(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSymmetrization:
    def test_quad_keeps_the_signed_zeros_of_the_pairwise_average(self, rng):
        quad = rng.choice([-0.0, 0.0, 1.5], size=(4, 4, 4))
        quad[0, 0, 1] = 1.0  # present, whatever the draw
        s = PolySystem(np.eye(4), quad, None, np.zeros(4))
        want = 0.5 * (quad + np.swapaxes(quad, -1, -2))
        assert np.signbit(want[want == 0.0]).any() and not np.signbit(want[want == 0.0]).all()
        np.testing.assert_array_equal(np.signbit(s.quad), np.signbit(want))

    def test_cubic_entry_negative_zero_under_every_permutation_stays_negative_zero(self):
        # The average sums from the identity permutation, so -0.0 + ... + -0.0 stays -0.0;
        # a sum started from 0 would give +0.0, equal in value only.
        cubic = np.full((3, 3, 3, 3), -0.0)
        cubic[1, 0, 1, 2] = 6.0
        cubic[2, 2, 2, 0] = 0.0
        s = PolySystem(np.eye(3), None, cubic, np.zeros(3))
        mixed = np.zeros(cubic.shape, dtype=bool)  # an orbit holding something other than -0.0
        for i, p in ((1, (0, 1, 2)), (2, (2, 2, 0))):
            for q in itertools.permutations(p):
                mixed[(i, *q)] = True
        np.testing.assert_array_equal(s.cubic[1][mixed[1]], 1.0)
        np.testing.assert_array_equal(np.signbit(s.cubic[2][mixed[2]]), False)
        assert np.all(s.cubic[2][mixed[2]] == 0.0) and np.all(np.signbit(s.cubic[~mixed]))


class TestAbsentOrders:
    def test_absent_orders_read_as_read_only_zeros(self):
        s = PolySystem(np.eye(3), None, None, np.ones(3))
        assert s.quad.shape == (3, 3, 3) and s.cubic.shape == (3, 3, 3, 3)
        assert not np.any(s.quad) and not np.any(s.cubic)
        assert not s.quad.flags.writeable and not s.cubic.flags.writeable
        np.testing.assert_array_equal(s.eval(np.arange(3.0)), np.arange(3.0) + 1.0)

    def test_state_matrices_stay_writable(self, rng):
        st = PolySystem(np.eye(2), None, None, np.zeros(2)).at(rng.standard_normal(2))
        for M in (st.A, st.J):
            M[0, 0] = 7.0

    def test_missing_and_empty_fields_are_absent(self):
        doc = {"n": 2, "L": [[1.0, 0.0], [0.0, 1.0]], "quadratic": [], "F": [0.0, 1.0]}
        s = load_system_json(doc)
        # zero-stride views: nothing of size n^3 or n^4 is stored
        assert s.quad.strides == (0,) * 3 and s.cubic.strides == (0,) * 4
        assert s.quad.shape == (2, 2, 2) and s.cubic.shape == (2, 2, 2, 2)

    # One dense 64^4 float tensor is 134 MB; an absent cubic must cost none of it.
    @pytest.mark.parametrize("source", ["burgers-tree", "system-json"])
    def test_no_n4_allocation_without_a_cubic(self, source):
        n = 64
        if source == "burgers-tree":
            rhs = burgers_discretize(n, 100.0).rhs
            build = lambda: lower_to_poly(rhs, n)  # noqa: E731
        else:
            doc = {"n": n, "L": np.eye(n).tolist(), "F": [0.0] * n,
                   "quadratic": [[i, i, (i + 1) % n, 1.0] for i in range(n)]}
            build = lambda: load_system_json(doc)  # noqa: E731
        assert _peak_bytes(build) < 16e6


def _stored_floats(s):
    """Floats in the distinct buffers of every array a system holds, in attributes or tuples."""
    buffers, todo = {}, list(vars(s).values())
    while todo:
        v = todo.pop()
        if isinstance(v, tuple):
            todo.extend(v)
        elif isinstance(v, np.ndarray):
            while v.base is not None:
                v = v.base
            buffers[id(v)] = v.size
    return sum(buffers.values())


class TestPackedCubic:
    def test_dense_system_stores_the_cubic_once_per_symmetric_pair(self, rng):
        n = 20
        s = from_kronecker(*random_kron_coeffs(rng, n))
        # the packed cubic, the quad, L and const; a full cubic alone would be n^4 = 160000
        assert _stored_floats(s) <= n * n * n * (n + 1) // 2 + n**3 + n**2 + n

    def test_cubic_reads_as_an_equal_read_only_symmetric_tensor_on_every_read(self, rng):
        n = 5
        K, G, R, F = random_kron_coeffs(rng, n)
        s = from_kronecker(K, G, R, F)
        raw = R.reshape((n,) * 4)
        want = sum(np.transpose(raw, (0, *p)) for p in itertools.permutations((1, 2, 3))) / 6
        first, second = s.cubic, s.cubic
        for t in (first, second):
            assert t.shape == (n,) * 4 and not t.flags.writeable
            np.testing.assert_array_equal(t, np.swapaxes(t, 2, 3))
            np.testing.assert_allclose(t, want, rtol=1e-14, atol=1e-15)
        np.testing.assert_array_equal(first, second)


class TestEval:
    def test_at_zero_returns_constant(self, rng):
        s = random_poly_system(rng, 4)
        np.testing.assert_array_equal(s.eval(np.zeros(4)), s.const)

    def test_circle_cubic_at_origin(self):
        np.testing.assert_allclose(circle_cubic_system().eval([0.0, 0.0]), [-1.0, 0.9])

    def test_length_mismatch(self, rng):
        s = random_poly_system(rng, 3)
        with pytest.raises(ValueError, match="state length"):
            s.eval(np.ones(4))


class TestJacobian:
    def test_linear_system(self, rng):
        s = random_poly_system(rng, 4, linear_only=True)
        for _ in range(5):
            np.testing.assert_array_equal(s.jacobian(rng.standard_normal(4)), s.L)

    def test_circle_cubic_closed_form(self, rng):
        s = circle_cubic_system()
        for _ in range(10):
            x1, x2 = rng.standard_normal(2)
            expected = np.array([[2 * x1, 2 * x2], [2.25 * x1**2, -1.0]])
            np.testing.assert_allclose(s.jacobian([x1, x2]), expected, rtol=1e-13, atol=1e-13)

    def test_matches_finite_differences(self, rng):
        s = random_poly_system(rng, 5)
        for _ in range(5):
            U = rng.standard_normal(5)
            J = s.jacobian(U)
            J_fd = fd_jacobian(s.eval, U)
            scale = 1.0 + np.abs(J).max()
            assert np.abs(J - J_fd).max() / scale < 1e-6


class TestNonlinearParts:
    def test_zero_state(self, rng):
        s = random_poly_system(rng, 3)
        n2, n3 = s.nonlinear_parts(np.zeros(3))
        assert np.array_equal(n2, np.zeros(3))
        assert np.array_equal(n3, np.zeros(3))

    def test_circle_cubic_at_ones(self):
        n2, n3 = circle_cubic_system().nonlinear_parts([1.0, 1.0])
        np.testing.assert_allclose(n2, [2.0, 0.0])
        np.testing.assert_allclose(n3, [0.0, 0.75])

    def test_homogeneity(self, rng):
        s = random_poly_system(rng, 4)
        U = rng.standard_normal(4)
        n2, n3 = s.nonlinear_parts(U)
        for t in (-2.0, -1.0, 0.5, 3.0):
            m2, m3 = s.nonlinear_parts(t * U)
            np.testing.assert_allclose(m2, t**2 * n2, rtol=1e-12)
            np.testing.assert_allclose(m3, t**3 * n3, rtol=1e-12)

    def test_sum_recovers_eval(self, rng):
        s = random_poly_system(rng, 4)
        U = rng.standard_normal(4)
        n2, n3 = s.nonlinear_parts(U)
        np.testing.assert_allclose(s.L @ U + n2 + n3 + s.const, s.eval(U), rtol=1e-13)


class TestEulerResiduals:
    def test_linear_system_exact_zero(self, rng):
        s = random_poly_system(rng, 3, linear_only=True)
        assert s.euler_residuals(rng.standard_normal(3)) == (0.0, 0.0)

    def test_circle_cubic_at_ones(self):
        s = circle_cubic_system()
        U = np.array([1.0, 1.0])
        st = s.at(U)
        np.testing.assert_allclose((2 * st.M2) @ U, [4.0, 0.0])
        np.testing.assert_allclose((3 * st.M3) @ U, [0.0, 2.25])
        r2, r3 = s.euler_residuals(U)
        assert r2 < 1e-14 and r3 < 1e-14

    def test_random_sweep(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            s = random_poly_system(rng, n)
            U = rng.standard_normal(n)
            r2, r3 = s.euler_residuals(U)
            scale2 = (1.0 + np.linalg.norm(U, np.inf)) ** 2 * (1.0 + np.abs(s.quad).max())
            scale3 = (1.0 + np.linalg.norm(U, np.inf)) ** 3 * (1.0 + np.abs(s.cubic).max())
            assert r2 <= 1e-10 * scale2
            assert r3 <= 1e-10 * scale3


class TestLinearizedMatrix:
    def test_circle_cubic_closed_form(self, rng):
        s = circle_cubic_system()
        for _ in range(5):
            x1, x2 = rng.standard_normal(2)
            form = s.linearized_matrix([x1, x2])
            np.testing.assert_allclose(
                form.A, [[x1, x2], [0.75 * x1**2, -1.0]], rtol=1e-13, atol=1e-13
            )
            np.testing.assert_allclose(
                form.A @ [x1, x2], [x1**2 + x2**2, 0.75 * x1**3 - x2], rtol=1e-12, atol=1e-13
            )

    def test_zero_state_gives_linear_part(self, rng):
        s = random_poly_system(rng, 4)
        np.testing.assert_array_equal(s.linearized_matrix(np.zeros(4)).A, s.L)

    def test_reproduces_eval(self, rng):
        for _ in range(20):
            s = random_poly_system(rng, 5)
            U = rng.standard_normal(5)
            A = s.linearized_matrix(U).A
            lhs = A @ U + s.const
            rhs = s.eval(U)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1.0 + np.linalg.norm(rhs))


class TestJacobianDeviation:
    # PolyState.deviation, the paper's ||fbar - J_hat U|| / ||fbar|| formula
    def test_exact_jacobian_deviates_zero(self, rng):
        s = random_poly_system(rng, 4)
        U = rng.standard_normal(4)
        assert s.at(U).deviation(s.jacobian(U)) < 1e-12

    def test_rank_one_noise_scales_linearly(self, rng):
        s = random_poly_system(rng, 4)
        U = rng.standard_normal(4)
        w, v = rng.standard_normal((2, 4))
        J = s.jacobian(U)
        devs = [s.at(U).deviation(J + eps * np.outer(w, v)) for eps in (1e-4, 1e-3, 1e-2)]
        np.testing.assert_allclose(devs[1] / devs[0], 10.0, rtol=1e-6)
        np.testing.assert_allclose(devs[2] / devs[1], 10.0, rtol=1e-6)

    def test_finite_difference_jacobian_detected(self, rng):
        s = random_poly_system(rng, 4)
        U = rng.standard_normal(4) + 1.0
        devs = []
        for step in (1e-3, 1e-5):
            J_fwd = np.stack(
                [
                    (s.eval(U + step * np.eye(4)[j]) - s.eval(U)) / step
                    for j in range(4)
                ],
                axis=-1,
            )
            devs.append(s.at(U).deviation(J_fwd))
        assert 0.0 < devs[0] < 1e-1
        assert devs[1] < devs[0]

    def test_degenerate_point_raises(self):
        s = circle_cubic_system()
        with pytest.raises(ValueError, match="deviation undefined"):
            s.at(np.zeros(2)).deviation(np.zeros((2, 2)))


class TestJsonFormat:
    def test_sparse_entries_symmetrized(self):
        data = {
            "n": 2,
            "L": [[0.0, 0.0], [0.0, 0.0]],
            "quadratic": [[0, 0, 1, 2.0]],
            "cubic": [],
            "F": [0.0, 0.0],
        }
        s = load_system_json(data)
        # contribution 2 * U0 * U1 to equation 0, split across symmetric slots
        assert s.quad[0, 0, 1] == 1.0 and s.quad[0, 1, 0] == 1.0
        np.testing.assert_allclose(s.eval([3.0, 4.0]), [24.0, 0.0])

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="'L'"):
            load_system_json({"n": 2, "F": [0.0, 0.0]})

    def test_bad_index_named(self):
        data = {"n": 2, "L": [[0, 0], [0, 0]], "quadratic": [[0, 0, 5, 1.0]], "F": [0, 0]}
        with pytest.raises(ValueError, match="quadratic"):
            load_system_json(data)

    @pytest.mark.parametrize(
        "field, entries, message",
        [
            ("quadratic", [[0, 0, 0, 1.0], [0, 0, 1]], r"field 'quadratic': bad entry \[0, 0, 1\]"),
            ("cubic", [[0, 0, 0, 0, 1.0], [1, 1, "x", 1, 2.0]], r"field 'cubic': bad entry \[1, 1, 'x', 1, 2.0\]"),
            ("quadratic", [[0, 0, 0, 1.0], [0, 0, 5, 1.0]], r"index out of range in \[0, 0, 5, 1.0\]"),
            ("cubic", [[0, 0, 0, -1, 1.0]], r"field 'cubic': index out of range in \[0, 0, 0, -1, 1.0\]"),
            # a null is a bad entry, named before a later bad entry
            ("quadratic", [[0, 0, None, 1.0], [1, 1, 1, "x"]], r"field 'quadratic': bad entry \[0, 0, None, 1.0\]"),
            ("quadratic", [[0, 0, 0, 1.0], [0, 0, 1, None]], r"field 'quadratic': bad entry \[0, 0, 1, None\]"),
        ],
        ids=["short-entry", "non-numeric-entry", "index-too-large", "negative-index", "null-index", "null-value"],
    )
    def test_bad_entry_quoted(self, field, entries, message):
        data = {"n": 2, "L": [[0, 0], [0, 0]], field: entries, "F": [0, 0]}
        with pytest.raises(ValueError, match=message):
            load_system_json(data)

    @pytest.mark.parametrize(
        "field, value",
        [("L", [[1, 0], [0]]), ("L", {"a": 1}), ("F", [0, [0, 1]]), ("F", "x")],
        ids=["L-ragged", "L-object", "F-ragged", "F-string"],
    )
    def test_bad_dense_field_named(self, field, value):
        data = {"n": 2, "L": [[0, 0], [0, 0]], "F": [0, 0], field: value}
        with pytest.raises(ValueError, match=rf"^field '{field}': "):
            load_system_json(data)

    def test_bad_l_is_named_before_a_missing_f(self):
        with pytest.raises(ValueError, match=r"^field 'L': setting an array element with a sequence"):
            load_system_json({"n": 2, "L": [[1, 0], [0]]})

    def test_dense_limit_rejects_before_allocating(self, no_dense_over_limit):
        # one cubic entry at n=200 asks for a dense 12.8 GB tensor
        n = 200
        doc = {"n": n, "L": np.zeros((n, n)).tolist(), "F": [0.0] * n, "cubic": [[0, 1, 2, 3, 1.0]]}
        with pytest.raises(ValueError, match=r"field 'cubic' of shape \(200, 200, 200, 200\) needs 12800000000 "):
            load_system_json(doc)
        del doc["cubic"]
        doc["quadratic"] = [[0, 1, 2, 1.0]]
        assert load_system_json(doc).quad[0, 1, 2] == 0.5  # n^3 floats, 64 MB, are within the limit

    @pytest.mark.parametrize(
        "shape, text",
        [((124999999999999, 1), "shape (124999999999999, 1) needs 999999999999992 bytes"),
         ((10**15,), "shape (1e+15,) needs 8e+15 bytes"),
         ((2, 10**400), "shape (2, 1e+400) needs 1.6e+401 bytes")],
        ids=["below-rounding", "one-axis", "past-float-range"],
    )
    def test_dense_limit_rounds_counts_of_ten_to_the_fifteen(self, shape, text):
        with pytest.raises(ValueError) as err:
            check_dense(shape, "tensor")
        assert str(err.value) == f"tensor of {text}, over the 1073741824-byte limit"

    def test_repeated_entries_add(self):
        data = {"n": 2, "L": [[0, 0], [0, 0]], "F": [0, 0],
                "cubic": [[1, 0, 0, 0, 1.5], [1, 0, 0, 0, 0.25], [0, 1, 1, 1, 2.0]]}
        s = load_system_json(data)
        np.testing.assert_allclose(s.eval([2.0, 1.0]), [2.0, 14.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_diverged_on_any_non_finite_entry(bad, where):
    U = np.array([0.5, -1.0, 2.0])
    U[where] = bad
    assert diverged(U)


@pytest.mark.parametrize(
    "U, expected",
    [([1e8, 0.0], False), ([np.nextafter(1e8, np.inf)], True), ([-2e8], True), ([1e-3, -2.0, 0.0], False),
     ([1e6] * 10**4, False), ([np.nextafter(1e8, np.inf)] + [1e-3] * 10**3, True), ([1e200] * 3, True)],
    ids=["at-limit", "just-above-limit", "negative-above-limit", "near-zero",
         "dot-past-its-bound", "one-above-among-small", "squares-overflow"],
)
def test_diverged_limit(U, expected):
    assert diverged(np.array(U)) == expected
