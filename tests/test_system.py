import itertools
import json
import tracemalloc

import numpy as np
import pytest

from polyjac import (
    DiagScale,
    ElementwiseFunction,
    HadamardPower,
    HadamardProduct,
    LinearMap,
    NonlinearRhs,
    PolySystem,
    SolverTrace,
    State,
    Sum,
    Trajectory,
    burgers_discretize,
    decompose,
    from_kronecker,
    is_negative_definite,
    load_system_json,
    lower_to_poly,
    pj_implicit_step,
    step_bound_explicit_euler,
    step_bound_rk4,
)
from polyjac.presets import circle_cubic_system, CIRCLE_CUBIC_ROOT_POS
from polyjac import system
from polyjac.system import check_dense, diverged

from conftest import LAYOUTS, dense_coefficients, fd_jacobian, laid_out, random_poly_system


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

    @pytest.mark.parametrize(
        "K, R, F, message",
        [(np.zeros((2, 3)), np.zeros((2, 8)), np.zeros(2), r"^K must be square, got \(2, 3\)$"),
         (np.eye(2), np.zeros((2, 4)), np.zeros(2), r"^R must be \(2,8\), got \(2, 4\)$"),
         (np.eye(2), np.zeros((2, 8)), np.zeros(3), r"^F must have length 2, got \(3,\)$")],
        ids=["K-not-square", "R-shape", "F-length"],
    )
    def test_each_shape_error_names_its_matrix(self, K, R, F, message):
        with pytest.raises(ValueError, match=message):
            from_kronecker(K, np.zeros((2, 4)), R, F)


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

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_kept_arrays_are_c_ordered_and_a_quad_is_stored_once(self, rng, layout):
        n = 5
        L, quad, F = rng.standard_normal((n, n)), rng.standard_normal((n, n, n)), rng.standard_normal(n)
        s = PolySystem(*(laid_out(a, layout) for a in (L, quad, None, F)))
        assert all(a.flags.c_contiguous and not a.flags.writeable for a in (s.L, s._quad, s.const))
        assert np.shares_memory(s._orders[0][1], s._quad) and _stored_floats(s) == n**3 + n**2 + n

    def test_records_compare_and_hash_by_identity(self, rng):
        s = from_kronecker(*random_kron_coeffs(rng, 3))
        st = s.at(rng.standard_normal(3))
        assert s == s and st == st and st != s.at(st.U)
        assert s != PolySystem(s.L, *dense_coefficients(s), s.const)
        assert len({s, s}) == 1 and len({st, st}) == 1

    def test_repr_does_not_rebuild_the_cubic(self, rng):
        # the cubic is kept packed; a dense 40^4 rebuild would take 20 MB
        n = 40
        s = PolySystem(np.eye(n), None, rng.standard_normal((n,) * 4), np.zeros(n))
        st = s.at(np.ones(n))
        assert _peak_bytes(lambda: (repr(s), repr(st))) < 1e6


def _twice(t, U):  # a nonlinearity N(t, U) = 2 U for NonlinearRhs
    return 2.0 * U


_FORM = decompose(NonlinearRhs(L=np.eye(2), N=_twice), 0.0, [1.0, 2.0])


class TestIntake:
    # each public reader of a caller's vector or square matrix refuses a malformed one by name
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: PolySystem(L=3.0, quad=None, cubic=None, const=[0.0]), r"^L must be square, got \(\)$"),
            (lambda: from_kronecker(3.0, [[0.0]], [[0.0]], [0.0]), r"^K must be square, got \(\)$"),
            (lambda: is_negative_definite(np.array(3.0)), r"^A must be square, got \(\)$"),
            (lambda: is_negative_definite([1.0, 2.0]), r"^A must be square, got \(2,\)$"),
            (lambda: is_negative_definite(np.zeros((2, 2, 2))), r"^A must be square, got \(2, 2, 2\)$"),
            (lambda: step_bound_explicit_euler(np.ones((2, 3))), r"^A must be square, got \(2, 3\)$"),
            (lambda: step_bound_rk4(np.ones((2, 3))), r"^A must be square, got \(2, 3\)$"),
            (lambda: step_bound_explicit_euler([1.0, 2.0]), r"^A must be square, got \(2,\)$"),
            (lambda: step_bound_rk4([1.0, 2.0]), r"^A must be square, got \(2,\)$"),
            (lambda: step_bound_explicit_euler(np.ones((2, 3, 3))), r"^A must be square, got \(2, 3, 3\)$"),
            (lambda: step_bound_rk4(np.ones((2, 3, 3))), r"^A must be square, got \(2, 3, 3\)$"),
            (lambda: step_bound_rk4([1.0, 2.0], "l1"), r"^A must be square, got \(2,\)$"),
            (lambda: NonlinearRhs(L=[1.0, 2.0], N=_twice), r"^L must be square, got \(2,\)$"),
            (lambda: decompose(NonlinearRhs(L=np.eye(2), N=_twice), 0.0, np.ones(3)),
             r"^state length 3 != system dimension 2$"),
            (lambda: decompose(NonlinearRhs(L=np.eye(2), N=_twice), 0.0, []),
             r"^state length 0 != system dimension 2$"),
            (lambda: pj_implicit_step(_FORM, np.ones(3), 0.1), r"^state length 3 != system dimension 2$"),
        ],
        ids=["PolySystem-L-0d", "from_kronecker-K-0d", "negdef-0d", "negdef-vector", "negdef-stack",
             "euler-2x3", "rk4-2x3", "euler-vector", "rk4-vector", "euler-stack", "rk4-stack", "rk4-vector-l1",
             "NonlinearRhs-L-vector", "decompose-long-state", "decompose-empty-state", "pj-step-long-state"],
    )
    def test_a_malformed_array_is_refused_by_name(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda E: PolySystem(L=E, quad=None, cubic=None, const=np.zeros(0)), "L"),
            (lambda E: from_kronecker(E, np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0)), "K"),
            (is_negative_definite, "A"),
            (step_bound_explicit_euler, "A"),
            (step_bound_rk4, "A"),
            (lambda E: NonlinearRhs(L=E, N=_twice), "L"),
        ],
        ids=["PolySystem", "from_kronecker", "is_negative_definite", "step_bound_explicit_euler", "step_bound_rk4",
             "NonlinearRhs"],
    )
    def test_an_empty_matrix_is_refused_by_name(self, call, name):
        # a 0 x 0 matrix is square, but no reader of one has a system to build or bound
        with pytest.raises(ValueError, match=rf"^{name} must not be empty, got \(0, 0\)$"):
            call(np.zeros((0, 0)))

    def test_nonlinear_rhs_keeps_a_read_only_c_ordered_copy(self):
        L = np.asfortranarray([[1.0, 2.0], [3.0, 4.0]])
        rhs = NonlinearRhs(L=L, N=_twice)
        assert rhs.L is not L and not np.shares_memory(rhs.L, L) and rhs.L.tolist() == L.tolist()
        assert rhs.L.flags.c_contiguous and not rhs.L.flags.writeable and L.flags.writeable


@pytest.mark.parametrize(
    "build",
    [
        lambda: LinearMap(np.eye(2)),
        State,
        lambda: HadamardProduct(State(), LinearMap(np.eye(2))),
        lambda: HadamardPower(State(), 2.0),
        lambda: ElementwiseFunction("sin", State()),
        lambda: DiagScale([1.0, 2.0], State()),
        lambda: Sum((State(), State()), (1.0, -1.0)),
        lambda: burgers_discretize(8, 10.0),
        lambda: NonlinearRhs(L=np.eye(2), N=_twice),
        lambda: decompose(NonlinearRhs(L=np.eye(2), N=_twice), 0.0, [1.0, 2.0]),
        lambda: SolverTrace(iterates=[np.ones(2)], residual_norms=[1.0]),
        lambda: Trajectory(times=[0.0], states=[np.ones(2)]),
    ],
    ids=["LinearMap", "State", "HadamardProduct", "HadamardPower", "ElementwiseFunction", "DiagScale", "Sum",
         "SemiDiscreteIVP", "NonlinearRhs", "RankOneForm", "SolverTrace", "Trajectory"],
)
def test_records_holding_arrays_compare_and_hash_by_identity(build):
    x, twin = build(), build()
    assert x == x and x != twin
    assert isinstance(hash(x), int) and {x: 1}[x] == 1 and len({x, twin}) == 2


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
        np.testing.assert_array_equal(np.signbit(dense_coefficients(s)[0]), np.signbit(want))

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
        got = dense_coefficients(s)[1]
        np.testing.assert_array_equal(got[1][mixed[1]], 1.0)
        np.testing.assert_array_equal(np.signbit(got[2][mixed[2]]), False)
        assert np.all(got[2][mixed[2]] == 0.0) and np.all(np.signbit(got[~mixed]))


class TestAbsentOrders:
    def test_absent_orders_are_not_stored(self):
        # quad and cubic are inputs only; an absent order leaves no attribute and no product
        s = PolySystem(np.eye(3), None, np.zeros((3,) * 4), np.ones(3))
        assert vars(s).keys() == {"L", "const", "_orders", "_dot"} and s._orders == () and s.at(np.ones(3))._terms == ()
        assert not hasattr(s, "quad") and not hasattr(s, "cubic")
        np.testing.assert_array_equal(s.eval(np.arange(3.0)), np.arange(3.0) + 1.0)

    def test_state_matrices_stay_writable(self, rng):
        st = PolySystem(np.eye(2), None, None, np.zeros(2)).at(rng.standard_normal(2))
        for M in (st.A, st.J):
            M[0, 0] = 7.0

    def test_missing_and_empty_fields_are_absent(self):
        doc = {"n": 2, "L": [[1.0, 0.0], [0.0, 1.0]], "quadratic": [], "F": [0.0, 1.0]}
        s = load_system_json(doc)
        # nothing of size n^3 or n^4 is stored
        assert vars(s).keys() == {"L", "const", "_orders", "_dot"} and s._orders == ()

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


def test_a_stack_of_17_states_at_n_128_takes_two_slices(rng, monkeypatch):
    # _STACK_BYTES holds 16 states of n x n products at n = 128, so 17 states take a slice of 16 and one of 1
    n = 128
    assert system._per_stack(n) == 16
    s = PolySystem(np.eye(n), rng.standard_normal((n,) * 3), None, rng.standard_normal(n))
    X, stacks, products = rng.standard_normal((17, n)), [], PolySystem._products
    monkeypatch.setattr(PolySystem, "_products", lambda self, Y: stacks.append(len(Y)) or products(self, Y))
    got = s._values(X)
    assert stacks == [16, 1]
    assert got.tobytes() == np.array([s.at(x).f for x in X]).tobytes()


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

    def test_packed_cubic_holds_the_symmetrized_tensor(self, rng):
        n = 5
        K, G, R, F = random_kron_coeffs(rng, n)
        s = from_kronecker(K, G, R, F)
        raw = R.reshape((n,) * 4)
        want = sum(np.transpose(raw, (0, *p)) for p in itertools.permutations((1, 2, 3))) / 6
        t = dense_coefficients(s)[1]
        assert s._packed.shape == (n, n, n * (n + 1) // 2) and not s._packed.flags.writeable
        np.testing.assert_array_equal(t, np.swapaxes(t, 2, 3))
        np.testing.assert_allclose(t, want, rtol=1e-14, atol=1e-15)


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

    @pytest.mark.parametrize("orders", ["both", "quad", "cubic", "none"])
    def test_parts_are_the_product_matrices_times_u(self, rng, orders):
        # an absent order's part has the bits of zeros((n, n)) @ U: zeros, or NaN where U is not finite
        n = 4
        quad = rng.standard_normal((n,) * 3) if orders in ("both", "quad") else None
        cubic = rng.standard_normal((n,) * 4) if orders in ("both", "cubic") else None
        s = PolySystem(rng.standard_normal((n, n)), quad, cubic, rng.standard_normal(n))
        states = [rng.standard_normal(n), -np.abs(rng.standard_normal(n)), np.full(n, -0.0),
                  np.array([1.0, np.inf, -2.0, 0.5]), np.array([-np.inf, 1.0, np.nan, 0.5])]
        for U in states:
            with np.errstate(all="ignore"):
                M = dict(s.at(U)._terms)
                want = [M.get(m, np.zeros((n, n))) @ U for m in (2, 3)]
                got = s.nonlinear_parts(U)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want], U

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
        M2, M3 = dict(st._terms).values()
        np.testing.assert_allclose((2 * M2) @ U, [4.0, 0.0])
        np.testing.assert_allclose((3 * M3) @ U, [0.0, 2.25])
        r2, r3 = s.euler_residuals(U)
        assert r2 < 1e-14 and r3 < 1e-14

    def test_random_sweep(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            s = random_poly_system(rng, n)
            U = rng.standard_normal(n)
            r2, r3 = s.euler_residuals(U)
            quad, cubic = dense_coefficients(s)
            scale2 = (1.0 + np.linalg.norm(U, np.inf)) ** 2 * (1.0 + np.abs(quad).max())
            scale3 = (1.0 + np.linalg.norm(U, np.inf)) ** 3 * (1.0 + np.abs(cubic).max())
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

    @pytest.mark.parametrize(
        "J_hat, message",
        [(np.ones(2), r"must be square, got \(2,\)"), (np.ones((3, 2, 2)), r"must be square, got \(3, 2, 2\)"),
         (np.ones((3, 3)), r"must be 2x2, got \(3, 3\)"), (np.ones((1, 1)), r"must be 2x2, got \(1, 1\)")],
        ids=["vector", "stack", "3x3", "1x1"],
    )
    def test_j_hat_of_another_shape_is_refused(self, J_hat, message):
        # a vector read 0.7518 and a stack 1.302 without an error; the check comes before fbar's
        st = circle_cubic_system().at([1.0, 2.0])
        with pytest.raises(ValueError, match=rf"^J_hat {message}$"):
            st.deviation(J_hat)
        with pytest.raises(ValueError, match=rf"^J_hat {message}$"):
            circle_cubic_system().at(np.zeros(2)).deviation(J_hat)


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
        quad = dense_coefficients(s)[0]
        assert quad[0, 0, 1] == 1.0 and quad[0, 1, 0] == 1.0
        np.testing.assert_allclose(s.eval([3.0, 4.0]), [24.0, 0.0])

    @pytest.mark.parametrize("k", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_python_and_numpy_integers_are_counts(self, k):
        assert system._integer(k, "k") is k

    @pytest.mark.parametrize("n", [2.5, 2.0, "2", True], ids=["fraction", "integral-float", "string", "bool"])
    def test_dimension_that_is_not_an_integer_is_refused(self, n):
        # int() would read 2.5 as 2 and "2" as 2
        with pytest.raises(ValueError) as err:
            load_system_json({"n": n, "L": [[1.0, 0.0], [0.0, 1.0]], "F": [0.0, 0.0]})
        assert str(err.value) == f"field 'n' must be an integer, got {n!r}"

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
        assert load_system_json(doc)._quad[0, 1, 2] == 0.5  # n^3 floats, 64 MB, are within the limit

    @pytest.mark.parametrize(
        "shape, text",
        [((124999999999999, 1), "shape (124999999999999, 1) needs 999999999999992 bytes"),
         ((10**15,), "shape (1e+15,) needs 8e+15 bytes"),
         ((2, 10**400), "shape (2, 1e+400) needs 1.6e+401 bytes"),
         ((999950000000000000,), "shape (1e+18,) needs 8e+18 bytes")],
        ids=["below-rounding", "one-axis", "past-float-range", "carry-to-next-exponent"],
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
     ([1e6] * 10**4, False), ([np.nextafter(1e8, np.inf)] + [1e-3] * 10**3, True), ([1e200] * 3, True),
     ([1e5] * 10**6, False), ([np.nextafter(1e8, np.inf)] + [1e-3] * (10**6 - 1), True)],
    ids=["at-limit", "just-above-limit", "negative-above-limit", "near-zero",
         "dot-past-its-bound", "one-above-among-small", "squares-overflow",
         "a-million-squares-sum-to-the-bound", "one-above-among-a-million-small"],
)
def test_diverged_limit(U, expected):
    assert diverged(np.array(U)) == expected
