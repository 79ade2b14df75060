import math

import numpy as np
import pytest

from polyjac import (
    GuardTripError,
    IterativeOptions,
    PolyState,
    PolySystem,
    QNOptions,
    classic_inverse_update,
    classic_update,
    deviation_report,
    from_kronecker,
    iterative_solve,
    jacobian_action,
    modified_inverse_update,
    modified_update,
    qn_solve,
)
from polyjac import quasi_newton
from polyjac.quasi_newton import GuardTripError  # noqa: F811 (re-export check)
from polyjac.presets import (
    circle_cubic_system,
    CIRCLE_CUBIC_ROOT_POS,
    CIRCLE_CUBIC_ROOT_NEG,
)

from conftest import count_calls, random_poly_system


def same_bits(a, b):
    """Bit-for-bit equality of two float arrays, so -0.0 != 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def orthogonal_complement_samples(rng, q, count=5):
    out = []
    for _ in range(count):
        p = rng.standard_normal(q.size)
        p -= (p @ q) / (q @ q) * q
        out.append(p)
    return out


class TestJacobianAction:
    def test_linear_system(self, rng):
        s = random_poly_system(rng, 4, linear_only=True)
        U = rng.standard_normal(4)
        np.testing.assert_allclose(jacobian_action(s, U), s.L @ U, rtol=1e-14)

    def test_circle_cubic_at_ones(self):
        s = circle_cubic_system()
        U = np.array([1.0, 1.0])
        np.testing.assert_allclose(jacobian_action(s, U), [4.0, 1.25])
        np.testing.assert_allclose(s.jacobian(U) @ U, [4.0, 1.25])

    def test_equals_jacobian_times_state(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            s = random_poly_system(rng, n)
            U = rng.standard_normal(n)
            lhs = jacobian_action(s, U)
            rhs = s.jacobian(U) @ U
            scale = 1.0 + np.linalg.norm(rhs, np.inf)
            assert np.linalg.norm(lhs - rhs, np.inf) <= 1e-12 * scale


class TestClassicUpdate:
    def test_consistent_data_is_noop(self, rng):
        J = rng.standard_normal((4, 4))
        q = rng.standard_normal(4)
        np.testing.assert_allclose(classic_update(J, q, J @ q), J, rtol=1e-14)

    def test_secant_and_orthogonal_preservation(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            J = rng.standard_normal((n, n))
            q, df = rng.standard_normal((2, n))
            J_new = classic_update(J, q, df)
            assert np.linalg.norm(J_new @ q - df) <= 1e-12 * (1.0 + np.linalg.norm(df))
            for p in orthogonal_complement_samples(rng, q):
                assert np.linalg.norm((J_new - J) @ p) <= 1e-12 * (
                    1.0 + np.linalg.norm(J @ p)
                )

    def test_scalar_reduces_to_secant_slope(self):
        J = classic_update(np.array([[5.0]]), np.array([2.0]), np.array([6.0]))
        assert J[0, 0] == pytest.approx(3.0)

    def test_guard_trip(self):
        with pytest.raises(GuardTripError):
            classic_update(np.eye(2), np.zeros(2), np.ones(2))


class TestClassicInverseUpdate:
    def test_consistent_data_is_noop(self, rng):
        J = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        Jinv = np.linalg.inv(J)
        q = rng.standard_normal(4)
        np.testing.assert_allclose(classic_inverse_update(Jinv, q, J @ q), Jinv, rtol=1e-12)

    def test_pairs_with_forward_update(self, rng):
        for _ in range(50):
            n = 4
            J = rng.standard_normal((n, n)) + 4 * np.eye(n)
            Jinv = np.linalg.inv(J)
            q = rng.standard_normal(n)
            df = J @ q + 0.1 * rng.standard_normal(n)
            J_new = classic_update(J, q, df)
            Jinv_new = classic_inverse_update(Jinv, q, df)
            assert np.linalg.norm(Jinv_new @ J_new - np.eye(n), np.inf) <= 1e-8

    def test_scalar_reduces_to_reciprocal_slope(self):
        Jinv = classic_inverse_update(np.array([[0.2]]), np.array([2.0]), np.array([6.0]))
        assert Jinv[0, 0] == pytest.approx(1.0 / 3.0)


class TestModifiedUpdate:
    def test_zero_step_rejected(self, rng):
        J = rng.standard_normal((3, 3))
        U = rng.standard_normal(3)
        with pytest.raises(GuardTripError):
            modified_update(J, U, U, rng.standard_normal(3))

    def test_exact_relation(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            s = random_poly_system(rng, n)
            J = rng.standard_normal((n, n))
            U_prev = rng.standard_normal(n)
            U_cur = U_prev + rng.standard_normal(n)
            y = jacobian_action(s, U_cur) - jacobian_action(s, U_prev)
            J_new = modified_update(J, U_prev, U_cur, y)
            resid = J_new @ U_cur - J @ U_prev - y
            assert np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(y))

    def test_orthogonal_preservation(self, rng):
        n = 5
        J = rng.standard_normal((n, n))
        U_prev = rng.standard_normal(n)
        q = rng.standard_normal(n)
        y = rng.standard_normal(n)
        J_new = modified_update(J, U_prev, U_prev + q, y)
        # rank-one in the step direction: orthogonal directions unchanged
        for p in orthogonal_complement_samples(rng, q):
            assert np.linalg.norm((J_new - J) @ p) <= 1e-12 * (1.0 + np.linalg.norm(J @ p))

    def test_zero_previous_state_reduces_to_classic(self, rng):
        # U_prev = 0 makes the shift q^T U_prev zero: the same formula, bit for bit
        for _ in range(50):
            n = 4
            J = rng.standard_normal((n, n))
            q, y = rng.standard_normal((2, n))
            assert same_bits(modified_update(J, np.zeros(n), q, y), classic_update(J, q, y))


class TestModifiedInverseUpdate:
    def test_pairs_with_forward_update(self, rng):
        for _ in range(50):
            n = 4
            J = rng.standard_normal((n, n)) + 4 * np.eye(n)
            Jinv = np.linalg.inv(J)
            U_prev = rng.standard_normal(n)
            U_cur = U_prev + rng.standard_normal(n)
            y = rng.standard_normal(n)
            J_new = modified_update(J, U_prev, U_cur, y)
            Jinv_new = modified_inverse_update(Jinv, J, U_prev, U_cur, y)
            assert np.linalg.norm(Jinv_new @ J_new - np.eye(n), np.inf) <= 1e-8

    def test_zero_previous_state_reduces_to_classic(self, rng):
        for _ in range(50):
            n = 4
            J = rng.standard_normal((n, n)) + 4 * np.eye(n)
            Jinv = np.linalg.inv(J)
            q, y = rng.standard_normal((2, n))
            a = modified_inverse_update(Jinv, J, np.zeros(n), q, y)
            assert same_bits(a, classic_inverse_update(Jinv, q, y))

    def test_previous_jacobian_is_not_read(self, rng):
        # the inverse update needs only Jinv_prev: a NaN J_prev gives the same bits
        n = 4
        J = rng.standard_normal((n, n)) + 4 * np.eye(n)
        Jinv = np.linalg.inv(J)
        U_prev, q, y = rng.standard_normal((3, n))
        a = modified_inverse_update(Jinv, np.full((n, n), np.nan), U_prev, U_prev + q, y)
        assert same_bits(a, modified_inverse_update(Jinv, J, U_prev, U_prev + q, y))

    def test_guard_trip_on_constructed_singularity(self, rng):
        # U_prev = -q makes q^T q + q^T U_prev vanish
        n = 3
        J = np.eye(n)
        q = rng.standard_normal(n)
        with pytest.raises(GuardTripError, match="U_prev"):
            modified_update(J, -q, np.zeros(n), rng.standard_normal(n))


# (public update, its matrix, its vectors); modified_inverse_update's J_prev is not read
UPDATES = [
    (classic_update, "J_prev", ("q", "delta_f")),
    (classic_inverse_update, "Jinv_prev", ("q", "delta_f")),
    (modified_update, "J_prev", ("U_prev", "U_cur", "y")),
    (modified_inverse_update, "Jinv_prev", ("U_prev", "U_cur", "y")),
]


@pytest.mark.parametrize("update, matrix, vectors", UPDATES, ids=[u[0].__name__ for u in UPDATES])
def test_public_update_refuses_a_malformed_argument_by_name(update, matrix, vectors):
    # a vector matrix used to give a matrix back; a short vector failed inside numpy, naming nothing
    args = {matrix: np.eye(2), "J_prev": np.eye(2), **{v: np.full(2, k + 1.0) for k, v in enumerate(vectors)}}
    if update is not modified_inverse_update:
        args = {k: args[k] for k in (matrix, *vectors)}
    assert update(**args).shape == (2, 2)
    for bad, shape in ((np.ones(2), r"\(2,\)"), (np.ones((2, 3)), r"\(2, 3\)"), (np.zeros((0, 0)), None)):
        message = rf"^{matrix} must be square, got {shape}$" if shape else rf"^{matrix} must not be empty"
        with pytest.raises(ValueError, match=message):
            update(**{**args, matrix: bad})
    for v in vectors:
        with pytest.raises(ValueError, match=rf"^{v} length 3 != {matrix} dimension 2$"):
            update(**{**args, v: np.ones(3)})


class TestSolve:
    @pytest.mark.parametrize("variant", ["newton", "classic_rank1", "modified_rank1"])
    def test_positive_branch_root(self, variant):
        s = circle_cubic_system()
        tr = qn_solve(s, np.array([0.5, 1.0]), QNOptions(variant=variant, tol=1e-10))
        assert tr.status == "converged"
        assert np.linalg.norm(s.eval(tr.solution), np.inf) <= 1e-10
        assert tr.solution[0] == pytest.approx(CIRCLE_CUBIC_ROOT_POS[0], abs=1e-8)
        assert tr.solution[1] == pytest.approx(CIRCLE_CUBIC_ROOT_POS[1], abs=1e-8)

    @pytest.mark.parametrize("variant", ["newton", "classic_rank1", "modified_rank1"])
    def test_negative_branch_root(self, variant):
        s = circle_cubic_system()
        tr = qn_solve(s, np.array([-1.0, 0.2]), QNOptions(variant=variant, tol=1e-10))
        assert tr.status == "converged"
        assert tr.solution[0] == pytest.approx(CIRCLE_CUBIC_ROOT_NEG[0], abs=1e-8)

    def test_newton_one_step_on_linear(self, rng):
        s = random_poly_system(rng, 4, linear_only=True)
        tr = qn_solve(s, rng.standard_normal(4), QNOptions(variant="newton", tol=1e-10))
        assert tr.status == "converged"
        assert tr.iterations <= 2  # initial iterate plus one Newton step

    def test_scalar_modified_step_equals_newton_step(self, rng):
        # in one dimension the exact-relation update recovers the exact
        # Jacobian whenever the iterate is nonzero, so steps coincide
        L = np.array([[0.5]])
        quad = np.array([[[0.3]]])
        cubic = np.array([[[[0.2]]]])
        s = PolySystem(L=L, quad=quad, cubic=cubic, const=np.array([-1.0]))
        U_prev = np.array([2.0])
        U_cur = np.array([1.5])
        y = jacobian_action(s, U_cur) - jacobian_action(s, U_prev)
        J_new = modified_update(s.jacobian(U_prev), U_prev, U_cur, y)
        assert J_new[0, 0] == pytest.approx(s.jacobian(U_cur)[0, 0], rel=1e-12)

    def test_divergence_status(self):
        # steep cubic with far-away start runs off
        s = PolySystem(
            L=np.array([[0.0]]),
            quad=np.zeros((1, 1, 1)),
            cubic=np.array([[[[1.0]]]]),
            const=np.array([1.0]),
        )
        tr = qn_solve(s, np.array([1e7]), QNOptions(variant="newton", max_iter=3))
        assert tr.status in ("diverged", "max_iter_exceeded")

    def test_newton_assembles_one_jacobian_per_iterate(self, monkeypatch):
        states = count_calls(monkeypatch, PolySystem, "at")
        jacobians = count_calls(monkeypatch, PolyState, "J")
        tr = qn_solve(circle_cubic_system(), np.array([0.5, 1.0]), QNOptions(variant="newton"))
        assert tr.status == "converged"
        assert len(states) == len(jacobians) == tr.iterations

    @pytest.mark.parametrize("variant", ["newton", "classic_rank1", "modified_rank1"])
    def test_each_iterate_evaluates_once(self, variant, monkeypatch):
        # one contraction per iterate gives its f, its fbar and, on a restart, its exact Jacobian;
        # from this start both rank-one variants restart after a guard trip
        states = count_calls(monkeypatch, PolySystem, "at")
        products = count_calls(monkeypatch, PolySystem, "_products")
        residuals = count_calls(monkeypatch, PolyState, "f")
        actions = count_calls(monkeypatch, PolyState, "fbar")
        jacobians = count_calls(monkeypatch, PolyState, "J")
        s = circle_cubic_system()
        tr = qn_solve(s, np.array([0.5, 1.0]), QNOptions(variant=variant))
        assert tr.status == "converged" and tr.iterations > 2 and len(jacobians) > 1
        assert len(states) == len(products) == len(residuals) == tr.iterations
        assert len(actions) == (tr.iterations if variant == "modified_rank1" else 0)
        for U, r in zip(tr.iterates, tr.residual_norms):
            assert r == float(np.linalg.norm(s.eval(U), np.inf))

    @pytest.mark.parametrize("variant", ["newton", "classic_rank1", "modified_rank1"])
    def test_singular_start_jacobian(self, variant):
        # f(U) = U^2 - 1 from U0 = 0: J(U0) = 0, no rank-one guard involved
        s = PolySystem(
            L=np.zeros((1, 1)),
            quad=np.ones((1, 1, 1)),
            cubic=np.zeros((1, 1, 1, 1)),
            const=-np.ones(1),
        )
        tr = qn_solve(s, np.zeros(1), QNOptions(variant=variant))
        assert tr.status == "singular_jacobian"
        assert tr.failure_index == 0
        assert tr.iterations == 1
        np.testing.assert_array_equal(tr.solution, [0.0])

    @pytest.mark.parametrize("variant", ["classic_rank1", "modified_rank1"])
    def test_rank_one_update_calls_each_kernel_once(self, variant, monkeypatch):
        # each update after the first iterate checks its step once and, unless that trips a
        # guard, updates the inverse once; the forward kernel, which checks the step again, runs
        # only with keep_jacobians, once per update kept (no secant check fails from this start)
        def logged(kernel, log):
            def call(*args):
                log.append(False)  # stays False when the kernel raises
                out = kernel(*args)
                log[-1] = True
                return out
            return call

        kernels = {name: getattr(quasi_newton, name) for name in ("_check_step", "_inverse_update", "_update")}
        for keep in (False, True):
            calls = {name: [] for name in kernels}
            for name, log in calls.items():
                monkeypatch.setattr(quasi_newton, name, logged(kernels[name], log))
            opts = QNOptions(variant=variant, keep_jacobians=keep)
            tr = qn_solve(circle_cubic_system(), np.array([0.5, 1.0]), opts)
            assert tr.status == "converged"
            checked, inverse, forward = calls.values()
            assert forward == ([True] * sum(inverse) if keep else [])
            assert len(checked) == tr.iterations - 1 + len(forward)
            assert len(inverse) == sum(checked) - len(forward) > 0

    @pytest.mark.parametrize(
        "option, message",
        [({"tol": 0.0}, "tol must be positive"), ({"tol": float("nan")}, "tol must be positive"),
         ({"tol": math.inf}, "^tol must be positive and finite, got inf$"),
         ({"max_iter": -1}, "max_iter must be at least 0"), ({"variant": "broyden"}, "variant must be one of"),
         # a non-integer would construct, and the solve then raise a TypeError from range
         ({"max_iter": 2.5}, "^max_iter must be an integer, got 2.5$"),
         ({"max_iter": "3"}, "^max_iter must be an integer, got '3'$")],
        ids=["zero-tol", "nan-tol", "inf-tol", "negative-max-iter", "unknown-variant", "fractional-max-iter",
             "string-max-iter"],
    )
    def test_options_outside_domain_rejected(self, option, message):
        with pytest.raises(ValueError, match=message):
            QNOptions(**option)

    def test_reinit_policy_decides_guard_trip(self):
        # a seeded system on which a classic rank-one update trips a guard
        rng = np.random.default_rng(1)
        s = random_poly_system(rng, int(rng.integers(2, 9)), scale=0.3)
        U0 = rng.standard_normal(s.n)
        tr = qn_solve(s, U0, QNOptions(variant="classic_rank1", keep_jacobians=True))
        assert tr.status == "converged"
        # the update into iterate 11 tripped and was replaced by the exact Jacobian there
        exact = [
            k
            for k in range(1, tr.iterations)
            if np.array_equal(tr.jacobians[k], s.jacobian(tr.iterates[k]))
        ]
        assert exact[0] == 11


def random_cubic_system(seed, tag, k, n):
    """The benchmark's dense random cubic: draw k of workload tag on seed."""
    rng = np.random.default_rng([seed, tag, k])
    K = 4.0 * np.eye(n) + rng.standard_normal((n, n)) / math.sqrt(n)
    G = 0.5 * rng.standard_normal((n, n * n)) / n
    R = 0.5 * rng.standard_normal((n, n**3)) / n**1.5
    F = rng.standard_normal(n)
    return from_kronecker(K, G, R, F)


def secant_residuals(s, trace):
    """||J_k q - delta_f||_inf / ||delta_f||_inf of the Jacobian recorded after each step."""
    out = []
    for k in range(1, trace.iterations):
        q = trace.iterates[k] - trace.iterates[k - 1]
        delta_f = s.eval(trace.iterates[k]) - s.eval(trace.iterates[k - 1])
        out.append(np.abs(trace.jacobians[k] @ q - delta_f).max() / np.abs(delta_f).max())
    return out


def guard(qq):
    """The rank-one guard written out, so that a change to its constant fails here: 1e-12 (1 + q^T q)."""
    return 1e-12 * (1.0 + qq)


class TestGuardEdges:
    """Each rank-one denominator trips at 0.999 and at exactly guard(qq), and clears at 1.001 guard(qq)."""

    QQ_EQUAL = guard(1e-12)  # q^T q equal to guard(q^T q) in floats: 1e-12 (1 + 1e-12) rounds to a fixed point

    def test_the_step_length(self):
        assert self.QQ_EQUAL == guard(self.QQ_EQUAL)
        for qq in (0.999e-12, self.QQ_EQUAL):
            with pytest.raises(GuardTripError, match=r"^denominator q\^T q = "):
                quasi_newton._check_step(qq, 0.0)
        quasi_newton._check_step(1.001e-12, 0.0)

    def test_the_shifted_step_length(self):
        # q^T q = 2^-39 lies within a factor 2 of the guard, so t = c guard - q^T q and q^T q + t are exact
        qq = 2.0**-39
        assert qq > guard(qq) and qq + (guard(qq) - qq) == guard(qq)
        for c in (0.999, 1.0, -0.999, -1.0):
            with pytest.raises(GuardTripError, match=r"^denominator q\^T q \+ q\^T U_prev = "):
                quasi_newton._check_step(qq, c * guard(qq) - qq)
        for c in (1.001, -1.001):
            quasi_newton._check_step(qq, c * guard(qq) - qq)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_inverse_update(self, sign):
        # Jinv = I, q = e_0 and delta_f = d e_0 give q^T (Jinv delta_f) = d exactly, against guard(1) = 2e-12
        q = np.array([1.0, 0.0])
        for c in (0.999, 1.0):
            with pytest.raises(GuardTripError, match=r"^denominator q\^T \(Jinv y\) \+ t = "):
                classic_inverse_update(np.eye(2), q, np.array([sign * c * guard(1.0), 0.0]))
        d = sign * 1.001 * guard(1.0)
        np.testing.assert_allclose(classic_inverse_update(np.eye(2), q, np.array([d, 0.0])), np.diag([1.0 / d, 1.0]),
                                   rtol=1e-12)


def test_dense_solve_iteration_totals():
    # the 48 systems of the benchmark's dense-solve seed 1 from U0 = 0 at tol 1e-10: each run converges,
    # and the rank-one totals move with the guard (1e-10 (1 + q^T q) gives 302 and 303)
    systems = [random_cubic_system(1, 2, k, 20) for k in range(48)]
    totals = {}
    for variant in ("newton", "classic_rank1", "modified_rank1"):
        traces = [qn_solve(s, np.zeros(20), QNOptions(variant=variant, tol=1e-10)) for s in systems]
        assert all(tr.status == "converged" for tr in traces)
        totals[variant] = sum(len(tr.iterates) - 1 for tr in traces)
    assert totals == {"newton": 171, "classic_rank1": 340, "modified_rank1": 339}


class TestSecantGuard:
    """modified_rank1 restarts from the exact Jacobian when the secant residual exceeds 1.

    Without that restart the modified update drifts off the step direction
    and these systems crawl to max_iter, while Newton converges in a few
    iterations.
    """

    def stalled_cli_batch_system(self):
        # seed 1, system 6 of the CLI batch benchmark: n = 8, solved from U0 = 1
        return random_cubic_system(1, 3, 6, 8), np.ones(8)

    def test_stalled_cli_batch_system_converges(self):
        s, U0 = self.stalled_cli_batch_system()
        opts = QNOptions(variant="modified_rank1", max_iter=200)
        tr = qn_solve(s, U0, opts)
        assert tr.status == "converged"
        assert tr.iterations - 1 <= 20
        assert np.linalg.norm(s.eval(tr.solution), np.inf) <= opts.tol

    def test_stalled_dense_solve_system_converges(self):
        # seed 7, system 5 of the dense solve benchmark: n = 20, solved from U0 = 0
        s = random_cubic_system(7, 2, 5, 20)
        opts = QNOptions(variant="modified_rank1")
        tr = qn_solve(s, np.zeros(20), opts)
        assert tr.status == "converged"
        assert np.linalg.norm(s.eval(tr.solution), np.inf) <= opts.tol

    def test_deviation_formula_cannot_see_the_restart(self):
        s, U0 = self.stalled_cli_batch_system()
        tr = qn_solve(s, U0, QNOptions(variant="modified_rank1", max_iter=200, keep_jacobians=True))
        assert all(d is not None and d <= 1e-10 for d in deviation_report(s, tr))
        assert any(
            np.array_equal(J, s.at(U).J) for U, J in zip(tr.iterates[1:], tr.jacobians[1:])
        )

    def test_unguarded_update_fails_the_secant_condition_unseen(self, monkeypatch):
        # with the guard off, the deviation formula stays near 0 while the
        # kept Jacobian misses the secant condition along some step
        monkeypatch.setattr(quasi_newton, "SECANT_TOL", math.inf)
        s, U0 = self.stalled_cli_batch_system()
        tr = qn_solve(s, U0, QNOptions(variant="modified_rank1", max_iter=200, keep_jacobians=True))
        assert all(d is not None and d <= 1e-10 for d in deviation_report(s, tr))
        assert max(secant_residuals(s, tr)) > 1.0

    @pytest.mark.parametrize(
        "delta_f, Jq, holds",
        [([2.0, -1.0], [2.0, 0.8], True), ([2.0, -1.0], [2.0, 2.0], False),
         ([2.0, -1.0], [math.nan, -1.0], False), ([0.0, 0.0], [0.0, 0.0], False)],
        ids=["residual-0.9", "residual-1.5", "nan", "zero-delta-f"],
    )
    def test_secant_holds_up_to_tolerance_one(self, delta_f, Jq, holds):
        # the residual ||Jq - delta_f||_inf / ||delta_f||_inf against SECANT_TOL = 1
        assert quasi_newton._secant_holds(np.array(Jq), np.array(delta_f)) is holds

    @pytest.mark.parametrize("variant", ["newton", "classic_rank1"])
    def test_other_variants_never_check(self, variant, monkeypatch):
        calls = []
        monkeypatch.setattr(quasi_newton, "_secant_holds", lambda *a: calls.append(a))
        s, U0 = self.stalled_cli_batch_system()
        assert qn_solve(s, U0, QNOptions(variant=variant, max_iter=200)).status == "converged"
        assert calls == []


@pytest.mark.parametrize("variant", ["newton", "classic_rank1", "modified_rank1"])
@pytest.mark.parametrize(
    "system, U0",
    [(circle_cubic_system(), np.array([0.5, 1.0])),
     (random_cubic_system(1, 3, 6, 8), np.ones(8)),
     (random_cubic_system(7, 2, 5, 20), np.zeros(20))],
    ids=["circle-cubic", "cli-batch-seed1-system6", "dense-solve-seed7-system5"],
)
def test_keep_jacobians_only_observes(variant, system, U0):
    # forming and recording J leaves the iterates, residuals and outcome bit for bit as they were
    kept, bare = (qn_solve(system, U0, QNOptions(variant=variant, max_iter=200, keep_jacobians=keep))
                  for keep in (True, False))
    assert len(kept.jacobians) == kept.iterations and bare.jacobians is None
    assert (kept.status, kept.failure_index) == (bare.status, bare.failure_index)
    assert same_bits(np.array(kept.residual_norms), np.array(bare.residual_norms))
    assert same_bits(np.array(kept.iterates), np.array(bare.iterates))


def runaway_cubic_system():
    """f1 = U1 + U1^3 - U2^3 + 1, f2 = U2 + U1^3 + 2 U2^3 + 1."""
    cubic = np.zeros((2, 2, 2, 2))
    cubic[0, 0, 0, 0], cubic[0, 1, 1, 1] = 1.0, -1.0
    cubic[1, 0, 0, 0], cubic[1, 1, 1, 1] = 1.0, 2.0
    return PolySystem(L=np.eye(2), quad=np.zeros((2, 2, 2)), cubic=cubic, const=np.ones(2))


@pytest.mark.parametrize(
    "solver, opts",
    [(qn_solve, QNOptions(variant=v)) for v in ("newton", "classic_rank1", "modified_rank1")]
    + [(iterative_solve, IterativeOptions(method=m)) for m in ("jacobi", "gauss_seidel")],
    ids=["newton", "classic_rank1", "modified_rank1", "jacobi", "gauss_seidel"],
)
def test_overflowing_start_ends_diverged(solver, opts):
    # f(U0) overflows, so the first step produces non-finite iterates
    with np.errstate(all="ignore"):
        tr = solver(runaway_cubic_system(), np.array([1e110, 1e110]), opts)
    assert tr.status == "diverged"
    assert tr.failure_index == 0


class TestDeviationReport:
    def test_newton_trace_near_zero(self):
        s = circle_cubic_system()
        tr = qn_solve(s, np.array([0.5, 1.0]), QNOptions(variant="newton", keep_jacobians=True))
        devs = deviation_report(s, tr)
        assert all(d is not None and d <= 1e-12 for d in devs)

    def test_classic_trace_positive_then_finite(self):
        s = circle_cubic_system()
        tr = qn_solve(
            s, np.array([0.5, 1.0]), QNOptions(variant="classic_rank1", keep_jacobians=True)
        )
        devs = deviation_report(s, tr)
        assert all(d is not None and np.isfinite(d) for d in devs)
        assert any(d > 0 for d in devs[1:])

    def test_modified_trace_finite(self):
        s = circle_cubic_system()
        tr = qn_solve(
            s, np.array([0.5, 1.0]), QNOptions(variant="modified_rank1", keep_jacobians=True)
        )
        devs = deviation_report(s, tr)
        assert all(d is None or np.isfinite(d) for d in devs)

    def test_entry_is_none_where_fbar_vanishes(self):
        # f(U) = 1 - U from U = 0: fbar(0) = 0 leaves the start's deviation undefined
        s = PolySystem(-np.eye(2), None, None, np.ones(2))
        tr = qn_solve(s, np.zeros(2), QNOptions(variant="newton", keep_jacobians=True))
        assert tr.status == "converged" and deviation_report(s, tr) == [None, 0.0]

    def test_requires_recorded_jacobians(self):
        s = circle_cubic_system()
        tr = qn_solve(s, np.array([0.5, 1.0]), QNOptions(variant="newton"))
        with pytest.raises(ValueError, match="no recorded"):
            deviation_report(s, tr)
