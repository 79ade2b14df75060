import math

import numpy as np
import pytest

from polyjac import (
    IVP,
    ElementwiseFunction,
    PolySystem,
    SemiDiscreteIVP,
    State,
    burgers_discretize,
    burgers_step_bound,
    integrate,
    is_negative_definite,
    scan_blowup_threshold,
    step_bound_explicit_euler,
    step_bound_rk4,
)
from polyjac import expressions, stability
from polyjac.expressions import _check_length as check_length, _compile as compile_tree
from polyjac.presets import burgers_initial_state

from conftest import count_calls, random_poly_system


def linear_system(A):
    n = A.shape[0]
    return PolySystem(L=A, quad=np.zeros((n, n, n)), cubic=np.zeros((n,) * 4), const=np.zeros(n))


def random_sym_negdef(rng, n):
    M = rng.standard_normal((n, n))
    return -(M @ M.T) - np.eye(n)


class TestExplicitBounds:
    def test_diagonal_example(self):
        A = -np.diag([1.0, 2.0, 4.0])
        assert step_bound_explicit_euler(A, "linf") == 0.5
        assert step_bound_rk4(A, "linf") == pytest.approx(0.69625)

    def test_rk4_ratio_fixed(self, rng):
        for _ in range(10):
            A = rng.standard_normal((4, 4))
            ratio = step_bound_rk4(A) / step_bound_explicit_euler(A)
            assert ratio == pytest.approx(1.3925)

    def test_norm_dominates_spectral_radius(self, rng):
        for _ in range(100):
            A = random_sym_negdef(rng, int(rng.integers(2, 6)))
            rho = np.abs(np.linalg.eigvalsh(A)).max()
            for kind in ("l1", "linf"):
                assert step_bound_explicit_euler(A, kind) <= 2.0 / rho + 1e-13

    def test_zero_matrix_unrestricted(self):
        assert math.isinf(step_bound_explicit_euler(np.zeros((3, 3))))

    def test_bad_norm_kind(self):
        with pytest.raises(ValueError, match="norm_kind"):
            step_bound_explicit_euler(np.eye(2), "l2")

    @pytest.mark.parametrize("kind", ["random", "zero", "nan"])
    def test_bounds_equal_numpy_norm_bits(self, rng, kind):
        # the bounds divide by the column/row-sum formula that np.linalg.norm uses for ord 1 and inf
        for n in range(1, 7):
            for _ in range(5):
                A = rng.standard_normal((n, n)) if kind == "random" else np.zeros((n, n))
                if kind == "nan":
                    A[rng.integers(n), rng.integers(n)] = np.nan
                for norm_kind, ord_ in (("l1", 1), ("linf", np.inf)):
                    with np.errstate(divide="ignore"):
                        want = [2.0 / np.linalg.norm(A, ord_), 2.785 / np.linalg.norm(A, ord_)]
                    got = [step_bound_explicit_euler(A, norm_kind), step_bound_rk4(A, norm_kind)]
                    assert np.array(got).tobytes() == np.array(want).tobytes()
                    if kind == "zero":
                        assert got == [math.inf, math.inf]


class TestBurgersBound:
    def test_zero_state(self):
        sd = burgers_discretize(16, 100.0)
        expected = 2.0 * 100.0 / np.linalg.norm(sd.second_diff, np.inf)
        assert burgers_step_bound(sd, np.zeros(16)) == pytest.approx(expected)

    def test_more_conservative_than_assembled(self):
        from polyjac import lower_to_poly

        sd = burgers_discretize(32, 100.0)
        U = burgers_initial_state(32)
        s = lower_to_poly(sd.rhs, 32)
        A = s.linearized_matrix(U).A
        assert burgers_step_bound(sd, U) <= step_bound_explicit_euler(A, "linf") + 1e-13

    def test_monotone_in_state_norm(self):
        sd = burgers_discretize(16, 50.0)
        U = burgers_initial_state(16)
        bounds = [burgers_step_bound(sd, c * U) for c in (0.5, 1.0, 2.0, 4.0)]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_requires_discretizer_matrices(self):
        from polyjac import SemiDiscreteIVP, State

        sd = SemiDiscreteIVP(n=4, rhs=State())
        with pytest.raises(ValueError, match="difference matrices"):
            burgers_step_bound(sd, np.zeros(4))

    def test_state_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="state length 3 != system dimension 8"):
            burgers_step_bound(burgers_discretize(8, 100.0), np.ones(3))


class TestNegativeDefinite:
    def test_negative_identity(self):
        ok, lam = is_negative_definite(-np.eye(3))
        assert ok and lam == pytest.approx(-1.0)

    def test_skew_symmetric(self):
        ok, lam = is_negative_definite(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert not ok and lam == pytest.approx(0.0, abs=1e-14)

    def test_constructed_negdef(self, rng):
        for _ in range(10):
            assert is_negative_definite(random_sym_negdef(rng, 5))[0]


class TestIntegrate:
    def test_scalar_decay_closed_form(self):
        s = linear_system(np.array([[-1.0]]))
        traj = integrate(IVP(s, [1.0]), "explicit_euler", 0.1, 10)
        assert traj.status == "completed"
        assert traj.states[-1][0] == pytest.approx(0.9**10)

    @pytest.mark.parametrize("source", ["burgers", "poly"])
    def test_explicit_step_equals_linear_form_step(self, rng, source):
        # U + h rhs(U) = [I + h A(U)] U + h F, the step the linear form gives
        if source == "burgers":
            ivp, h = IVP(burgers_discretize(16, 100.0), burgers_initial_state(16)), 0.005
        else:
            ivp, h = IVP(random_poly_system(rng, 4, scale=0.3), 0.5 * np.ones(4)), 0.05
        traj = integrate(ivp, "explicit_euler", h, 20)
        assert traj.status == "completed"
        for U, U_next in zip(traj.states, traj.states[1:]):
            linear = (np.eye(ivp.n) + h * ivp.linear_form(U).A) @ U + h * ivp.poly.const
            scale = 1.0 + np.linalg.norm(U_next, np.inf)
            assert np.linalg.norm(U_next - linear, np.inf) <= 1e-9 * scale

    def test_rk4_accuracy_on_decay(self):
        s = linear_system(np.array([[-1.0]]))
        traj = integrate(IVP(s, [1.0]), "rk4", 0.1, 10)
        assert traj.states[-1][0] == pytest.approx(math.exp(-1.0), rel=1e-5)

    def test_burgers_stable_step_completes(self):
        sd = burgers_discretize(32, 100.0)
        U0 = burgers_initial_state(32)
        h = 0.9 * burgers_step_bound(sd, U0)
        traj = integrate(IVP(sd, U0), "explicit_euler", h, int(math.ceil(1.0 / h)))
        assert traj.status == "completed"
        assert np.linalg.norm(traj.states[-1], np.inf) <= 2.0 * np.linalg.norm(U0, np.inf)

    def test_burgers_large_step_diverges(self):
        sd = burgers_discretize(32, 100.0)
        U0 = burgers_initial_state(32)
        h = 4.0 * burgers_step_bound(sd, U0)
        traj = integrate(IVP(sd, U0), "explicit_euler", h, int(math.ceil(1.0 / h)))
        assert traj.status == "diverged"

    def test_explicit_sufficiency_and_sharpness(self, rng):
        A = random_sym_negdef(rng, 4)
        s = linear_system(A)
        U0 = rng.standard_normal(4)
        bound = step_bound_explicit_euler(A, "linf")
        traj = integrate(IVP(s, U0), "explicit_euler", 0.99 * bound, 10_000)
        assert traj.status == "completed"
        lam_max = np.abs(np.linalg.eigvalsh(A)).max()
        traj = integrate(IVP(s, U0), "explicit_euler", 1.01 * (2.0 / lam_max), 10_000)
        assert traj.status == "diverged"

    def test_implicit_euler_a_stable_on_stiff_system(self):
        s = linear_system(-np.diag([1.0, 10.0, 1000.0]))
        for h in (1.0, 10.0, 100.0):
            traj = integrate(IVP(s, np.ones(3)), "implicit_euler", h, 100, report=True)
            assert traj.status == "completed"
            norms = [np.linalg.norm(u, np.inf) for u in traj.states]
            assert all(b < a for a, b in zip(norms, norms[1:]))
            assert all(r.negdef_certificate for r in traj.per_step_reports)

    def test_semi_implicit_on_stiff_linear(self):
        s = linear_system(-np.diag([1.0, 1000.0]))
        traj = integrate(IVP(s, np.ones(2)), "semi_implicit_euler", 1.0, 50)
        assert traj.status == "completed"
        assert np.linalg.norm(traj.states[-1], np.inf) < 1e-6

    @pytest.mark.parametrize("tree", [False, True], ids=["poly-source", "tree-source"])
    def test_semi_implicit_contracts_once_per_step(self, monkeypatch, tree):
        # J and, for a PolySystem source, the rhs come from one state record; a tree
        # is compiled once, by its SemiDiscreteIVP, and each step calls the value kept there
        compiles, calls = [], []
        monkeypatch.setattr(expressions, "_check_length", lambda e, n: compiles.append(e) or check_length(e, n))
        source = burgers_discretize(8, 100.0) if tree else random_poly_system(np.random.default_rng(1), 8, 0.1)
        if tree:
            value, jacobian = source._compiled
            object.__setattr__(source, "_compiled", (lambda U: calls.append(U) or value(U), jacobian))
        ivp = IVP(source, 0.1 * burgers_initial_state(8))
        assert compiles == ([source.rhs] if tree else [])
        ivp.poly  # lower_to_poly compiles the tree again for its own shape check
        compiles.clear()
        at = count_calls(monkeypatch, PolySystem, "at")
        assert integrate(ivp, "semi_implicit_euler", 1e-3, 5).status == "completed"
        assert len(at) == 5 and len(calls) == (5 if tree else 0)
        assert compiles == []

    @pytest.mark.parametrize("tree", [False, True], ids=["poly-source", "tree-source"])
    def test_implicit_euler_starts_from_the_semi_implicit_step(self, monkeypatch, tree):
        # semi-implicit Euler is U + h solve(I - h J(U), f(U)) bit for bit, with f
        # from the record or the compiled tree; implicit Euler's Newton iteration
        # reads its second record at that very state
        source = burgers_discretize(8, 100.0) if tree else random_poly_system(np.random.default_rng(1), 8, 0.1)
        U0, h = 0.1 * burgers_initial_state(8), 0.05
        ivp = IVP(source, U0)
        st = ivp.poly.at(U0)
        f = compile_tree(source.rhs, 8)[1](U0) if tree else st.f
        first = U0 + h * np.linalg.solve(np.eye(8) - h * st.J, f)
        assert np.array_equal(integrate(ivp, "semi_implicit_euler", h, 1).states[1], first)
        at = count_calls(monkeypatch, PolySystem, "at")
        assert integrate(ivp, "implicit_euler", h, 1).status == "completed"
        assert np.array_equal(at[0][0], U0) and np.array_equal(at[1][0], first)

    def test_implicit_euler_contracts_once_per_newton_iterate(self, monkeypatch):
        # one record for the semi-implicit first iterate and one per Newton correction: 4 a step here
        ivp = IVP(burgers_discretize(24, 100.0), burgers_initial_state(24))
        at = count_calls(monkeypatch, PolySystem, "at")
        assert integrate(ivp, "implicit_euler", 0.005, 10).status == "completed"
        assert len(at) <= 40

    def test_implicit_euler_solves_the_step_equation_at_a_large_step(self):
        # h = 0.5 is about 12 times the a-priori explicit-Euler bound at the start state
        ivp = IVP(burgers_discretize(24, 100.0), burgers_initial_state(24))
        traj = integrate(ivp, "implicit_euler", 0.5, 10)
        assert traj.status == "completed"
        for U, V in zip(traj.states, traj.states[1:]):
            residual = np.linalg.norm(V - U - 0.5 * ivp.rhs(V), np.inf)
            assert residual <= 1e-10 * (1.0 + np.linalg.norm(V, np.inf))

    @pytest.mark.parametrize("method", ["semi_implicit_euler", "implicit_euler"])
    def test_singular_step_matrix_fails_the_solve_at_step_zero(self, method):
        # L = I / h makes I - h J(U) the zero matrix
        traj = integrate(IVP(linear_system(2.0 * np.eye(2)), np.ones(2)), method, 0.5, 3)
        assert traj.status == "solver_failed" and traj.failure_step == 0
        assert len(traj.states) == 1

    def test_non_finite_newton_iterate_fails_the_solve_at_step_zero(self):
        # U' = U^3 from 1e110: f overflows, so the first Newton correction is not finite
        s = PolySystem(np.zeros((1, 1)), None, np.ones((1, 1, 1, 1)), np.zeros(1))
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(IVP(s, [1e110]), "implicit_euler", 1.0, 3)
        assert traj.status == "solver_failed" and traj.failure_step == 0
        assert len(traj.states) == 1

    def test_explicit_reports_attached(self):
        s = linear_system(-np.diag([1.0, 2.0, 4.0]))
        traj = integrate(IVP(s, np.ones(3)), "explicit_euler", 0.1, 5, report=True)
        assert len(traj.per_step_reports) == 5
        assert traj.per_step_reports[0].h_bound == pytest.approx(0.5)

    def test_nonlinear_picard_matches_small_step_reference(self, rng):
        s = random_poly_system(rng, 3, scale=0.1)
        U0 = 0.1 * rng.standard_normal(3)
        traj = integrate(IVP(s, U0), "implicit_euler", 1e-3, 20)
        ref = integrate(IVP(s, U0), "rk4", 1e-3, 20)
        assert traj.status == "completed"
        np.testing.assert_allclose(traj.states[-1], ref.states[-1], atol=1e-4)

    def test_invalid_method(self):
        s = linear_system(-np.eye(2))
        with pytest.raises(ValueError, match="method"):
            integrate(IVP(s, np.ones(2)), "leapfrog", 0.1, 5)

    @pytest.mark.parametrize(
        "h, steps, match",
        [(math.nan, 5, "step h"), (math.inf, 5, "step h"), (0.0, 5, "step h"), (-0.1, 5, "step h"),
         (0.1, -1, "steps")],
        ids=["nan-h", "inf-h", "zero-h", "negative-h", "negative-steps"],
    )
    def test_out_of_domain_step_is_rejected(self, h, steps, match):
        s = linear_system(-np.eye(2))
        with pytest.raises(ValueError, match=match):
            integrate(IVP(s, np.ones(2)), "explicit_euler", h, steps)

    def test_tree_is_lowered_on_first_read_of_poly(self, monkeypatch):
        built = count_calls(monkeypatch, PolySystem, "__post_init__")
        ivp = IVP(burgers_discretize(8, 100.0), burgers_initial_state(8))
        assert integrate(ivp, "rk4", 1e-3, 3).status == "completed" and built == []
        assert ivp.poly is ivp.poly and len(built) == 1

    def test_tree_that_does_not_lower_keeps_the_reason(self):
        ivp = IVP(SemiDiscreteIVP(n=2, rhs=ElementwiseFunction("sin", State())), np.ones(2))
        assert integrate(ivp, "explicit_euler", 0.1, 2).status == "completed"
        assert ivp.poly is None
        with pytest.raises(ValueError, match="^implicit stepping needs a polynomial system; the tree does not "
                                             "lower: non-polynomial node: elementwise sin$"):
            integrate(ivp, "implicit_euler", 0.1, 2)

    def test_zero_steps_keeps_the_start_state(self):
        traj = integrate(IVP(linear_system(-np.eye(2)), np.ones(2)), "rk4", 0.1, 0)
        assert traj.status == "completed" and traj.times == [0.0]
        assert np.array_equal(traj.states[0], np.ones(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("tree", [False, True], ids=["poly-source", "tree-source"])
    def test_start_is_checked_as_a_solvers_start(self, bad, tree):
        # an IVP refuses the start a solver refuses, so no method reads a non-finite state
        source = burgers_discretize(8, 100.0) if tree else random_poly_system(np.random.default_rng(1), 8, 0.1)
        U0 = burgers_initial_state(8)
        U0[3] = bad
        with pytest.raises(ValueError, match="^U0 contains non-finite entries$"):
            IVP(source, U0)
        with pytest.raises(ValueError, match="^U0 length 3 != system dimension 8$"):
            IVP(source, np.ones(3))

    @pytest.mark.parametrize("method", stability.METHODS)
    @pytest.mark.parametrize("tree", [False, True], ids=["poly-source", "state-tree"])
    def test_each_state_is_its_own_array(self, method, tree):
        # with rhs = State() alone, the compiled tree returns the very array it is given
        source = SemiDiscreteIVP(n=3, rhs=State()) if tree else linear_system(-np.diag([1.0, 2.0, 4.0]))
        ivp = IVP(source, np.ones(3))
        U0 = ivp.U0.copy()
        traj = integrate(ivp, method, 0.1, 4)
        assert traj.status == "completed" and len(traj.states) == 5
        for k in range(len(traj.states)):
            before = [s.copy() for s in traj.states]
            traj.states[k] += 1.0
            assert np.array_equal(ivp.U0, U0)
            for j, (s, b) in enumerate(zip(traj.states, before)):
                assert np.array_equal(s, b) == (j != k)

    def test_csv_export_shape(self):
        s = linear_system(-np.eye(2))
        traj = integrate(IVP(s, np.ones(2)), "explicit_euler", 0.1, 3, report=True)
        lines = traj.to_csv().strip().split("\n")
        assert lines[0] == "t,U0,U1,h_bound,negdef"
        assert len(lines) == 5


class TestScan:
    def test_scalar_threshold(self):
        s = linear_system(np.array([[-1.0]]))
        thr = scan_blowup_threshold(IVP(s, [1.0]), "explicit_euler", 1.0, 4.0, 1500.0)
        assert thr == pytest.approx(2.0, rel=0.02)

    def test_diagonal_threshold(self):
        s = linear_system(-np.diag([1.0, 10.0]))
        thr = scan_blowup_threshold(IVP(s, np.ones(2)), "explicit_euler", 0.05, 0.5, 200.0)
        assert thr == pytest.approx(0.2, rel=0.02)

    def test_burgers_threshold_at_least_a_priori_bound(self):
        sd = burgers_discretize(32, 100.0)
        U0 = burgers_initial_state(32)
        bound = burgers_step_bound(sd, U0)
        thr = scan_blowup_threshold(IVP(sd, U0), "explicit_euler", bound, 4.0 * bound, 1.0)
        assert thr >= bound

    def test_invalid_bracket(self):
        s = linear_system(np.array([[-1.0]]))
        with pytest.raises(ValueError, match="bracket"):
            scan_blowup_threshold(IVP(s, [1.0]), "explicit_euler", 0.1, 0.5, 50.0)

    def test_step_count_overflowing_is_rejected(self):
        # horizon / h_lo = 1e330 is inf: no step count to integrate at h_lo
        s = linear_system(np.array([[-1.0]]))
        with pytest.raises(ValueError, match="horizon / h_lo must be finite"):
            scan_blowup_threshold(IVP(s, [1.0]), "explicit_euler", 1e-320, 1.0, 1e10)
