import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from polyjac import (
    IVP,
    ElementwiseFunction,
    LinearMap,
    PolyState,
    PolySystem,
    SemiDiscreteIVP,
    State,
    Sum,
    burgers_discretize,
    burgers_step_bound,
    h_eval,
    integrate,
    is_negative_definite,
    scan_blowup_threshold,
    step_bound_explicit_euler,
    step_bound_rk4,
)
from polyjac import expressions, stability
from polyjac.expressions import _check_length as check_length
from polyjac.presets import burgers_initial_state

from conftest import count_calls, random_poly_system


def linear_system(A):
    n = A.shape[0]
    return PolySystem(L=A, quad=np.zeros((n, n, n)), cubic=np.zeros((n,) * 4), const=np.zeros(n))


def l_minus_sin():
    """The tree L U - sin(U) over R^3, which does not lower: its sin node has no polynomial form."""
    L = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
    rhs = Sum(children=(LinearMap(L), ElementwiseFunction("sin", State())), weights=(1.0, -1.0))
    return SemiDiscreteIVP(n=3, rhs=rhs)


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


SHIFT = 5  # the roll of the translation relation


@functools.cache
def periodic_burgers_runs(n, method):
    """burgers_discretize(n, 100) and its 200 reported steps of 0.001 by method, from U0 and from U0 rolled by SHIFT."""
    sd, x = burgers_discretize(n, 100.0), np.arange(n) / n
    U0 = 0.5 + np.sin(2 * np.pi * x) + 0.25 * np.cos(6 * np.pi * x)
    return sd, U0, [integrate(IVP(sd, U), method, 0.001, 200, report=True) for U in (U0, np.roll(U0, SHIFT))]


@pytest.mark.parametrize("method", stability.METHODS)
@pytest.mark.parametrize("n", [24, 64])
class TestPeriodicBurgersRelations:
    """Relations of the periodic grid that need no reference: its difference matrices are circulant, and Sum U is kept."""

    def test_a_rolled_start_gives_the_rolled_trajectory(self, n, method):
        _, _, (run, rolled) = periodic_burgers_runs(n, method)
        assert run.status == rolled.status == "completed" and len(run.per_step_reports) == 200
        states, shifted = np.array(run.states), np.array(rolled.states)
        # within 4e-15 of max |U|; 2.7e-16 at most is seen, and explicit Euler is exact
        assert np.abs(np.roll(states, SHIFT, axis=1) - shifted).max() <= 4e-15 * np.abs(states).max()
        reports, rolled_reports = ([(r.negdef_certificate, r.h_bound) for r in t.per_step_reports] for t in (run, rolled))
        assert [r[0] for r in reports] == [r[0] for r in rolled_reports]
        bounds, rolled_bounds = (np.array([r[1] for r in rs], dtype=float) for rs in (reports, rolled_reports))
        # an explicit method's bounds within 1e-15 relative (3.4e-16 seen); an implicit one has none
        np.testing.assert_allclose(rolled_bounds, bounds, rtol=1e-15, atol=0)

    def test_step_bound_of_a_rolled_state_is_bit_identical(self, n, method):
        sd, _, (run, _) = periodic_burgers_runs(n, method)
        for U in run.states[::40]:
            assert {burgers_step_bound(sd, np.roll(U, shift)) for shift in range(n)} == {burgers_step_bound(sd, U)}

    def test_mass_is_kept(self, n, method):
        sd, U0, runs = periodic_burgers_runs(n, method)
        A, B = sd.first_diff, sd.second_diff
        # by telescoping: B's columns sum to 0 and A is skew, so Sum (B U)_i = 0 and Sum U_i (A U)_i = U . A U = 0
        assert not B.sum(axis=0).any() and np.array_equal(A.T, -A)
        for traj in runs:
            mass = np.array(traj.states).sum(axis=1)
            # a few eps of Sum |U0| (1.9 eps seen) over all 200 steps
            assert np.abs(mass - mass[0]).max() <= 8 * np.finfo(float).eps * np.abs(U0).sum()


class TestNegativeDefinite:
    def test_negative_identity(self):
        ok, lam = is_negative_definite(-np.eye(3))
        assert ok and lam == pytest.approx(-1.0)

    def test_skew_symmetric(self):
        ok, lam = is_negative_definite(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert not ok and lam == pytest.approx(0.0, abs=1e-14)

    def test_non_square_matrix_is_rejected(self):
        with pytest.raises(ValueError, match=r"^A must be square, got \(2, 3\)$"):
            is_negative_definite(np.zeros((2, 3)))

    def test_constructed_negdef(self, rng):
        for _ in range(10):
            assert is_negative_definite(random_sym_negdef(rng, 5))[0]


class TestIntegrate:
    def test_scalar_decay_closed_form(self):
        s = linear_system(np.array([[-1.0]]))
        traj = integrate(IVP(s, [1.0]), "explicit_euler", 0.1, 10)
        assert traj.status == "completed"
        assert traj.states[-1][0] == pytest.approx(0.9**10)

    def test_an_implicit_run_on_a_duck_typed_source_is_a_type_error(self):
        # a source with n and eval steps explicitly, but has no polynomial system to step implicitly with
        duck = type("Duck", (), {"n": 2, "eval": lambda self, U: -U})()
        assert integrate(IVP(duck, [1.0, 2.0]), "explicit_euler", 0.5, 1).states[-1].tolist() == [0.5, 1.0]
        with pytest.raises(TypeError, match="^source must be a PolySystem or SemiDiscreteIVP$"):
            integrate(IVP(duck, [1.0, 2.0]), "implicit_euler", 0.1, 1)

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
        # f and I - h J come from one contraction for either source, with no state record; a tree
        # is compiled once, by its SemiDiscreteIVP, and no implicit step calls the value kept there
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
        products = count_calls(monkeypatch, PolySystem, "_products")
        at, records = count_calls(monkeypatch, PolySystem, "at"), count_calls(monkeypatch, PolyState, "A")
        assert integrate(ivp, "semi_implicit_euler", 1e-3, 5).status == "completed"
        assert len(products) == 5 and calls == []
        assert at == [] and records == [] and compiles == []

    @pytest.mark.parametrize("tree", [False, True], ids=["poly-source", "tree-source"])
    def test_implicit_euler_starts_from_the_semi_implicit_step(self, monkeypatch, tree):
        # semi-implicit Euler is U + h solve((I - h L) - sum (m h) M_m, f(U)) bit for bit, with f
        # and the M_m of one record for either source; implicit Euler's Newton iteration reads
        # its second contraction at that very state
        source = burgers_discretize(8, 100.0) if tree else random_poly_system(np.random.default_rng(1), 8, 0.1)
        U0, h = 0.1 * burgers_initial_state(8), 0.05
        ivp = IVP(source, U0)
        st = ivp.poly.at(U0)
        K = np.eye(8) - h * st.s.L
        for m, M in st._terms:
            K = K - (m * h) * M
        first = U0 + h * np.linalg.solve(K, st.f)
        assert np.array_equal(integrate(ivp, "semi_implicit_euler", h, 1).states[1], first)
        products = count_calls(monkeypatch, PolySystem, "_products")
        assert integrate(ivp, "implicit_euler", h, 1).status == "completed"
        assert np.array_equal(products[0][0], U0) and np.array_equal(products[1][0], first)

    def test_implicit_euler_contracts_once_per_newton_iterate(self, monkeypatch):
        # one contraction for the semi-implicit first iterate and one per Newton correction, at
        # least one of which each step takes, and no state record
        ivp = IVP(burgers_discretize(24, 100.0), burgers_initial_state(24))
        products = count_calls(monkeypatch, PolySystem, "_products")
        at, records = count_calls(monkeypatch, PolySystem, "at"), count_calls(monkeypatch, PolyState, "A")
        assert integrate(ivp, "implicit_euler", 0.005, 10).status == "completed"
        assert 20 <= len(products) <= 40
        assert at == [] and records == []

    @pytest.mark.parametrize("linear", [False, True], ids=["burgers-n24", "linear"])
    def test_implicit_euler_stops_once_the_contraction_rate_shows_convergence(self, monkeypatch, rng, linear):
        # Burgers' corrections after the predictor read about 9e-6, 4e-12 and 1e-16: the contraction
        # estimate stops after the second, so a step reads 3 contractions (4 with the correction
        # test alone). A linear step's predictor already solves the step equation, so its first
        # correction is rounding: 2 contractions a step
        if linear:
            ivp = IVP(linear_system(random_sym_negdef(rng, 4)), rng.standard_normal(4))
        else:
            ivp = IVP(burgers_discretize(24, 100.0), burgers_initial_state(24))
        products = count_calls(monkeypatch, PolySystem, "_products")
        assert integrate(ivp, "implicit_euler", 0.005, 10).status == "completed"
        assert len(products) == (2 if linear else 3) * 10

    def test_implicit_euler_rests_at_a_steady_state(self, rng):
        # F = 0 and U0 = 0: the predictor and every correction are exactly zero, so the stop rule
        # meets d_prev = 0, which it must handle without dividing, and no state moves
        n = 4
        s = PolySystem(L=-np.eye(n) + 0.1 * rng.standard_normal((n, n)), quad=rng.standard_normal((n, n, n)),
                       cubic=rng.standard_normal((n,) * 4), const=np.zeros(n))
        with np.errstate(all="raise"):
            traj = integrate(IVP(s, np.zeros(n)), "implicit_euler", 0.1, 5)
        assert traj.status == "completed" and len(traj.states) == 6
        assert all(np.array_equal(U, np.zeros(n)) for U in traj.states)

    def test_implicit_euler_solves_the_step_equation_at_a_large_step(self):
        # h = 0.5 is about 12 times the a-priori explicit-Euler bound at the start state
        sd = burgers_discretize(24, 100.0)
        traj = integrate(IVP(sd, burgers_initial_state(24)), "implicit_euler", 0.5, 10)
        assert traj.status == "completed"
        for U, V in zip(traj.states, traj.states[1:]):
            residual = np.linalg.norm(V - U - 0.5 * h_eval(sd.rhs, V), np.inf)
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
         (0.1, -1, "steps"), (0.1, 2.5, "^steps must be an integer, got 2.5$"),
         (0.1, "2", "^steps must be an integer, got '2'$")],
        ids=["nan-h", "inf-h", "zero-h", "negative-h", "negative-steps", "fractional-steps", "string-steps"],
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

    def test_one_tree_is_lowered_once_for_every_ivp_built_on_it(self, monkeypatch):
        # the lowering belongs to the tree, not to the state: the SemiDiscreteIVP keeps it
        sd, U = burgers_discretize(8, 100.0), burgers_initial_state(8)
        built = count_calls(monkeypatch, PolySystem, "__post_init__")
        first, second = IVP(sd, U), IVP(sd, 0.5 * U)
        assert first.poly is second.poly is stability._polynomial(sd, "stability") and len(built) == 1
        assert integrate(second, "implicit_euler", 1e-3, 2, report=True).status == "completed"
        assert len(built) == 1

    def test_tree_that_does_not_lower_keeps_the_reason(self):
        ivp = IVP(SemiDiscreteIVP(n=2, rhs=ElementwiseFunction("sin", State())), np.ones(2))
        assert integrate(ivp, "explicit_euler", 0.1, 2).status == "completed"
        with pytest.raises(ValueError, match="^the linear form needs a polynomial system; the tree does not "
                                             "lower: non-polynomial node: elementwise sin$"):
            ivp.poly
        with pytest.raises(ValueError, match="^implicit stepping needs a polynomial system; the tree does not "
                                             "lower: non-polynomial node: elementwise sin$"):
            integrate(ivp, "implicit_euler", 0.1, 2)

    @pytest.mark.parametrize("steps", [2, 0])
    def test_report_on_a_tree_that_does_not_lower_is_refused_before_any_step(self, monkeypatch, steps):
        # the reports need A(U) from the lowered system, so the run never starts rather than report nothing
        ivp = IVP(l_minus_sin(), np.ones(3))
        taken = []
        monkeypatch.setattr(stability, "_step", lambda *a: taken.append(a))
        with pytest.raises(ValueError, match="^a stability report needs a polynomial system; the tree does not "
                                             "lower: non-polynomial node: elementwise sin$"):
            integrate(ivp, "explicit_euler", 0.1, steps, report=True)
        assert taken == []

    def test_linear_form_of_a_tree_that_does_not_lower_names_the_reason(self):
        with pytest.raises(ValueError, match="^the linear form needs a polynomial system; the tree does not "
                                             "lower: non-polynomial node: elementwise sin$"):
            IVP(l_minus_sin(), np.ones(3)).linear_form(np.ones(3))

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
        with pytest.raises(ValueError, match="^state length 3 != system dimension 8$"):
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


class TestImplicitNewton:
    """Implicit Euler's Newton on one equation whose iterates are known.

    With L = 1, a quadratic q and h = 1, the step equation V - U - h f(V) = 0 from U reads
    -(U + F) - q V^2 = 0: a double root at 0 for F = -U, roots +-eps for F = -U - q eps^2.
    """

    @staticmethod
    def step(U, q, F):
        """One implicit Euler step of size 1 from U: (V or None, the states its contractions read)."""
        system, read = IVP(PolySystem([[1.0]], [[[q]]], None, [F]), [U]).newton_system(1.0), []
        V = stability._step(None, lambda V: read.append(V[0]) or system(V), "implicit_euler", np.array([U]), 1.0)
        return V, read

    def test_a_double_root_takes_43_corrections(self):
        # from U = 16 with q = 2^40 every value is a power of two, so Newton halves V exactly: after the
        # predictor 8, the k-th correction is 2^(3 - k), first at most NEWTON_TOL (1 + V) for k = 43
        V, read = self.step(16.0, 2.0**40, -16.0)
        assert len(read) - 1 == 43 and V.tolist() == [2.0**-40]

    def test_a_last_rate_between_a_third_and_a_half_stops_by_the_estimate(self):
        # roots +-eps: V halves toward eps until the rate falls; the 39th correction d has rate about 0.40
        # and d about 1.18 NEWTON_TOL (1 + V), so the correction test alone would go on, while
        # d^2 / (d_prev - d) <= NEWTON_TOL (1 + V) stops here
        eps, U, q = 2.2e-12, 1.75, 2.0**40
        V, read = self.step(U, q, -U - q * eps**2)
        d = np.abs(np.diff([*read, V[0]]))
        assert len(read) - 1 == 39
        assert 1.0 / 3.0 < d[-1] / d[-2] <= 0.5 and d[-1] > stability.NEWTON_TOL * (1.0 + abs(V[0]))
        assert abs(V[0] - eps) <= 1e-12

    def test_a_singular_newton_matrix_fails_the_step(self):
        # f(V) = 1/2 + V^2 from 0: the predictor reaches V = 1/2, where I - h J(V) = 1 - 2 V is exactly 0
        s = PolySystem([[0.0]], [[[1.0]]], None, [0.5])
        semi = integrate(IVP(s, [0.0]), "semi_implicit_euler", 1.0, 1)
        assert semi.status == "completed" and semi.states[-1].tolist() == [0.5]
        traj = integrate(IVP(s, [0.0]), "implicit_euler", 1.0, 1)
        assert traj.status == "solver_failed" and traj.failure_step == 0


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

    def test_bisection_stops_within_two_percent_below_the_threshold(self, monkeypatch):
        # a run completes exactly below h* = 1.09; bisecting [1, 2] stops at width 1/64 for 2%, and
        # a 3% width would stop a halving sooner, at h_lo = 1.0625 with 1.02 h_lo < h*
        h_star, runs = 1.09, []

        def integrate(ivp, method, h, steps):
            runs.append(h)
            return SimpleNamespace(status="completed" if h < h_star else "diverged")

        monkeypatch.setattr(stability, "integrate", integrate)
        h_lo = scan_blowup_threshold(None, "explicit_euler", 1.0, 2.0, 1.0)  # the stub never reads the IVP
        assert h_lo < h_star <= h_lo * (1 + 0.02) and h_lo == 1.078125 and len(runs) == 8

    def test_invalid_bracket(self):
        s = linear_system(np.array([[-1.0]]))
        with pytest.raises(ValueError, match="bracket"):
            scan_blowup_threshold(IVP(s, [1.0]), "explicit_euler", 0.1, 0.5, 50.0)

    def test_step_count_overflowing_is_rejected(self):
        # horizon / h_lo = 1e330 is inf: no step count to integrate at h_lo
        s = linear_system(np.array([[-1.0]]))
        with pytest.raises(ValueError, match="horizon / h_lo must be finite"):
            scan_blowup_threshold(IVP(s, [1.0]), "explicit_euler", 1e-320, 1.0, 1e10)
