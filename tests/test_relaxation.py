import numpy as np
import pytest

from polyjac import (
    IterativeOptions,
    PolyState,
    PolySystem,
    QNOptions,
    iterative_solve,
    qn_solve,
    sweep_once,
)
from polyjac.presets import circle_cubic_system, CIRCLE_CUBIC_ROOT_POS

from conftest import count_calls, diag_dominant_quadratic_system, reference_linear_sweep


def linear_system(A, b):
    n = A.shape[0]
    return PolySystem(
        L=A, quad=np.zeros((n, n, n)), cubic=np.zeros((n,) * 4), const=-np.asarray(b, dtype=float)
    )


def coupled_quadratic_system(n=4):
    # U_i + 0.1 U_i^2 + 0.05 sum_{j != i} U_j - 1 = 0
    L = np.eye(n) + 0.05 * (np.ones((n, n)) - np.eye(n))
    quad = np.zeros((n, n, n))
    for i in range(n):
        quad[i, i, i] = 0.1
    return PolySystem(L=L, quad=quad, cubic=np.zeros((n,) * 4), const=-np.ones(n))


class TestSweepOnce:
    def test_jacobi_diagonal(self):
        s = linear_system(np.diag([2.0, 2.0]), [2.0, 2.0])
        U_new, perm = sweep_once(s, np.zeros(2), "jacobi")
        np.testing.assert_allclose(U_new, [1.0, 1.0])
        assert perm == [0, 1]

    def test_fixed_point_at_root(self):
        s = circle_cubic_system()
        root = np.array(CIRCLE_CUBIC_ROOT_POS)
        for method in ("jacobi", "gauss_seidel", "sor"):
            U_new, _ = sweep_once(s, root, method, omega=1.3)
            assert np.abs(U_new - root).max() <= 1e-13

    @pytest.mark.parametrize("quadratic", [False, True], ids=["linear", "quadratic"])
    def test_root_is_an_exact_fixed_point(self, quadratic):
        # small integers make f(U) exactly 0, so the step solved for from f is exactly 0 and
        # every sweep returns U itself
        L = np.array([[4.0, -1.0, 0.0], [1.0, 5.0, 2.0], [0.0, -2.0, 3.0]])
        quad = np.zeros((3, 3, 3))
        if quadratic:
            quad[0, 0, 1], quad[1, 2, 2], quad[2, 0, 0] = 1.0, -1.0, 2.0
        U = np.array([1.0, -2.0, 3.0])
        F = -(L @ U + np.einsum("ijk,j,k->i", quad, U, U))
        s = PolySystem(L=L, quad=quad, cubic=np.zeros((3,) * 4), const=F)
        assert np.all(s.eval(U) == 0.0)
        for method, omega in (("jacobi", 1.0), ("gauss_seidel", 1.0), ("sor", 1.3), ("sor", 0.7)):
            U_new, perm = sweep_once(s, U, method, omega)
            assert np.array_equal(U_new, U), (method, omega)
            assert perm == [0, 1, 2]

    def test_row_interchange_fixes_zero_diagonal(self):
        # a permuted linear system has zero diagonals that one swap repairs
        s = linear_system(np.array([[0.0, 2.0], [3.0, 0.0]]), [4.0, 9.0])
        U_new, perm = sweep_once(s, np.zeros(2), "jacobi")
        assert perm == [1, 0]
        np.testing.assert_allclose(U_new, [3.0, 2.0])

    @pytest.mark.parametrize("method, omega", [("gauss_seidel", 1.0), ("sor", 1.3)])
    def test_row_interchange_under_triangular_sweeps(self, method, omega):
        # row 0 has a zero diagonal; swapping it with row 1 repairs every pivot
        A = np.array([[0.0, 2.0, 1.0], [3.0, 0.5, 0.0], [1.0, 0.0, 4.0]])
        b = np.array([4.0, 9.0, -1.0])
        U = np.array([0.3, -0.2, 0.5])
        U_new, perm = sweep_once(linear_system(A, b), U, method, omega)
        assert perm == [1, 0, 2]
        want = reference_linear_sweep(A[perm], b[perm], U, method, omega)
        assert np.abs(U_new - want).max() <= 1e-13

    @pytest.mark.parametrize("method, omega", [("gauss_seidel", 1.0), ("sor", 1.3)])
    def test_weak_diagonals_keep_row_loop_accuracy(self, method, omega):
        # diagonals 100 times below the off-diagonals make D + omega L badly
        # conditioned; a row-pivoted LU of it loses digits that substitution keeps
        rng = np.random.default_rng(1)
        for _ in range(5):
            A = rng.standard_normal((6, 6))
            np.fill_diagonal(A, 1e-2 * rng.uniform(0.5, 1.0, 6))
            b, U = rng.standard_normal(6), rng.standard_normal(6)
            U_new, _ = sweep_once(linear_system(A, b), U, method, omega)
            want = reference_linear_sweep(A, b, U, method, omega)
            assert np.abs(U_new - want).max() <= 1e-12 * (1.0 + np.abs(want).max())

    @pytest.mark.parametrize("method", ["jacobi", "gauss_seidel", "sor"])
    def test_usable_diagonals_keep_identity_order(self, method):
        # diagonals just above PIVOT_TOL, dwarfed by the off-diagonals: no swap
        A = np.array([[1e-11, 5.0, 0.0], [5.0, 1e-11, 1.0], [0.0, 1.0, 2.0]])
        _, perm = sweep_once(linear_system(A, [1.0, 1.0, 1.0]), np.zeros(3), method, omega=1.3)
        assert perm == [0, 1, 2]

    def test_failed_triangular_solve_reports_singular_pivot(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        s = linear_system(np.diag([2.0, 0.5, 3.0]), [1.0, 1.0, 1.0])
        tr = iterative_solve(s, np.zeros(3), IterativeOptions(method="gauss_seidel"))
        assert tr.status == "singular_pivot"
        assert tr.failure_index == 1  # the row with the smallest diagonal
        assert len(tr.iterates) == 1

    def test_unfixable_zero_column_reports_singular_pivot(self):
        # at x1 near 0 the whole first column of A(U) collapses: entries x1
        # and 0.75 x1^2; no row interchange can repair it
        s = circle_cubic_system()
        tr = iterative_solve(s, np.array([1e-15, 0.9]), IterativeOptions())
        assert tr.status == "singular_pivot"
        assert tr.failure_index == 0

    @pytest.mark.parametrize("method", ["jacobi", "gauss_seidel", "sor"])
    def test_swap_that_undoes_an_earlier_swap_reports_singular_pivot(self, method):
        # row 0 of A = [[0, 0], [1, 1]] is zero, so swapping rows 0 and 1 empties the diagonal of row 1,
        # and the swap for row 1 puts the zero row back: every method ends at row 0, with no sweep
        s = PolySystem(L=[[0.0, 0.0], [1.0, 1.0]], quad=None, cubic=None, const=[-1.0, -2.0])
        tr = iterative_solve(s, np.zeros(2), IterativeOptions(method=method, omega=1.5 if method == "sor" else 1.0))
        assert (tr.status, tr.failure_index, len(tr.iterates)) == ("singular_pivot", 0, 1)

    def test_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            sweep_once(circle_cubic_system(), np.ones(2), "sgs")

    @pytest.mark.parametrize("omega", [3.0, float("nan"), 0.0, -1.0])
    def test_bad_omega(self, omega):
        with pytest.raises(ValueError, match="omega must lie in"):
            sweep_once(circle_cubic_system(), np.ones(2), "sor", omega)


class TestIterativeSolve:
    def test_linear_agrees_with_direct_solve(self, rng):
        n = 5
        A = rng.standard_normal((n, n)) * 0.2
        np.fill_diagonal(A, 3.0 + rng.random(n))
        b = rng.standard_normal(n)
        x_direct = np.linalg.solve(A, b)
        s = linear_system(A, b)
        for method in ("jacobi", "gauss_seidel", "sor"):
            tr = iterative_solve(s, np.zeros(n), IterativeOptions(method=method, omega=1.1))
            assert tr.status == "converged"
            assert np.abs(tr.solution - x_direct).max() <= 1e-8

    def test_linear_matches_textbook_iterate_for_iterate(self, rng):
        n = 4
        A = rng.standard_normal((n, n)) * 0.2
        np.fill_diagonal(A, 2.0 + rng.random(n))
        b = rng.standard_normal(n)
        s = linear_system(A, b)
        for method, omega in (("jacobi", 1.0), ("gauss_seidel", 1.0), ("sor", 1.4)):
            tr = iterative_solve(s, np.zeros(n), IterativeOptions(method=method, omega=omega))
            U = np.zeros(n)
            for recorded in tr.iterates[1:]:
                U = reference_linear_sweep(A, b, U, method, omega)
                assert np.abs(recorded - U).max() <= 1e-13

    def test_quadratic_system_agrees_with_newton(self):
        s = coupled_quadratic_system()
        newton_root = qn_solve(s, np.ones(4), QNOptions()).solution
        tr = iterative_solve(s, np.ones(4), IterativeOptions(method="gauss_seidel"))
        assert tr.status == "converged"
        assert np.abs(tr.solution - newton_root).max() <= 1e-8

    def test_sor_unit_relaxation_is_gauss_seidel(self):
        s = coupled_quadratic_system()
        t_gs = iterative_solve(s, np.ones(4), IterativeOptions(method="gauss_seidel"))
        t_sor = iterative_solve(s, np.ones(4), IterativeOptions(method="sor", omega=1.0))
        assert t_gs.iterations == t_sor.iterations
        for a, b in zip(t_gs.iterates, t_sor.iterates):
            assert np.abs(a - b).max() <= 1e-13

    def test_fixed_point_iff_root(self, rng):
        s = coupled_quadratic_system()
        root = iterative_solve(s, np.ones(4), IterativeOptions(tol=1e-13)).solution
        swept, _ = sweep_once(s, root, "gauss_seidel")
        assert np.abs(swept - root).max() <= 1e-10
        # a non-root moves under the sweep
        not_root = root + 0.1
        swept, _ = sweep_once(s, not_root, "gauss_seidel")
        assert np.abs(swept - not_root).max() > 1e-6

    def test_diag_dominant_corpus_converges(self, rng):
        for _ in range(20):
            s = diag_dominant_quadratic_system(rng, 6)
            for method, omega in (("jacobi", 1.0), ("gauss_seidel", 1.0), ("sor", 1.2)):
                tr = iterative_solve(
                    s, np.ones(6), IterativeOptions(method=method, omega=omega, max_iter=500)
                )
                assert tr.status == "converged", f"{method} failed"

    @pytest.mark.parametrize("method, omega", [("jacobi", 1.0), ("gauss_seidel", 1.0), ("sor", 1.2)])
    def test_each_iterate_contracts_once(self, method, omega, monkeypatch):
        # one record per iterate gives its residual and the next sweep's A(U)
        states = count_calls(monkeypatch, PolySystem, "at")
        sweeps = count_calls(monkeypatch, PolyState, "A")
        s = diag_dominant_quadratic_system(np.random.default_rng(3), 5)
        tr = iterative_solve(s, np.ones(5), IterativeOptions(method=method, omega=omega))
        assert tr.status == "converged"
        assert len(states) == tr.iterations
        assert len(sweeps) == tr.iterations - 1

    def test_max_iter_exceeded_status(self):
        s = coupled_quadratic_system()
        tr = iterative_solve(s, np.ones(4), IterativeOptions(max_iter=1, tol=1e-14))
        assert tr.status == "max_iter_exceeded"

    def test_omega_validation(self):
        with pytest.raises(ValueError, match="omega"):
            IterativeOptions(method="sor", omega=2.5)

    @pytest.mark.parametrize(
        "option, message",
        [({"tol": float("nan")}, "tol must be positive"), ({"max_iter": -1}, "max_iter must be at least 0")],
        ids=["nan-tol", "negative-max-iter"],
    )
    def test_options_outside_domain_rejected(self, option, message):
        with pytest.raises(ValueError, match=message):
            IterativeOptions(**option)

    def test_trace_serialization(self):
        s = coupled_quadratic_system()
        tr = iterative_solve(s, np.ones(4), IterativeOptions())
        import json

        d = json.loads(tr.to_json())
        assert d["status"] == "converged"
        assert len(d["residual_norms"]) == tr.iterations
        csv = tr.to_csv()
        assert csv.startswith("iter,U0,U1,U2,U3,residual")
