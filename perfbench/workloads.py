"""The benchmark's three workloads: seeded inputs, one job, and its oracle.

Each workload builds the inputs of jobs ``0 .. jobs-1`` in ``setup`` (timed as
``setup_s``), runs job ``i`` per ``job(inputs, i)`` call through polyjac's
public API (timed), and judges that job in ``check`` (not timed).  ``check`` returns OK, FAILED (the
job reported its own failure: a status other than success or a non-zero exit
code) or WRONG (the job reported success but its answer misses the oracle).

Every random draw comes from ``numpy.random.default_rng([seed, tag, k])``, so
one seed gives the same inputs on every run and every commit.
"""

import itertools
import json
import math

import numpy as np

import polyjac as pj
from polyjac import cli

OK, FAILED, WRONG = "ok", "failed", "wrong"


def random_cubic(rng, n):
    """Raw coefficients of K U + G (U kron U) + R (U kron U kron U) + F.

    Every quadratic and cubic coefficient is nonzero: L = 4 I + N(0,1)/sqrt(n),
    quadratic 0.5 N(0,1)/n, cubic 0.5 N(0,1)/n^1.5, F ~ N(0,1).
    """
    K = 4.0 * np.eye(n) + rng.standard_normal((n, n)) / math.sqrt(n)
    G = 0.5 * rng.standard_normal((n, n * n)) / n
    R = 0.5 * rng.standard_normal((n, n**3)) / n**1.5
    F = rng.standard_normal(n)
    return K, G, R, F


def raw_residual_norm(coeffs, U):
    """||K U + G (U kron U) + R (U kron U kron U) + F||_inf, independent of polyjac."""
    K, G, R, F = coeffs
    UU = np.kron(U, U)
    return float(np.linalg.norm(K @ U + G @ UU + R @ np.kron(UU, U) + F, np.inf))


def _close(a, b, tol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.isfinite(a))) and np.linalg.norm(a - b, np.inf) <= tol * (
        1.0 + np.linalg.norm(b, np.inf)
    )


class BurgersMarch:
    """Periodic Burgers at Re=100, n=24: lowering, bounds and four integrators.

    A job lowers the tree again for its own initial state (``IVP(sd, U0)``),
    computes the stability report at U0 and integrates to t=0.25 (0.05 for
    implicit Euler) at h=0.005, where every seeded job stays stable.
    """

    name = "burgers-march"
    tag = 1
    N, RE, H = 24, 100.0, 0.005
    RUNS = (("explicit_euler", 50, True), ("rk4", 50, False),
            ("semi_implicit_euler", 50, False), ("implicit_euler", 10, False))
    nominal_jobs_per_s = 8.0
    setup_reps = 21
    warmup_jobs = 4
    trace_jobs = 40

    def __init__(self, seed):
        self.seed = seed

    def setup(self, workdir, jobs):
        sd = pj.burgers_discretize(self.N, self.RE)
        rng = np.random.default_rng([self.seed, self.tag])
        amp = rng.uniform(-0.05, 0.05, jobs)
        phase = rng.uniform(0.0, 2.0 * math.pi, jobs)
        x = np.arange(self.N) / self.N
        states = np.sin(2.0 * math.pi * x) + amp[:, None] * np.sin(
            4.0 * math.pi * x + phase[:, None])
        return sd, states

    def job(self, inputs, i):
        sd, states = inputs
        U0 = states[i]
        ivp = pj.IVP(sd, U0)
        A = ivp.linear_form(U0).A
        poly = ivp.poly
        form = pj.decompose(
            pj.NonlinearRhs(L=poly.L, N=lambda t, V: sum(poly.nonlinear_parts(V))), 0.0, U0)
        bounds = {
            "euler_l1": pj.step_bound_explicit_euler(A, "l1"),
            "euler_linf": pj.step_bound_explicit_euler(A, "linf"),
            "rk4_linf": pj.step_bound_rk4(A, "linf"),
            "negdef": pj.is_negative_definite(A),
            "burgers": pj.burgers_step_bound(sd, U0, norm_kind="linf"),
            "pseudo_jacobian": pj.pj_step_bound_explicit(form, "linf"),
        }
        trajs = {m: pj.integrate(ivp, m, self.H, steps, report=rep)
                 for m, steps, rep in self.RUNS}
        return ivp, bounds, trajs

    def check(self, inputs, i, result):
        sd, _ = inputs
        ivp, bounds, trajs = result
        if any(t.status != "completed" for t in trajs.values()):
            return FAILED
        h, f = self.H, (lambda V: pj.h_eval(sd.rhs, V))
        relaxed, tight = bounds["pseudo_jacobian"]
        positive = [bounds[k] for k in ("euler_l1", "euler_linf", "rk4_linf", "burgers")]
        if not (all(0.0 < b < math.inf for b in positive + [relaxed, tight])
                and bounds["burgers"] <= bounds["euler_linf"] * (1.0 + 1e-12)
                and relaxed <= tight * (1.0 + 1e-12)
                and math.isfinite(bounds["negdef"][1])):
            return WRONG

        euler = trajs["explicit_euler"]
        U = ivp.U0.copy()
        for _ in range(50):
            U = U + h * f(U)
        if not _close(euler.states[-1], U, 1e-10) or len(euler.per_step_reports) != 50:
            return WRONG

        U = ivp.U0.copy()
        for _ in range(50):
            k1 = f(U)
            k2 = f(U + 0.5 * h * k1)
            k3 = f(U + 0.5 * h * k2)
            k4 = f(U + h * k3)
            U = U + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not _close(trajs["rk4"].states[-1], U, 1e-12):
            return WRONG
        # first order in h: within 0.05 of RK4 at t = 0.25
        if not _close(trajs["semi_implicit_euler"].states[-1], U, 0.05):
            return WRONG

        states = trajs["implicit_euler"].states
        for U_prev, V in zip(states[:-1], states[1:]):
            if not _close(V - U_prev - h * f(V), np.zeros_like(V), 1e-8):
                return WRONG

        # A(U) U + F = f(U) at the explicit end state; F = f(0)
        U_end = euler.states[-1]
        lhs = ivp.linear_form(U_end).A @ U_end + ivp.poly.eval(np.zeros_like(U_end))
        return OK if _close(lhs, f(U_end), 1e-10) else WRONG


class DenseSolve:
    """Random dense cubic systems, n=20, solved from U0=0 by all six methods.

    Jobs cycle through a pool of 48 systems: at n=20 each holds 1.3 MB of
    dense coefficients, so one system per job would set peak memory alone.
    """

    name = "dense-solve"
    tag = 2
    N = 20
    TOL = 1e-10
    METHODS = (("newton", None), ("classic_rank1", None), ("modified_rank1", None),
               ("jacobi", 1.0), ("gauss_seidel", 1.0), ("sor", 1.1))
    pool = 48
    nominal_jobs_per_s = 7.0
    setup_reps = 7
    warmup_jobs = 2
    trace_jobs = 40

    def __init__(self, seed):
        self.seed = seed

    def coeffs(self, k):
        return random_cubic(np.random.default_rng([self.seed, self.tag, k]), self.N)

    def setup(self, workdir, jobs):
        return [pj.from_kronecker(*self.coeffs(k)) for k in range(self.pool)]

    def job(self, inputs, i):
        s = inputs[i % self.pool]
        U0 = np.zeros(self.N)
        traces = []
        for method, omega in self.METHODS:
            if omega is None:
                opts = pj.QNOptions(variant=method, tol=self.TOL)
                traces.append(pj.qn_solve(s, U0, opts))
            else:
                opts = pj.IterativeOptions(method=method, omega=omega, tol=self.TOL)
                traces.append(pj.iterative_solve(s, U0, opts))
        return traces

    def check(self, inputs, i, traces):
        coeffs = self.coeffs(i % self.pool)
        status = OK
        for tr in traces:
            if tr.status != "converged":
                status = FAILED
            elif raw_residual_norm(coeffs, tr.solution) > 1e-8:
                return WRONG
        return status


def system_json(K, G, R, F):
    """The sparse-entry system JSON of the raw (unsymmetrized) coefficients."""
    n = F.size
    quadratic = [[*ijk, v] for ijk, v in zip(itertools.product(range(n), repeat=3),
                                              G.ravel().tolist())]
    cubic = [[*ijkl, v] for ijkl, v in zip(itertools.product(range(n), repeat=4),
                                            R.ravel().tolist())]
    return json.dumps({"n": n, "L": K.tolist(), "quadratic": quadratic, "cubic": cubic,
                       "F": F.tolist()})


class CliBatch:
    """In-process ``polyjac`` CLI sessions, seven commands per job.

    Every job has its own n=8 system file and its own Re, so no input is seen
    twice in a run.
    """

    name = "cli-batch"
    tag = 3
    N = 8
    nominal_jobs_per_s = 6.5
    setup_reps = 5
    warmup_jobs = 3
    trace_jobs = 30

    def __init__(self, seed):
        self.seed = seed

    def _draw(self, k):
        rng = np.random.default_rng([self.seed, self.tag, k])
        coeffs = random_cubic(rng, self.N)
        return coeffs, float(rng.uniform(80.0, 120.0))

    def setup(self, workdir, jobs):
        """Writes one system file per job; returns (output dir, [(path, Re)])."""
        out, inputs = workdir / "out", workdir / "inputs"
        out.mkdir(exist_ok=True)
        inputs.mkdir(exist_ok=True)
        specs = []
        for k in range(jobs):
            coeffs, re = self._draw(k)
            path = inputs / f"system{k}.json"
            path.write_text(system_json(*coeffs))
            specs.append((str(path), f"{re!r}"))
        return out, specs

    @staticmethod
    def _argvs(o, path, re, k):
        burgers = ["burgers", "--n", "16", "--re", re]
        return [
            ["--out", f"{o}/newton.json", "solve", path, "--method", "newton"],
            ["--out", f"{o}/modified.json", "solve", path, "--method", "modified-rank1"],
            ["--format", "csv", "--out", f"{o}/gs.csv", "solve", path,
             "--method", "gauss-seidel"],
            ["--seed", str(k), "--out", f"{o}/jac.json", "check-jacobian", path,
             "--random-states", "5"],
            ["--out", f"{o}/stability.json", "stability", *burgers],
            ["--format", "csv", "--out", f"{o}/euler.csv", "integrate", *burgers,
             "--method", "explicit-euler", "--h", "0.01", "--steps", "100", "--report"],
            ["--out", f"{o}/scan.json", "integrate", *burgers, "--scan",
             "--h-lo", "0.02", "--h-hi", "0.3", "--horizon", "2"],
        ]

    def job(self, inputs, i):
        out, jobs = inputs
        path, re = jobs[i]
        return [cli.main(argv) for argv in self._argvs(out, path, re, i)]

    def check(self, inputs, i, codes):
        out, jobs = inputs
        try:
            return self._judge(out, i, jobs[i][1], codes)
        finally:
            for f in out.iterdir():  # no stale output can pass for the next job's
                f.unlink()

    def _judge(self, o, i, re, codes):
        if any(code not in (0, 2) for code in codes):
            return FAILED
        coeffs, _ = self._draw(i)
        status = OK
        gs = [r.split(",") for r in (o / "gs.csv").read_text().splitlines()]
        if gs[0] != ["iter"] + [f"U{j}" for j in range(self.N)] + ["residual"]:
            return WRONG
        newton, modified = (json.loads((o / f"{name}.json").read_text())
                            for name in ("newton", "modified"))
        solves = [(newton["status"] == "converged", newton["iterates"][-1]),
                  (modified["status"] == "converged", modified["iterates"][-1]),
                  (float(gs[-1][-1]) <= 1e-10, gs[-1][1:-1])]
        for (converged, root), code in zip(solves, codes):
            if converged != (code == 0):
                return WRONG
            if code != 0:
                status = FAILED
            elif raw_residual_norm(coeffs, np.array(root, dtype=float)) > 1e-8:
                return WRONG

        if any(code != 0 for code in codes[3:]):
            return FAILED
        jac = json.loads((o / "jac.json").read_text())
        stab = json.loads((o / "stability.json").read_text())
        euler = [r.split(",") for r in (o / "euler.csv").read_text().splitlines()]
        scan = json.loads((o / "scan.json").read_text())
        # rows: t, U0..U15, h_bound, negdef; the final state has no step report
        states = np.array([r[:17] for r in euler[1:]], dtype=float)
        h_bounds = np.array([r[17] for r in euler[1:-1]], dtype=float)
        ok = (
            jac["states_checked"] == 5 and jac["max_fd_rel_error"] <= 1e-5
            and 0.0 < stab["burgers_a_priori_bound"] <= stab["euler_bound_linf"]
            and len(euler) == 102 and states.shape == (101, 17)
            and bool(np.all(np.isfinite(states))) and bool(np.all(h_bounds > 0.0))
            and 0.02 <= scan["blowup_threshold"] <= 0.3
            and self._stable(float(re), scan["blowup_threshold"], 2.0)
        )
        return status if ok else WRONG

    @staticmethod
    def _stable(re, h, horizon):
        """Explicit Euler on the Burgers preset, stepped here with h_eval only."""
        sd = pj.burgers_discretize(16, re)
        U = np.sin(2.0 * math.pi * np.arange(16) / 16)
        for _ in range(max(1, math.ceil(horizon / h))):
            U = U + h * pj.h_eval(sd.rhs, U)
            if not np.all(np.isfinite(U)) or np.linalg.norm(U, np.inf) > 1e8:
                return False
        return True


WORKLOADS = {w.name: w for w in (BurgersMarch, DenseSolve, CliBatch)}
