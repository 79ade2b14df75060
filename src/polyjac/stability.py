"""Step-size bounds and time stepping on the state-dependent linear form.

Explicit methods carry a-priori bounds h < 2/||A|| (Euler) and
h < 2.785/||A|| (classic RK4, real-axis stability interval), with the matrix
norm (l1 or linf) standing in for the spectral radius.  Implicit methods are
judged a posteriori by a negative-definiteness certificate on the symmetric
part of A(U).  An implicit Newton iterate reads f(U) and I - h J(U) from one
contraction of the lowered system, PolySystem._newton_system behind
IVP.newton_system; reports read A(U) from the same system.
"""

from dataclasses import dataclass, field
import json
import math

import numpy as np

from .system import PolySystem, _per_stack, _solve, _state, check_dense, diverged
from .expressions import SemiDiscreteIVP
from .trace import _csv_format, start_state

__all__ = [
    "IVP",
    "StabilityReport",
    "Trajectory",
    "step_bound_explicit_euler",
    "step_bound_rk4",
    "burgers_step_bound",
    "is_negative_definite",
    "integrate",
    "scan_blowup_threshold",
]

METHODS = ("explicit_euler", "rk4", "implicit_euler", "semi_implicit_euler")
EULER_REAL_AXIS = 2.0
RK4_REAL_AXIS = 2.785

_NORM_AXIS = {"l1": -2, "linf": -1}


def _matrix_norm(A, norm_kind, out=None):
    """The induced l1 norm (largest column sum of |A|) or linf norm (largest row sum), over the last two axes.

    np.linalg.norm's own formula for ord 1 and inf, without its dispatch; |A| is formed in out, which may be A.
    """
    if norm_kind not in _NORM_AXIS:
        raise ValueError(f"norm_kind must be 'l1' or 'linf', got {norm_kind!r}")
    return np.abs(A, out=out).sum(axis=_NORM_AXIS[norm_kind]).max(axis=-1)


def _symmetric_eig_max(A):
    """The largest eigenvalue of the symmetric part of A, over the last two axes."""
    return np.linalg.eigvalsh(0.5 * (A + A.swapaxes(-1, -2)))[..., -1]


def _limit(c, nrm):
    """The step bound c/nrm; a zero norm imposes no restriction, so inf."""
    return math.inf if nrm == 0.0 else c / nrm


def step_bound_explicit_euler(A, norm_kind="linf"):
    """Sufficient explicit-Euler step bound 2/||A||.

    The matrix norm dominates every eigenvalue modulus, so this is at most
    the eigenvalue-based bound 2/|lambda|_max.  A zero matrix imposes no
    restriction; returns inf.
    """
    return _limit(EULER_REAL_AXIS, _matrix_norm(np.asarray(A, dtype=float), norm_kind))


def step_bound_rk4(A, norm_kind="linf"):
    """Classic RK4 step bound 2.785/||A|| (real-axis stability interval)."""
    return _limit(RK4_REAL_AXIS, _matrix_norm(np.asarray(A, dtype=float), norm_kind))


def burgers_step_bound(ivp, U, norm_kind="linf"):
    """A-priori explicit-Euler bound for the Burgers semi-discretization.

    Returns 2 / ((1/Re) ||B|| + ||A|| ||U||_inf) with Re = ivp.reynolds, more
    conservative than 2/||A(t,U)|| of the assembled state-dependent matrix
    (triangle inequality applied termwise).
    """
    if ivp.first_diff is None or ivp.second_diff is None:
        raise ValueError("ivp lacks difference matrices; build it with burgers_discretize")
    U = _state(U, ivp.n)
    denom = _matrix_norm(ivp.second_diff, norm_kind) / ivp.reynolds
    return _limit(EULER_REAL_AXIS, denom + _matrix_norm(ivp.first_diff, norm_kind) * np.linalg.norm(U, np.inf))


def is_negative_definite(A):
    """Negative definiteness of A judged via its symmetric part.

    Returns (lambda_max(sym(A)) < 0, lambda_max).  The symmetric-part
    criterion is the standard sufficient condition for ||exp(At)|| decay and
    is the definition adopted here for nonsymmetric A.
    """
    A = np.asarray(A, dtype=float)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got {A.shape}")
    lam = float(_symmetric_eig_max(A))
    return lam < 0.0, lam


@dataclass(frozen=True)
class StabilityReport:
    """Per-step stability certificate: a step bound (explicit) or definiteness (implicit)."""

    h_bound: float = None
    negdef_certificate: bool = None


@dataclass
class Trajectory:
    """Time grid, states and optional per-step reports of one integration."""

    times: list
    states: list
    per_step_reports: list = field(default_factory=list)
    status: str = "completed"
    failure_step: int = None

    def to_csv(self):
        n = np.asarray(self.states[0]).size
        lines = ["t," + ",".join(f"U{i}" for i in range(n)) + ",h_bound,negdef"]
        row = _csv_format(n + 1) + ",%s,%s"
        states = np.reshape(self.states, (len(self.states), n)).tolist()
        for k, (t, u) in enumerate(zip(self.times, states)):
            rep = self.per_step_reports[k] if k < len(self.per_step_reports) else None
            hb = "" if rep is None or rep.h_bound is None else f"{rep.h_bound:.17g}"
            nd = "" if rep is None or rep.negdef_certificate is None else str(rep.negdef_certificate).lower()
            lines.append(row % (t, *u, hb, nd))
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps(
            {
                "status": self.status,
                "failure_step": self.failure_step,
                "times": [float(t) for t in self.times],
                "states": [np.asarray(u).tolist() for u in self.states],
            }
        )


def _polynomial(source, user):
    """A PolySystem source itself, or a tree source's kept lowering; a ValueError names the user and the reason."""
    if isinstance(source, PolySystem):
        return source
    if not isinstance(source, SemiDiscreteIVP):
        raise TypeError("source must be a PolySystem or SemiDiscreteIVP")
    try:
        return source._poly
    except ValueError as exc:
        raise ValueError(f"{user} needs a polynomial system; the tree does not lower: {exc}") from exc


class IVP:
    """Initial value problem dU/dt = f(U) from a PolySystem or a SemiDiscreteIVP tree.

    Explicit and RK4 steps call value(U), picked once by the constructor: the tree's compiled
    value, or PolySystem.eval.  Implicit steps of size h call newton_system(h)(U), f and I - h J
    from one contraction of poly.  poly is the PolySystem, or the tree's lowering, which the
    SemiDiscreteIVP makes at its first use and shares with every IVP built on it; a ValueError
    says why a tree does not lower.  U0 is checked as a solver's start: a ValueError names a
    wrong length or a non-finite entry.
    """

    def __init__(self, source, U0):
        self.U0 = start_state(U0, source.n)
        self.n, self._source = source.n, source
        self.value = source._compiled[0] if isinstance(source, SemiDiscreteIVP) else source.eval

    poly = property(lambda self: _polynomial(self._source, "the linear form"))

    def linear_form(self, U):
        return self.poly.at(U)

    def newton_system(self, h):
        """U -> (f(U), I - h J(U)) from one contraction of poly: PolySystem._newton_system."""
        return _polynomial(self._source, "implicit stepping")._newton_system(h)


# Implicit Euler's Newton stops once its correction d, or the error left after it as estimated from
# the contraction rate theta = d / d_prev, theta / (1 - theta) d, is at most NEWTON_TOL (1 + ||V||inf).
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


def _reports(poly, method, states):
    """Per state, the linf step bound (explicit) or certificate (implicit) of A(U), in stacks of _per_stack(n)."""
    reports, per_stack = [], _per_stack(poly.n)
    for i in range(0, len(states), per_stack):
        A = poly._linear_forms(np.array(states[i : i + per_stack]))
        if method in ("explicit_euler", "rk4"):
            c = EULER_REAL_AXIS if method == "explicit_euler" else RK4_REAL_AXIS
            reports += [StabilityReport(h_bound=_limit(c, nrm)) for nrm in _matrix_norm(A, "linf", out=A)]
        else:
            reports += [StabilityReport(negdef_certificate=x < 0.0) for x in _symmetric_eig_max(A).tolist()]
    return reports


def _step(value, system, method, U, h):
    """One step of size h from U, by value(U) = f(U) or system(U) = (f(U), I - h J(U)); None when a solve fails.

    Implicit Euler's Newton stops when its correction d, or the error left after it as estimated
    from the contraction rate, d^2 / (d_prev - d) with d <= d_prev / 2, is at most
    NEWTON_TOL (1 + ||V||inf); the predictor is the first d_prev.
    """
    if method == "explicit_euler":
        return U + h * value(U)
    if method == "rk4":
        k1 = value(U)
        k2 = value(U + 0.5 * h * k1)
        k3 = value(U + 0.5 * h * k2)
        k4 = value(U + h * k3)
        return U + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    try:
        f, K = system(U)
        dV = h * _solve(K, f)
        V = U + dV
        if method == "semi_implicit_euler":
            return V
        # implicit Euler: Newton on V - U - h f(V) = 0, f(V) and I - h J(V) from one contraction per
        # iterate; the predictor is Newton's first correction from V = U
        d_prev = np.abs(dV).max()
        for _ in range(NEWTON_MAX_ITER):
            f, K = system(V)
            dV = _solve(K, U + h * f - V)
            V = V + dV
            # np.abs(x).max() is np.linalg.norm(x, inf) for a vector; NaN propagates through max
            if not math.isfinite(m := np.abs(V).max()):
                return None
            d, tol = np.abs(dV).max(), NEWTON_TOL * (1.0 + m)
            # the stop rule of the docstring, free of division (d_prev may be 0)
            if d <= tol or (2.0 * d <= d_prev and d * d <= tol * (d_prev - d)):
                return V
            d_prev = d
    except np.linalg.LinAlgError:
        return None
    return None  # Newton iteration did not converge


def integrate(ivp, method, h, steps, report=False):
    """Advance an IVP with steps >= 0 fixed steps of size 0 < h < inf; returns a Trajectory.

    explicit_euler steps U + h f(U), which for polynomial structure equals
    the linear-form step [I + A(U)h]U + hF up to rounding.  implicit_euler
    solves the step equation by Newton with I - h J(U) from the same
    contraction as f(U), stopping once the correction, or the error left
    after it as estimated from the contraction rate, is at most
    NEWTON_TOL (1 + ||U||inf) at the new U; semi_implicit_euler takes only its first iterate.  A failed
    solve ends the run as solver_failed; divergence (a non-finite entry or
    ||U||_inf > 1e8) as diverged.  With report, each step gets a
    StabilityReport from A(U) at its start (at its end for implicit_euler),
    built after the march in stacks of A(U) of at most 2 MiB.  A tree outside
    its domain raises DomainError.  A ValueError before any step refuses a
    tree that does not lower for implicit methods or report, and a
    trajectory (steps + 1 states of n floats) over system.DENSE_LIMIT_BYTES.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    check_dense((steps + 1, ivp.n), "trajectory")
    system = ivp.newton_system(h) if method in ("implicit_euler", "semi_implicit_euler") else None
    poly = _polynomial(ivp._source, "a stability report") if report else None

    # every step returns a new array and reads U only, so each state is stored
    # as made; the copy keeps the first one apart from ivp.U0
    U = ivp.U0.copy()
    t = 0.0
    traj = Trajectory(times=[t], states=[U])
    for k in range(steps):
        U = _step(ivp.value, system, method, U, h)
        if U is None:
            traj.status, traj.failure_step = "solver_failed", k
            break
        t += h
        traj.times.append(t)
        traj.states.append(U)
        if diverged(U):
            traj.status, traj.failure_step = "diverged", k
            break
    if report and len(traj.states) > 1:  # one report per step taken
        states = traj.states[1:] if method == "implicit_euler" else traj.states[:-1]
        traj.per_step_reports = _reports(poly, method, states)
    return traj


def scan_blowup_threshold(ivp, method, h_lo, h_hi, horizon):
    """Bisect for the largest stable step over a fixed time horizon.

    Requires finite horizon > 0 and horizon / h_lo and a valid bracket:
    completing at h_lo and failing at h_hi.  Resolves to 2% relative width.
    The run at h_lo takes the most steps, so integrate refuses a too long scan.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not 0.0 < h_lo < h_hi < math.inf:
        raise ValueError(f"need 0 < h_lo < h_hi < inf, got h_lo={h_lo}, h_hi={h_hi}")
    if not math.isfinite(horizon / h_lo):
        raise ValueError(f"horizon / h_lo must be finite, got {horizon} / {h_lo}")

    def stable(h):
        steps = max(1, int(math.ceil(horizon / h)))
        return integrate(ivp, method, h, steps).status == "completed"

    if not stable(h_lo):
        raise ValueError(f"bracket invalid: unstable at h_lo={h_lo}")
    if stable(h_hi):
        raise ValueError(f"bracket invalid: stable at h_hi={h_hi}")
    while (h_hi - h_lo) > 0.02 * h_lo:
        mid = 0.5 * (h_lo + h_hi)
        if stable(mid):
            h_lo = mid
        else:
            h_hi = mid
    return h_lo
