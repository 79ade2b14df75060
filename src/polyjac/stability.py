"""Step-size bounds and time stepping on the state-dependent linear form.

Explicit methods carry a-priori bounds h < 2/||A|| (Euler) and
h < 2.785/||A|| (classic RK4, real-axis stability interval), with the matrix
norm (l1 or linf) standing in for the spectral radius.  Implicit methods are
judged a posteriori by a negative-definiteness certificate on the symmetric
part of A(U).  Implicit Euler is Newton with the exact Jacobian J(V) from
the same record as A(V); semi-implicit Euler stops at its first iterate.
"""

from dataclasses import dataclass, field
import functools
import json
import math

import numpy as np

from .system import PolySystem, check_dense, diverged
from .expressions import SemiDiscreteIVP, lower_to_poly
from .trace import _csv_row, start_state

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
RK4_REAL_AXIS = 2.785

_NORM_AXIS = {"l1": 0, "linf": 1}
_REPORT_STACK_BYTES = 2**21  # bytes of one stack of A(U) in integrate's reports: 16 states at n = 128


def _matrix_norm(A, norm_kind):
    """The induced l1 norm (largest column sum of |A|) or linf norm (largest row sum).

    This is np.linalg.norm's own formula for ord 1 and inf, without its dispatch.
    """
    if norm_kind not in _NORM_AXIS:
        raise ValueError(f"norm_kind must be 'l1' or 'linf', got {norm_kind!r}")
    return np.abs(A).sum(axis=_NORM_AXIS[norm_kind]).max()


def _limit(c, nrm):
    """The step bound c/nrm; a zero norm imposes no restriction, so inf."""
    return math.inf if nrm == 0.0 else c / nrm


def step_bound_explicit_euler(A, norm_kind="linf"):
    """Sufficient explicit-Euler step bound 2/||A||.

    The matrix norm dominates every eigenvalue modulus, so this is at most
    the eigenvalue-based bound 2/|lambda|_max.  A zero matrix imposes no
    restriction; returns inf.
    """
    return _limit(2.0, _matrix_norm(np.asarray(A, dtype=float), norm_kind))


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
    U = np.asarray(U, dtype=float).ravel()
    if U.shape != (ivp.n,):
        raise ValueError(f"state length {U.size} != system dimension {ivp.n}")
    denom = _matrix_norm(ivp.second_diff, norm_kind) / ivp.reynolds + _matrix_norm(
        ivp.first_diff, norm_kind
    ) * np.linalg.norm(U, np.inf)
    return _limit(2.0, denom)


def is_negative_definite(A):
    """Negative definiteness of A judged via its symmetric part.

    Returns (lambda_max(sym(A)) < 0, lambda_max).  The symmetric-part
    criterion is the standard sufficient condition for ||exp(At)|| decay and
    is the definition adopted here for nonsymmetric A.
    """
    A = np.asarray(A, dtype=float)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got {A.shape}")
    lam = float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])
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
        for k, (t, u) in enumerate(zip(self.times, self.states)):
            rep = self.per_step_reports[k] if k < len(self.per_step_reports) else None
            hb = "" if rep is None or rep.h_bound is None else f"{rep.h_bound:.17g}"
            nd = "" if rep is None or rep.negdef_certificate is None else str(rep.negdef_certificate).lower()
            lines.append(_csv_row([t, *np.asarray(u).ravel().tolist()]) + f",{hb},{nd}")
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
    """A PolySystem source itself, or a tree source lowered; the ValueError names the user and why it does not lower."""
    if isinstance(source, PolySystem):
        return source
    if not isinstance(source, SemiDiscreteIVP):
        raise TypeError("source must be a PolySystem or SemiDiscreteIVP")
    try:
        return lower_to_poly(source.rhs, source.n)
    except ValueError as exc:
        raise ValueError(f"{user} needs a polynomial system; the tree does not lower: {exc}") from exc


class IVP:
    """Initial value problem dU/dt = rhs(U) with optional polynomial structure.

    Built from a PolySystem (rhs = its residual, constant term folded in) or a
    SemiDiscreteIVP expression tree.  Polynomial sources additionally expose
    the exact Jacobian J(U), which implicit stepping requires, and A(U); a
    polynomial expression tree is lowered when poly is first read.  Every rhs
    evaluation of a tree calls the value the SemiDiscreteIVP compiled.  U0 is
    checked as a solver's start is: a ValueError names a length other than n
    or a non-finite entry.
    """

    def __init__(self, source, U0):
        self.U0 = start_state(U0, source.n)
        self._source = source
        self._tree = source._compiled[0] if isinstance(source, SemiDiscreteIVP) else None
        self.n = source.n

    @functools.cached_property
    def poly(self):
        """The PolySystem, lowered on first use; None, with the reason in _lowering_error, if the tree does not lower."""
        try:
            return _polynomial(self._source, "implicit stepping")
        except ValueError as exc:
            self._lowering_error = str(exc)
            return None

    def rhs(self, U):
        return (self._tree or self.poly.eval)(np.asarray(U, dtype=float).ravel())

    def linear_form(self, U):
        if self.poly is None:
            raise ValueError("no polynomial structure; linear form unavailable")
        return self.poly.at(U)


NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


def _reports(poly, method, states):
    """Per state, the linf step bound (explicit) or certificate (implicit) of A(U), stacked by _REPORT_STACK_BYTES."""
    reports, per_stack = [], max(1, _REPORT_STACK_BYTES // (8 * poly.n**2))
    for i in range(0, len(states), per_stack):
        A = poly._linear_forms(np.array(states[i : i + per_stack]))
        if method in ("explicit_euler", "rk4"):
            c = 2.0 if method == "explicit_euler" else RK4_REAL_AXIS
            norms = np.abs(A, out=A).sum(axis=-1).max(axis=-1)  # _matrix_norm's linf, |A| in A's array
            reports += [StabilityReport(h_bound=_limit(c, nrm)) for nrm in norms]
        else:
            lam = np.linalg.eigvalsh(0.5 * (A + A.swapaxes(1, 2)))[:, -1]  # is_negative_definite's, stacked
            reports += [StabilityReport(negdef_certificate=x < 0.0) for x in lam.tolist()]
    return reports


def _step(ivp, rhs, method, U, h, eye):
    """The state one step of size h after U, or None when an implicit solve fails.

    rhs is the compiled tree or poly.eval, and eye the n x n identity, both read once per integration.
    """
    if method == "explicit_euler":
        return U + h * rhs(U)
    if method == "rk4":
        k1 = rhs(U)
        k2 = rhs(U + 0.5 * h * k1)
        k3 = rhs(U + 0.5 * h * k2)
        k4 = rhs(U + h * k3)
        return U + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    try:
        st = ivp.poly.at(U)
        f = st.f if ivp._tree is None else rhs(U)
        V = U + h * np.linalg.solve(eye - h * st.J, f)
        if method == "semi_implicit_euler":
            return V
        # implicit Euler: Newton on V - U - h f(V) = 0, J(V) and f(V) from one record per iterate
        for _ in range(NEWTON_MAX_ITER):
            st = ivp.poly.at(V)
            dV = np.linalg.solve(eye - h * st.J, U + h * st.f - V)
            V = V + dV
            # np.abs(x).max() is np.linalg.norm(x, inf) for a vector; NaN propagates through max
            if not math.isfinite(m := np.abs(V).max()):
                return None
            if np.abs(dV).max() <= NEWTON_TOL * (1.0 + m):
                return V
    except np.linalg.LinAlgError:
        return None
    return None  # Newton iteration did not converge


def integrate(ivp, method, h, steps, report=False):
    """Advance an IVP with steps >= 0 fixed steps of size 0 < h < inf; returns a Trajectory.

    explicit_euler steps U + h rhs(U), which for polynomial structure equals
    the linear-form step [I + A(U)h]U + hF up to rounding.  implicit_euler
    solves the step equation by Newton with the exact Jacobian from the same
    record as f; semi_implicit_euler takes only its first iterate, one solve
    per step.  A failed solve ends the run as solver_failed.  Divergence (a
    non-finite entry or ||U||_inf > 1e8) ends it as diverged.  With report,
    each step of a polynomial IVP gets a StabilityReport from A(U) at the
    step's start (at its end for implicit_euler), built after the march from
    the stored states in stacks of A(U) of at most 2 MiB, with the very values
    a report made at each step would have.  A tree evaluated outside its
    domain raises DomainError.  A trajectory (steps + 1 states of n floats)
    over system.DENSE_LIMIT_BYTES raises ValueError before any step.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    check_dense((steps + 1, ivp.n), "trajectory")
    if method in ("implicit_euler", "semi_implicit_euler") and ivp.poly is None:
        raise ValueError(ivp._lowering_error)

    # every step returns a new array and reads U only, so each state is stored
    # as made; the copy keeps the first one apart from ivp.U0
    U = ivp.U0.copy()
    t = 0.0
    traj = Trajectory(times=[t], states=[U])
    rhs, eye = ivp._tree or ivp.poly.eval, np.eye(ivp.n)
    for k in range(steps):
        U = _step(ivp, rhs, method, U, h, eye)
        if U is None:
            traj.status, traj.failure_step = "solver_failed", k
            break
        t += h
        traj.times.append(t)
        traj.states.append(U)
        if diverged(U):
            traj.status, traj.failure_step = "diverged", k
            break
    if report and len(traj.states) > 1 and ivp.poly is not None:  # one report per step taken
        states = traj.states[1:] if method == "implicit_euler" else traj.states[:-1]
        traj.per_step_reports = _reports(ivp.poly, method, states)
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
