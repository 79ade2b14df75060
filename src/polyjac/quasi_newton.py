"""Newton and rank-one secant root finders for polynomial systems.

The classic rank-one update enforces the secant condition
J q = f(U_i) - f(U_{i-1}).  That condition only holds approximately for the
true Jacobian.  For polynomial systems the homogeneous-function identity
gives an exact counterpart: with fbar(U) = J(U) U = L U + 2 N2(U) + 3 N3(U),
any exact Jacobians satisfy J_i U_i - J_{i-1} U_{i-1} = fbar(U_i) -
fbar(U_{i-1}) identically.  The modified update enforces that exact relation
instead; both keep the rank-one no-change property on directions orthogonal
to the step.
"""

from dataclasses import dataclass

import numpy as np

from .system import diverged, jacobian_action, jacobian_deviation
from .trace import SolverTrace

__all__ = [
    "QNOptions",
    "jacobian_action",
    "classic_update",
    "classic_inverse_update",
    "modified_update",
    "modified_inverse_update",
    "qn_solve",
    "deviation_report",
    "GuardTripError",
]

VARIANTS = ("newton", "classic_rank1", "modified_rank1")
PAIRING_TOL = 1e-6


class GuardTripError(ValueError):
    """A rank-one denominator fell below the guard threshold."""

    def __init__(self, name, value):
        super().__init__(f"denominator {name} = {value:.3e} below guard")
        self.name = name
        self.value = value


@dataclass(frozen=True)
class QNOptions:
    variant: str = "newton"
    tol: float = 1e-10
    max_iter: int = 100
    denom_guard: float = None  # defaults to 1e-12 * (1 + ||q||^2) per update
    reinit_policy: str = "on_guard_trip"  # or "never"
    keep_jacobians: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.reinit_policy not in ("on_guard_trip", "never"):
            raise ValueError(f"bad reinit_policy {self.reinit_policy!r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def _guard(denom_guard, q):
    if denom_guard is not None:
        return denom_guard
    return 1e-12 * (1.0 + float(q @ q))


def classic_update(J_prev, q, delta_f, denom_guard=None):
    """Rank-one secant update: J = J_prev - (J_prev q - delta_f) q^T / (q^T q).

    The result satisfies J q = delta_f exactly and leaves the action on any
    direction orthogonal to q unchanged.
    """
    J_prev = np.asarray(J_prev, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    delta_f = np.asarray(delta_f, dtype=float).ravel()
    s = float(q @ q)
    g = _guard(denom_guard, q)
    if s <= g:
        raise GuardTripError("q^T q", s)
    return J_prev - np.outer(J_prev @ q - delta_f, q) / s


def classic_inverse_update(Jinv_prev, q, delta_f, denom_guard=None):
    """Sherman-Morrison counterpart of classic_update on the inverse."""
    Jinv_prev = np.asarray(Jinv_prev, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    delta_f = np.asarray(delta_f, dtype=float).ravel()
    z = Jinv_prev @ delta_f
    denom = float(q @ z)
    if abs(denom) <= _guard(denom_guard, q):
        raise GuardTripError("q^T (Jinv delta_f)", denom)
    return Jinv_prev - np.outer(z - q, q @ Jinv_prev) / denom


def _modified_correction(J_prev, U_prev, q, y, denom_guard):
    """The rank-one correction vector r with J = J_prev + r q^T."""
    s = float(q @ q)
    g = _guard(denom_guard, q)
    if s <= g:
        raise GuardTripError("q^T q", s)
    t = float(q @ U_prev)
    if abs(s + t) <= g:
        raise GuardTripError("q^T q + q^T U_prev", s + t)
    JU = J_prev @ U_prev
    w = J_prev @ q - JU - y
    r = -JU / (s + t) - w / s + w * (t / ((s + t) * s))
    return r


def modified_update(J_prev, U_prev, U_cur, y, denom_guard=None):
    """Rank-one update enforcing the exact relation J U_cur - J_prev U_prev = y.

    y is the difference of jacobian_action values between the two iterates.
    Resolved in closed form via Sherman-Morrison on the implicit equation, so
    no linear solve is needed.
    """
    J_prev = np.asarray(J_prev, dtype=float)
    U_prev = np.asarray(U_prev, dtype=float).ravel()
    U_cur = np.asarray(U_cur, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    q = U_cur - U_prev
    r = _modified_correction(J_prev, U_prev, q, y, denom_guard)
    return J_prev + np.outer(r, q)


def modified_inverse_update(Jinv_prev, J_prev, U_prev, U_cur, y, denom_guard=None):
    """Sherman-Morrison inverse of modified_update's result."""
    Jinv_prev = np.asarray(Jinv_prev, dtype=float)
    J_prev = np.asarray(J_prev, dtype=float)
    U_prev = np.asarray(U_prev, dtype=float).ravel()
    U_cur = np.asarray(U_cur, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    q = U_cur - U_prev
    r = _modified_correction(J_prev, U_prev, q, y, denom_guard)
    z = Jinv_prev @ r
    denom = 1.0 + float(q @ z)
    if abs(denom) <= _guard(denom_guard, q):
        raise GuardTripError("1 + q^T (Jinv r)", denom)
    return Jinv_prev - np.outer(z, q @ Jinv_prev) / denom


def qn_solve(s, U0, opts=None):
    """Root-find f(U) = 0 by Newton or a rank-one quasi-Newton variant.

    Rank-one variants initialize from the exact Jacobian at U0 and step with
    the maintained inverse approximation; guard trips and inverse-pairing
    failures trigger an exact reinitialization (default) or abort the solve,
    per opts.reinit_policy.
    """
    opts = opts or QNOptions()
    U = np.asarray(U0, dtype=float).ravel()
    if U.size != s.n:
        raise ValueError(f"U0 length {U.size} != system dimension {s.n}")
    if not np.all(np.isfinite(U)):
        raise ValueError("U0 contains non-finite entries")

    trace = SolverTrace()
    if opts.keep_jacobians:
        trace.jacobians = []

    def record(u, J=None):
        trace.iterates.append(u.copy())
        trace.residual_norms.append(float(np.linalg.norm(s.eval(u), np.inf)))
        if trace.jacobians is not None:
            trace.jacobians.append(None if J is None else J.copy())

    def reinit(u):
        J = s.jacobian(u)
        return J, np.linalg.inv(J)

    fU = s.eval(U)
    if opts.variant == "newton":
        J = s.jacobian(U)
        record(U, J)
        for _ in range(opts.max_iter):
            if np.linalg.norm(fU, np.inf) <= opts.tol:
                trace.status = "converged"
                return trace
            try:
                step = np.linalg.solve(J, -fU)
            except np.linalg.LinAlgError:
                trace.status = "guard_trip"
                trace.failure_index = trace.iterations - 1
                return trace
            U = U + step
            fU = s.eval(U)
            J = s.jacobian(U)
            record(U, J)
            if diverged(U):
                trace.status = "diverged"
                return trace
        trace.status = (
            "converged" if np.linalg.norm(fU, np.inf) <= opts.tol else "max_iter_exceeded"
        )
        return trace

    modified = opts.variant == "modified_rank1"
    try:
        J, J_inv = reinit(U)
    except np.linalg.LinAlgError:
        trace.status = "guard_trip"
        return trace
    fbar_U = jacobian_action(s, U) if modified else None
    record(U, J)

    for k in range(opts.max_iter):
        if np.linalg.norm(fU, np.inf) <= opts.tol:
            trace.status = "converged"
            return trace
        step = -J_inv @ fU
        U_new = U + step
        f_new = s.eval(U_new)
        try:
            if modified:
                fbar_new = jacobian_action(s, U_new)
                y = fbar_new - fbar_U
                J_new = modified_update(J, U, U_new, y, opts.denom_guard)
                Jinv_new = modified_inverse_update(J_inv, J, U, U_new, y, opts.denom_guard)
            else:
                q = U_new - U
                df = f_new - fU
                J_new = classic_update(J, q, df, opts.denom_guard)
                Jinv_new = classic_inverse_update(J_inv, q, df, opts.denom_guard)
            pairing = np.linalg.norm(Jinv_new @ J_new - np.eye(s.n), np.inf)
            if not np.isfinite(pairing) or pairing > PAIRING_TOL:
                raise GuardTripError("inverse pairing", pairing)
        except GuardTripError:
            if opts.reinit_policy == "never":
                trace.status = "guard_trip"
                trace.failure_index = k
                return trace
            try:
                J_new, Jinv_new = reinit(U_new)
            except np.linalg.LinAlgError:
                trace.status = "guard_trip"
                trace.failure_index = k
                return trace

        U, fU, J, J_inv = U_new, f_new, J_new, Jinv_new
        if modified:
            fbar_U = jacobian_action(s, U)
        record(U, J)
        if diverged(U):
            trace.status = "diverged"
            return trace

    trace.status = "converged" if np.linalg.norm(fU, np.inf) <= opts.tol else "max_iter_exceeded"
    return trace


def deviation_report(s, trace):
    """Relative Jacobian deviation at every recorded iterate.

    Requires a trace built with keep_jacobians=True.  Entries are None where
    fbar(U) = 0 (metric undefined) or no approximation was recorded.
    """
    if trace.jacobians is None:
        raise ValueError("trace has no recorded Jacobian approximations")
    out = []
    for U, J in zip(trace.iterates, trace.jacobians):
        if J is None:
            out.append(None)
            continue
        try:
            out.append(jacobian_deviation(s, U, J))
        except ValueError:
            out.append(None)
    return out
