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
    """Settings of one qn_solve run; variant is one of VARIANTS.

    reinit_policy "on_guard_trip" replaces a rank-one update that trips a
    guard by the exact Jacobian at the new iterate; "never" ends the solve
    with status "guard_trip".  keep_jacobians records each iterate's
    Jacobian or approximation in trace.jacobians, as deviation_report needs.
    Every rank-one denominator is guarded by _guard(q).
    """

    variant: str = "newton"
    tol: float = 1e-10
    max_iter: int = 100
    reinit_policy: str = "on_guard_trip"  # or "never"
    keep_jacobians: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.reinit_policy not in ("on_guard_trip", "never"):
            raise ValueError(f"bad reinit_policy {self.reinit_policy!r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def _guard(q):
    """Smallest usable rank-one denominator for step q: 1e-12 (1 + ||q||^2)."""
    return 1e-12 * (1.0 + float(q @ q))


def classic_update(J_prev, q, delta_f):
    """Rank-one secant update: J = J_prev - (J_prev q - delta_f) q^T / (q^T q).

    The result satisfies J q = delta_f exactly and leaves the action on any
    direction orthogonal to q unchanged.
    """
    J_prev = np.asarray(J_prev, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    delta_f = np.asarray(delta_f, dtype=float).ravel()
    s = float(q @ q)
    if s <= _guard(q):
        raise GuardTripError("q^T q", s)
    return J_prev - np.outer(J_prev @ q - delta_f, q) / s


def classic_inverse_update(Jinv_prev, q, delta_f):
    """Sherman-Morrison counterpart of classic_update on the inverse."""
    Jinv_prev = np.asarray(Jinv_prev, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    delta_f = np.asarray(delta_f, dtype=float).ravel()
    z = Jinv_prev @ delta_f
    denom = float(q @ z)
    if abs(denom) <= _guard(q):
        raise GuardTripError("q^T (Jinv delta_f)", denom)
    return Jinv_prev - np.outer(z - q, q @ Jinv_prev) / denom


def _modified_correction(J_prev, U_prev, q, y):
    """The rank-one correction vector r with J = J_prev + r q^T."""
    s = float(q @ q)
    g = _guard(q)
    if s <= g:
        raise GuardTripError("q^T q", s)
    t = float(q @ U_prev)
    if abs(s + t) <= g:
        raise GuardTripError("q^T q + q^T U_prev", s + t)
    JU = J_prev @ U_prev
    w = J_prev @ q - JU - y
    r = -JU / (s + t) - w / s + w * (t / ((s + t) * s))
    return r


def modified_update(J_prev, U_prev, U_cur, y):
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
    r = _modified_correction(J_prev, U_prev, q, y)
    return J_prev + np.outer(r, q)


def modified_inverse_update(Jinv_prev, J_prev, U_prev, U_cur, y):
    """Sherman-Morrison inverse of modified_update's result."""
    Jinv_prev = np.asarray(Jinv_prev, dtype=float)
    J_prev = np.asarray(J_prev, dtype=float)
    U_prev = np.asarray(U_prev, dtype=float).ravel()
    U_cur = np.asarray(U_cur, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    q = U_cur - U_prev
    r = _modified_correction(J_prev, U_prev, q, y)
    z = Jinv_prev @ r
    denom = 1.0 + float(q @ z)
    if abs(denom) <= _guard(q):
        raise GuardTripError("1 + q^T (Jinv r)", denom)
    return Jinv_prev - np.outer(z, q @ Jinv_prev) / denom


def _rank_one_update(J, J_inv, U, U_new, y, modified):
    """Both halves of one rank-one update, checked against each other.

    y is fbar(U_new) - fbar(U) for the modified variant and
    f(U_new) - f(U) for the classic one.
    """
    if modified:
        J_new = modified_update(J, U, U_new, y)
        Jinv_new = modified_inverse_update(J_inv, J, U, U_new, y)
    else:
        q = U_new - U
        J_new = classic_update(J, q, y)
        Jinv_new = classic_inverse_update(J_inv, q, y)
    pairing = np.linalg.norm(Jinv_new @ J_new - np.eye(U.size), np.inf)
    if not np.isfinite(pairing) or pairing > PAIRING_TOL:
        raise GuardTripError("inverse pairing", pairing)
    return J_new, Jinv_new


def qn_solve(s, U0, opts=None):
    """Root-find f(U) = 0 by Newton or a rank-one quasi-Newton variant.

    Every variant starts from the exact Jacobian at U0.  Newton solves with
    the exact Jacobian at each iterate; the rank-one variants invert it once
    and then update the inverse.  A rank-one update that trips a guard or
    fails the inverse-pairing check is replaced by the exact Jacobian at the
    new iterate (default) or ends the solve, per opts.reinit_policy.  A
    singular exact Jacobian ends the solve with status "singular_jacobian"
    and failure_index at the iterate where it was assembled.
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

    def record(u, f, J):
        trace.iterates.append(u.copy())
        trace.residual_norms.append(float(np.linalg.norm(f, np.inf)))
        if trace.jacobians is not None:
            trace.jacobians.append(J.copy())

    def finish(status, failure_index=None):
        trace.status = status
        trace.failure_index = failure_index
        return trace

    newton = opts.variant == "newton"
    modified = opts.variant == "modified_rank1"
    # J_inv is None whenever J is an exact Jacobian not yet inverted
    f, J, J_inv = s.eval(U), s.jacobian(U), None
    fbar = jacobian_action(s, U) if modified else None
    record(U, f, J)
    for k in range(opts.max_iter):
        if trace.residual_norms[-1] <= opts.tol:
            return finish("converged")
        try:
            if newton:
                step = np.linalg.solve(J, -f)
            else:
                if J_inv is None:
                    J_inv = np.linalg.inv(J)
                step = -J_inv @ f
        except np.linalg.LinAlgError:
            return finish("singular_jacobian", k)
        U_new = U + step
        f_new = s.eval(U_new)
        if newton:
            J = s.jacobian(U_new)
        else:
            fbar_new = jacobian_action(s, U_new) if modified else None
            y = fbar_new - fbar if modified else f_new - f
            try:
                J, J_inv = _rank_one_update(J, J_inv, U, U_new, y, modified)
            except GuardTripError:
                if opts.reinit_policy == "never":
                    return finish("guard_trip", k)
                J, J_inv = s.jacobian(U_new), None
            fbar = fbar_new
        U, f = U_new, f_new
        record(U, f, J)
        if diverged(U):
            return finish("diverged")
    return finish("converged" if trace.residual_norms[-1] <= opts.tol else "max_iter_exceeded")


def deviation_report(s, trace):
    """Relative Jacobian deviation at every recorded iterate.

    Requires a trace built with keep_jacobians=True.  Entries are None where
    fbar(U) = 0 (metric undefined).
    """
    if trace.jacobians is None:
        raise ValueError("trace has no recorded Jacobian approximations")
    out = []
    for U, J in zip(trace.iterates, trace.jacobians):
        try:
            out.append(jacobian_deviation(s, U, J))
        except ValueError:
            out.append(None)
    return out
