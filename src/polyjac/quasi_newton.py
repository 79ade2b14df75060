"""Newton and rank-one secant root finders for polynomial systems.

Both rank-one variants update J = J_prev - (J_prev q - y) q^T / (q^T q + t)
for the step q = U_i - U_{i-1}, and its inverse by Sherman-Morrison from
J_prev^-1 alone.  The classic update (y = f(U_i) - f(U_{i-1}), t = 0) enforces
the secant condition J q = y, which the true Jacobian meets only
approximately.  For polynomial systems, with fbar(U) = J(U) U = L U + 2 N2(U)
+ 3 N3(U), exact Jacobians satisfy J_i U_i - J_{i-1} U_{i-1} = fbar(U_i) -
fbar(U_{i-1}); the modified update (y that fbar difference, t = q^T U_{i-1})
enforces this exact relation instead.  The solver carries J^-1 alone, and
holds a modified update to the secant condition too, with a residual read from
f, y and q, as the exact relation alone lets J drift off the step.
"""

from dataclasses import dataclass
import math

import numpy as np

from .system import _inverse, _solve, _square, _vector, diverged
from .trace import SolverTrace, check_stop, start_state

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
SECANT_TOL = 1.0


class GuardTripError(ValueError):
    """A rank-one denominator fell below the guard threshold."""

    def __init__(self, name, value):
        super().__init__(f"denominator {name} = {value:.3e} below guard")
        self.name = name
        self.value = value


@dataclass(frozen=True)
class QNOptions:
    """Settings of one qn_solve run; variant is one of VARIANTS.

    keep_jacobians records each iterate's Jacobian or approximation in
    trace.jacobians, as deviation_report needs; a rank-one solve forms J only
    for it.  Every rank-one denominator is guarded by _guard(q), and a
    modified update must also meet the secant condition to within SECANT_TOL;
    a tripped guard or a failed secant check reinitialises with the exact
    Jacobian at the new iterate.
    """

    variant: str = "newton"
    tol: float = 1e-10
    max_iter: int = 100
    keep_jacobians: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        check_stop(self.tol, self.max_iter)


def _guard(qq):
    """Smallest usable rank-one denominator for a step q with q^T q = qq: 1e-12 (1 + qq)."""
    return 1e-12 * (1.0 + qq)


def jacobian_action(s, U):
    """fbar(U) = J(U) U computed without forming J: L U + 2 N2 + 3 N3."""
    return s.at(U).fbar


# The step check and the two update kernels below take trusted 1-D float
# arrays, qq = q^T q and the shift t (0 for the classic update, q^T U_prev for
# the modified one).  The public functions after them read their arguments by
# _operands and call them; qn_solve calls them directly, and _update only to keep J.


def _check_step(qq, t):
    """Raise GuardTripError unless q^T q and q^T q + t both clear _guard(qq)."""
    g = _guard(qq)
    if qq <= g:
        raise GuardTripError("q^T q", qq)
    if abs(qq + t) <= g:
        raise GuardTripError("q^T q + q^T U_prev", qq + t)


def _update(J_prev, q, y, qq, t):
    """J = J_prev - (J_prev q - y) q^T / (q^T q + t)."""
    _check_step(qq, t)
    return J_prev - (J_prev @ q - y)[:, None] * q / (qq + t)


def _inverse_update(Jinv_prev, q, y, qq, t, dot=np.matmul):
    """Sherman-Morrison inverse of _update's result, from J_prev^-1 alone, its two matrix products by dot."""
    z = dot(Jinv_prev, y)
    denom = float(q @ z) + t
    if abs(denom) <= _guard(qq):
        raise GuardTripError("q^T (Jinv y) + t", denom)
    return Jinv_prev - (z - q)[:, None] * dot(q, Jinv_prev) / denom


def _operands(name, M, **vectors):
    """M read by _square, then each vector by _vector; a ValueError names a vector whose length is not M's."""
    M, out = _square(M, name), [_vector(v) for v in vectors.values()]
    for key, v in zip(vectors, out):
        if v.shape != M.shape[:1]:
            raise ValueError(f"{key} length {v.size} != {name} dimension {len(M)}")
    return M, *out


def classic_update(J_prev, q, delta_f):
    """Rank-one secant update: J = J_prev - (J_prev q - delta_f) q^T / (q^T q).

    The result satisfies J q = delta_f exactly and leaves the action on any
    direction orthogonal to q unchanged.
    """
    J_prev, q, delta_f = _operands("J_prev", J_prev, q=q, delta_f=delta_f)
    return _update(J_prev, q, delta_f, float(q @ q), 0.0)


def classic_inverse_update(Jinv_prev, q, delta_f):
    """Sherman-Morrison counterpart of classic_update on the inverse."""
    Jinv_prev, q, delta_f = _operands("Jinv_prev", Jinv_prev, q=q, delta_f=delta_f)
    return _inverse_update(Jinv_prev, q, delta_f, float(q @ q), 0.0)


def _modified_step(U_prev, U_cur):
    """(q, q^T q, t = q^T U_prev) of a modified update, from its checked states."""
    q = U_cur - U_prev
    return q, float(q @ q), float(q @ U_prev)


def modified_update(J_prev, U_prev, U_cur, y):
    """Rank-one update enforcing the exact relation J U_cur - J_prev U_prev = y.

    y is the difference of jacobian_action values between the two iterates.
    Solved for J = J_prev + r q^T, the relation gives r = (y - J_prev q) /
    (q^T U_cur): the secant update with q^T q + q^T U_prev as denominator.
    """
    J_prev, U_prev, U_cur, y = _operands("J_prev", J_prev, U_prev=U_prev, U_cur=U_cur, y=y)
    q, qq, t = _modified_step(U_prev, U_cur)
    return _update(J_prev, q, y, qq, t)


def modified_inverse_update(Jinv_prev, J_prev, U_prev, U_cur, y):
    """Sherman-Morrison inverse of modified_update's result.

    J_prev is not read: the inverse update needs only Jinv_prev.
    """
    Jinv_prev, U_prev, U_cur, y = _operands("Jinv_prev", Jinv_prev, U_prev=U_prev, U_cur=U_cur, y=y)
    q, qq, t = _modified_step(U_prev, U_cur)
    return _inverse_update(Jinv_prev, q, y, qq, t)


def _updated_action(f, y, qq, t):
    """J q of _update's result for the step q = -J_prev^-1 f: (q^T q y - t f) / (q^T q + t).

    The steps use J_prev = (J_prev^-1)^-1, so J_prev q = -f and J is not needed.
    """
    return (qq * y - t * f) / (qq + t)


def _secant_holds(Jq, delta_f):
    """Whether the secant residual ||Jq - delta_f||_inf / ||delta_f||_inf is at most SECANT_TOL.

    A residual that is not finite, as with delta_f = 0, does not hold.
    """
    scale = float(np.abs(delta_f).max())
    return 0.0 < scale < math.inf and float(np.abs(Jq - delta_f).max()) <= SECANT_TOL * scale


def qn_solve(s, U0, opts=None):
    """Root-find f(U) = 0 by Newton or a rank-one quasi-Newton variant.

    Every variant starts from the exact Jacobian at U0.  Newton solves with
    the exact Jacobian at each iterate; the rank-one variants invert it once
    and then update the inverse alone, forming J only for keep_jacobians.  A
    rank-one update that trips a guard or, for modified_rank1, fails
    _secant_holds is replaced by the exact Jacobian at the new iterate.  A
    diverging iterate or residual ends the solve "diverged" with
    failure_index at the iteration that produced it; a singular exact
    Jacobian ends it "singular_jacobian" at the iterate where it was
    assembled.
    """
    opts = opts or QNOptions()
    U = start_state(U0, s.n)
    trace = SolverTrace(jacobians=[] if opts.keep_jacobians else None)
    newton = opts.variant == "newton"
    modified = opts.variant == "modified_rank1"
    st = s.at(U)  # one contraction per iterate; f, J and fbar all come from it
    # J_inv is None whenever J is an exact Jacobian not yet inverted
    f, J, J_inv = st.f, st.J, None
    fbar = st.fbar if modified else None
    res = trace.record(U, f, J)
    for k in range(opts.max_iter):
        if res <= opts.tol:
            break
        try:
            if newton:
                step = _solve(J, -f)
            else:
                if J_inv is None:
                    J_inv = _inverse(J)
                step = s._dot(-J_inv, f)
        except np.linalg.LinAlgError:
            return trace.end("singular_jacobian", k)
        U_new = U + step
        st = s.at(U_new)
        f_new = st.f
        if newton:
            J = st.J
        else:
            fbar_new = st.fbar if modified else None
            y = fbar_new - fbar if modified else f_new - f
            q = U_new - U
            qq = float(q @ q)
            t = float(q @ U) if modified else 0.0
            try:
                _check_step(qq, t)
                J_inv = _inverse_update(J_inv, q, y, qq, t, s._dot)
                restart = modified and not _secant_holds(_updated_action(f, y, qq, t), f_new - f)
            except GuardTripError:
                restart = True
            if restart:
                J, J_inv = st.J, None
            else:
                J = _update(J, q, y, qq, t) if opts.keep_jacobians else None
            fbar = fbar_new
        U, f = U_new, f_new
        res = trace.record(U, f, J)
        if not math.isfinite(res) or diverged(U):
            return trace.end("diverged", k)
    return trace.end("converged" if res <= opts.tol else "max_iter_exceeded")


def deviation_report(s, trace):
    """Relative Jacobian deviation at every recorded iterate.

    Requires a trace built with keep_jacobians=True.  Entries are None where
    fbar(U) = 0 (metric undefined).  For modified_rank1 every entry is about
    0 by construction, since the update enforces J_i U_i = fbar(U_i) from an
    exact Jacobian on and after every reinitialisation: it cannot see stalls.
    qn_solve's secant check (_secant_holds, on f, y and q) catches them.
    """
    if trace.jacobians is None:
        raise ValueError("trace has no recorded Jacobian approximations")
    out = []
    for U, J in zip(trace.iterates, trace.jacobians):
        try:
            out.append(s.at(U).deviation(J))
        except ValueError:
            out.append(None)
    return out
