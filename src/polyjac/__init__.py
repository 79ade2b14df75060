"""Tools for polynomial-only nonlinear systems and their exact linear-form calculus.

The central fact exploited throughout: an order-m homogeneous polynomial term
N(U) and its Jacobian J(U) satisfy N(U) = (1/m) J(U) U (Euler's identity for
homogeneous functions).  This lets a polynomial system f(U) = 0 be rewritten
with a state-dependent matrix A(U) so that linear-era machinery (step-size
bounds, Jacobi/Gauss-Seidel/SOR sweeps, rank-one quasi-Newton updates) applies
directly to the nonlinear problem.
"""

from .hadamard import row_scale, col_scale
from .system import (
    PolySystem,
    PolyState,
    from_kronecker,
    jacobian_deviation,
    load_system_json,
)
from .expressions import (
    HExpr,
    LinearMap,
    State,
    HadamardProduct,
    HadamardPower,
    ElementwiseFunction,
    DiagScale,
    Sum,
    SemiDiscreteIVP,
    h_eval,
    h_jacobian,
    burgers_discretize,
    lower_to_poly,
    load_hexpr_json,
)
from .stability import (
    IVP,
    StabilityReport,
    Trajectory,
    step_bound_explicit_euler,
    step_bound_rk4,
    burgers_step_bound,
    is_negative_definite,
    integrate,
    scan_blowup_threshold,
)
from .trace import SolverTrace
from .relaxation import IterativeOptions, SingularPivotError, iterative_solve, sweep_once
from .quasi_newton import (
    QNOptions,
    GuardTripError,
    jacobian_action,
    classic_update,
    classic_inverse_update,
    modified_update,
    modified_inverse_update,
    qn_solve,
    deviation_report,
)
from .pseudo_jacobian import (
    RankOneForm,
    NonlinearRhs,
    decompose,
    pj_step_bound_explicit,
    pj_implicit_step,
    deviation_matrix,
    pseudo_jacobian_of_poly,
)

__version__ = "0.1.0"
