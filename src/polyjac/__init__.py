"""Tools for polynomial-only nonlinear systems and their exact linear-form calculus.

The central fact exploited throughout: an order-m homogeneous polynomial term
N(U) and its Jacobian J(U) satisfy N(U) = (1/m) J(U) U (Euler's identity for
homogeneous functions).  This lets a polynomial system f(U) = 0 be rewritten
with a state-dependent matrix A(U) so that linear-era machinery (step-size
bounds, Jacobi/Gauss-Seidel/SOR sweeps, rank-one quasi-Newton updates) applies
directly to the nonlinear problem.
"""

# The package surface is the union of these modules' __all__ lists.
from .system import *
from .expressions import *
from .stability import *
from .trace import *
from .relaxation import *
from .quasi_newton import *
from .pseudo_jacobian import *

__version__ = "0.1.0"
