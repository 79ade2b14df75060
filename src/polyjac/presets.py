"""Built-in demonstration systems, so the CLI needs no hand-written inputs."""

import numpy as np

from .system import PolySystem

__all__ = ["circle_cubic_system", "burgers_initial_state"]

# Reference roots of the circle/cubic pair, frozen from a scalar bisection on
# x1^2 + (0.75 x1^3 + 0.9)^2 - 1 = 0 (independent of any solver in this
# package).
CIRCLE_CUBIC_ROOT_POS = (0.3569699718912228, 0.9341158596062801)
CIRCLE_CUBIC_ROOT_NEG = (-0.9817026484267679, 0.19042035099187726)


def circle_cubic_system():
    """The mixed quadratic/cubic 2x2 demo system.

    Equations: x1^2 + x2^2 - 1 = 0 and 0.75 x1^3 - x2 + 0.9 = 0.
    """
    L = np.array([[0.0, 0.0], [0.0, -1.0]])
    quad = np.zeros((2, 2, 2))
    quad[0, 0, 0] = 1.0
    quad[0, 1, 1] = 1.0
    cubic = np.zeros((2, 2, 2, 2))
    cubic[1, 0, 0, 0] = 0.75
    F = np.array([-1.0, 0.9])
    return PolySystem(L=L, quad=quad, cubic=cubic, const=F)


def burgers_initial_state(n):
    """Smooth initial data sin(2 pi x) on the periodic unit grid."""
    x = np.arange(n) / n
    return np.sin(2.0 * np.pi * x)
