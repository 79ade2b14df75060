"""Row and column scaling products, diag(u) A and A diag(v).

The Jacobian of an elementwise (Hadamard) expression node is its child's
Jacobian with scaled rows, so the chain rule in expressions needs only
row_scale.  Both kernels work on dense ndarrays and never broadcast silently:
a shape mismatch is an error, since upstream assembly bugs would otherwise be
masked.
"""

import numpy as np

__all__ = ["row_scale", "col_scale"]


def _as_matrix(a, name="a"):
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def row_scale(a, u):
    """Scale row i of a by u[i]; equals diag(u) @ a.

    For a column vector a this coincides with the elementwise product.
    """
    a = _as_matrix(a, "a")
    u = np.asarray(u, dtype=float).ravel()
    if u.size != a.shape[0]:
        raise ValueError(f"length mismatch: u has {u.size}, a has {a.shape[0]} rows")
    return a * u[:, None]


def col_scale(v, a):
    """Scale column j of a by v[j]; equals a @ diag(v)."""
    a = _as_matrix(a, "a")
    v = np.asarray(v, dtype=float).ravel()
    if v.size != a.shape[1]:
        raise ValueError(f"length mismatch: v has {v.size}, a has {a.shape[1]} cols")
    return a * v[None, :]
