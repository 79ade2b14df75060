"""Dense polynomial systems f(U) = L U + N2(U) + N3(U) + F and their calculus.

Coefficients are stored as fully symmetrized tensors: quad[i, j, k] multiplies
U_j U_k in equation i (symmetric in j, k), cubic[i, j, k, l] multiplies
U_j U_k U_l (symmetric in j, k, l).  Symmetrizing at ingestion makes the Euler
identity m * N(U) = J_m(U) U hold to rounding, which the rest of the library
leans on.

Sign convention: the residual is f(U) = L U + N2 + N3 + F and solvers target
f(U) = 0; the iterative sweeps solve A(U) U = -F.
"""

from dataclasses import dataclass
import json

import numpy as np

__all__ = [
    "PolySystem",
    "LinearizedForm",
    "from_kronecker",
    "jacobian_action",
    "jacobian_deviation",
    "load_system_json",
    "dump_system_json",
]


# Divergence rule shared by every solver and integrator.
DIVERGENCE_LIMIT = 1e8


def diverged(U):
    """True when U has a non-finite entry or ||U||_inf > DIVERGENCE_LIMIT."""
    return not np.all(np.isfinite(U)) or np.linalg.norm(U, np.inf) > DIVERGENCE_LIMIT


def _sym_last2(t):
    return 0.5 * (t + np.swapaxes(t, -1, -2))


def _sym_last3(t):
    # average over the 6 permutations of the last three axes
    perms = [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1)]
    return sum(np.transpose(t, p) for p in perms) / 6.0


@dataclass(frozen=True)
class PolySystem:
    """Cubic-capped polynomial system over R^n, immutable after construction."""

    L: np.ndarray
    quad: np.ndarray
    cubic: np.ndarray
    const: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.L, dtype=float)
        quad = np.asarray(self.quad, dtype=float)
        cubic = np.asarray(self.cubic, dtype=float)
        const = np.asarray(self.const, dtype=float).ravel()
        n = L.shape[0]
        if L.shape != (n, n):
            raise ValueError(f"L must be square, got {L.shape}")
        if quad.shape != (n, n, n):
            raise ValueError(f"quad must be ({n},{n},{n}), got {quad.shape}")
        if cubic.shape != (n, n, n, n):
            raise ValueError(f"cubic must be ({n},)*4, got {cubic.shape}")
        if const.shape != (n,):
            raise ValueError(f"const must have length {n}, got {const.shape}")
        for arr, name in ((L, "L"), (quad, "quad"), (cubic, "cubic"), (const, "const")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        quad = _sym_last2(quad)
        cubic = _sym_last3(cubic)
        for name, val in (("L", L), ("quad", quad), ("cubic", cubic), ("const", const)):
            object.__setattr__(self, name, val)
        for a in (self.L, self.quad, self.cubic, self.const):
            a.setflags(write=False)

    @property
    def n(self):
        return self.L.shape[0]

    def _check_state(self, U):
        U = np.asarray(U, dtype=float).ravel()
        if U.shape != (self.n,):
            raise ValueError(f"state length {U.size} != system dimension {self.n}")
        return U

    def eval(self, U):
        """Residual f(U) = L U + N2(U) + N3(U) + F."""
        U = self._check_state(U)
        n2, n3 = self.nonlinear_parts(U)
        return self.L @ U + n2 + n3 + self.const

    def nonlinear_parts(self, U):
        """The pure quadratic and pure cubic term values (N2(U), N3(U))."""
        U = self._check_state(U)
        n2 = np.einsum("ijk,j,k->i", self.quad, U, U)
        n3 = np.einsum("ijkl,j,k,l->i", self.cubic, U, U, U)
        return n2, n3

    def quadratic_jacobian(self, U):
        """Jacobian of the quadratic part alone: 2 * quad contracted with U."""
        U = self._check_state(U)
        return 2.0 * np.einsum("ijk,k->ij", self.quad, U)

    def cubic_jacobian(self, U):
        """Jacobian of the cubic part alone: 3 * cubic contracted with U twice."""
        U = self._check_state(U)
        return 3.0 * np.einsum("ijkl,k,l->ij", self.cubic, U, U)

    def jacobian(self, U):
        """Exact Jacobian of eval at U."""
        U = self._check_state(U)
        return self.L + self.quadratic_jacobian(U) + self.cubic_jacobian(U)

    def euler_residuals(self, U):
        """Residuals of the homogeneous-function identity, per nonlinear order.

        Returns (||2 N2(U) - J2(U) U||_inf, ||3 N3(U) - J3(U) U||_inf); both
        vanish to rounding because the coefficient tensors are symmetric.
        """
        U = self._check_state(U)
        n2, n3 = self.nonlinear_parts(U)
        r2 = np.linalg.norm(2.0 * n2 - self.quadratic_jacobian(U) @ U, np.inf)
        r3 = np.linalg.norm(3.0 * n3 - self.cubic_jacobian(U) @ U, np.inf)
        return r2, r3

    def linearized_matrix(self, U):
        """State-dependent matrix A(U) = L + J2(U)/2 + J3(U)/3.

        Satisfies A(U) U = L U + N2(U) + N3(U) = eval(U) - F.
        """
        U = self._check_state(U)
        A = self.L + 0.5 * self.quadratic_jacobian(U) + self.cubic_jacobian(U) / 3.0
        return LinearizedForm(A=A, U_at=U)


@dataclass(frozen=True)
class LinearizedForm:
    """A(U) at a fixed state, with A(U) U + F = f(U)."""

    A: np.ndarray
    U_at: np.ndarray


def from_kronecker(K, G, R, F):
    """Build a PolySystem from flattened coefficient matrices.

    The source system is K C + G (C kron C) + R (C kron C kron C) + F with
    G of shape (n, n^2) and R of shape (n, n^3); row i of G reshapes
    (row-major) to the matrix M with M[j, k] multiplying C_j C_k, and row i of
    R reshapes to the cube over (j, k, l).  Rows are symmetrized on ingestion,
    which leaves the evaluation unchanged because C kron C is symmetric.
    """
    K = np.asarray(K, dtype=float)
    G = np.asarray(G, dtype=float)
    R = np.asarray(R, dtype=float)
    F = np.asarray(F, dtype=float).ravel()
    n = K.shape[0]
    if K.shape != (n, n):
        raise ValueError(f"K must be square, got {K.shape}")
    if G.shape != (n, n * n):
        raise ValueError(f"G must be ({n},{n * n}), got {G.shape}")
    if R.shape != (n, n * n * n):
        raise ValueError(f"R must be ({n},{n ** 3}), got {R.shape}")
    if F.shape != (n,):
        raise ValueError(f"F must have length {n}, got {F.shape}")
    quad = G.reshape(n, n, n)
    cubic = R.reshape(n, n, n, n)
    return PolySystem(L=K, quad=quad, cubic=cubic, const=F)


def jacobian_action(s, U):
    """fbar(U) = J(U) U computed without forming J: L U + 2 N2 + 3 N3."""
    U = s._check_state(U)
    n2, n3 = s.nonlinear_parts(U)
    return s.L @ U + 2.0 * n2 + 3.0 * n3


def jacobian_deviation(s, U, J_hat):
    """Relative deviation of an approximate Jacobian from the exact one.

    Uses the identity J(U) U = L U + 2 N2(U) + 3 N3(U) =: fbar(U), so the
    metric ||fbar(U) - J_hat U||_2 / ||fbar(U)||_2 needs no exact Jacobian.
    Raises at states where fbar(U) = 0 (metric undefined).
    """
    U = s._check_state(U)
    J_hat = np.asarray(J_hat, dtype=float)
    fbar = jacobian_action(s, U)
    denom = np.linalg.norm(fbar)
    if denom == 0.0:
        raise ValueError("fbar(U) = 0: deviation undefined at this state")
    return float(np.linalg.norm(fbar - J_hat @ U) / denom)


def load_system_json(source):
    """Load a PolySystem from the sparse-coefficient JSON format.

    Format: {"n": int, "L": [[...]], "quadratic": [[i, j, k, value], ...],
    "cubic": [[i, j, k, l, value], ...], "F": [...]} with 0-based indices.
    Coefficients are contributions of monomial U_j U_k (resp. U_j U_k U_l) to
    equation i before symmetrization.
    """
    if isinstance(source, (str, bytes)):
        data = json.loads(source)
    else:
        data = source
    if not isinstance(data, dict):
        raise ValueError(f"system JSON must be an object, got {type(data).__name__}")
    try:
        n = int(data["n"])
        L = np.asarray(data["L"], dtype=float)
        F = np.asarray(data["F"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r} in system JSON") from exc
    if L.shape != (n, n):
        raise ValueError(f"field 'L': expected {n}x{n}, got {L.shape}")
    if F.shape != (n,):
        raise ValueError(f"field 'F': expected length {n}, got {F.shape}")
    quad = np.zeros((n, n, n))
    for entry in data.get("quadratic", []):
        if len(entry) != 4:
            raise ValueError(f"field 'quadratic': bad entry {entry!r}")
        i, j, k, v = int(entry[0]), int(entry[1]), int(entry[2]), float(entry[3])
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise ValueError(f"field 'quadratic': index out of range in {entry!r}")
        quad[i, j, k] += v
    cubic = np.zeros((n, n, n, n))
    for entry in data.get("cubic", []):
        if len(entry) != 5:
            raise ValueError(f"field 'cubic': bad entry {entry!r}")
        i, j, k, l, v = (int(entry[0]), int(entry[1]), int(entry[2]), int(entry[3]), float(entry[4]))
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n and 0 <= l < n):
            raise ValueError(f"field 'cubic': index out of range in {entry!r}")
        cubic[i, j, k, l] += v
    return PolySystem(L=L, quad=quad, cubic=cubic, const=F)


def dump_system_json(s):
    """Serialize a PolySystem to the sparse-coefficient JSON format."""
    n = s.n
    quadratic = [
        [i, j, k, s.quad[i, j, k]]
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if s.quad[i, j, k] != 0.0
    ]
    cubic = [
        [i, j, k, l, s.cubic[i, j, k, l]]
        for i in range(n)
        for j in range(n)
        for k in range(n)
        for l in range(n)
        if s.cubic[i, j, k, l] != 0.0
    ]
    return json.dumps(
        {
            "n": n,
            "L": s.L.tolist(),
            "quadratic": quadratic,
            "cubic": cubic,
            "F": s.const.tolist(),
        }
    )
