"""Dense polynomial systems f(U) = L U + N2(U) + N3(U) + F and their calculus.

Coefficients are fully symmetrized at ingestion: quad[i, j, k] multiplies
U_j U_k in equation i (symmetric in j, k), cubic[i, j, k, l] multiplies
U_j U_k U_l (symmetric in j, k, l), so the Euler identity m N_m(U) = J_m(U) U
holds to rounding.  The quad is kept as _quad and the cubic packed, as _packed:
P[i, j, p] = w cubic[i, j, k, l] for the p-th pair k <= l of np.triu_indices(n),
w = 1 if k == l else 2 (exact).

Everything at a state U comes from one record, PolySystem.at(U) -> PolyState,
which checks U and contracts each order m the system has once, one BLAS
matrix-vector product each: M2 = quad . U and M3 = P . (U_k U_l)_{k<=l}.
As N_m(U) = M_m U and J_m(U) = m M_m, the record's f = L U + sum M_m U + F,
J(U) = L + sum m M_m, A(U) = L + sum M_m and fbar = J(U) U are sums over
those orders, computed when read; f and fbar share _order_sum.  Four more
readers form from one contraction only what a caller needs: _values (f),
_linear_forms (A(U)), _linear_system (A(U) and A U + F) and _newton_system(h)
(U -> (f, I - h J)).  No other module reads the products.  A stack of states
is contracted by np.matmul in slices of _per_stack(n) states, at most 2 MiB
of products per order, and stability's reports stack A(U) alike.

A caller's array is read by one rule, decided here: a vector by _vector (flat
float64), a state by _state (a vector of the system's length), a square matrix
by _square, and a matrix polyjac keeps by _frozen, a C-ordered, read-only
float64 copy, so answers depend on values alone; a count (n, steps, max_iter)
must be a Python or numpy integer, by _integer.  A quad is taken in C order
before it is symmetrized, so it is stored once; deviation takes J_hat in C
order.  A per-state product of a kept matrix, or of one made from them, takes
ndarray.dot, which calls BLAS with less dispatch than @, where _dot_exact says
dot has @'s bits: more than one element; dot multiplies a one-element matrix
as a scalar, so [[-0.65]] . [0.0] reads -0.0 where @ reads +0.0.  A system
picks its product once (_dot), which qn_solve's inverse shares, and a tree
once per LinearMap; vector . vector products and stacks keep @.

A nonlinear order is absent when the input gives None for it or an all-zero
tensor (Burgers has no cubic, a linear system neither).  An absent order is
simply absent: never stored, symmetrized or contracted, so it costs no memory.

Each loop solve (implicit steps, Newton, the sweeps, pj_implicit_step) is _solve(K, b)
and each rank-one qn_solve inverse _inverse(K), float64 K and b: LAPACK's gufuncs solve1
and inv without np.linalg's wrappers, whose checks are a large share of a call at n <= 24.
Both keep the wrappers' errstate, _errstate: invalid, set by a singular K, calls a handler
raising LinAlgError; over, divide and under are ignored (a NaN K gives NaN).  It is set per
call, by a decorator: one around a march would make inf - inf NaNs LinAlgErrors.

Sign convention: the residual is f(U) = L U + N2 + N3 + F and solvers target
f(U) = 0; the iterative sweeps solve A(U) U = -F.
"""

import functools
import itertools
from dataclasses import InitVar, dataclass
import math

import numpy as np
from numpy.linalg._umath_linalg import inv, solve1

__all__ = [
    "PolySystem",
    "PolyState",
    "from_kronecker",
    "load_system_json",
]


# Divergence rule shared by every solver and integrator.
DIVERGENCE_LIMIT = 1e8
_DOT_LIMIT = DIVERGENCE_LIMIT**2  # the bound of diverged's one-call test on U . U

# Largest dense coefficient tensor an input may ask for, in bytes (1 GiB): a
# cubic up to n = 107 (n^4 floats), a quadratic up to n = 512 (n^3 floats).
# Reading a system document and lowering a tree check each dense tensor they
# build against it before allocating.  A cubic is built dense before it is
# packed, so the limit is unchanged; packing briefly holds a few half its size.
DENSE_LIMIT_BYTES = 2**30
_STACK_BYTES = 2**21  # bytes of one order's products over a stack of states: 16 states at n = 128


def _per_stack(n):
    """States per stack at dimension n: _STACK_BYTES of n x n products, and at least one."""
    return max(1, _STACK_BYTES // (8 * n**2))


def _dot_exact(A):
    """True when ndarray.dot gives a C-ordered A's products the bits of @: A has more than one element."""
    return A.size > 1


def _frozen(a, name=None):
    """A new C-ordered, read-only float64 copy of a; with a name, ValueError if an entry is not finite."""
    a = np.array(a, dtype=float, order="C")
    if name is not None and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    a.setflags(write=False)
    return a


def _vector(x):  # x as a flat float64 array
    return np.asarray(x, dtype=float).ravel()


def _state(U, n):
    """_vector(U); a ValueError names a length other than n."""
    U = _vector(U)
    if U.shape != (n,):
        raise ValueError(f"state length {U.size} != system dimension {n}")
    return U


def _integer(k, name):
    """k itself; a ValueError names it unless it is a Python or numpy integer other than a bool."""
    if type(k) is bool or not isinstance(k, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {k!r}")
    return k


def _square(A, name):
    """A as a float64 array; a ValueError names it unless it is a square matrix of at least one entry."""
    if (A := np.asarray(A, dtype=float)).ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got {A.shape}")
    if A.size == 0:
        raise ValueError(f"{name} must not be empty, got {A.shape}")
    return A


def _order_sum(dot, L, X, terms, weighted=False):
    """L X + sum w_m M_m X over the (m, M_m) terms, by dot: w_m = 1 gives f - F, w_m = m gives fbar."""
    total = dot(L, X)
    for m, M in terms:
        total = total + (m * dot(M, X) if weighted else dot(M, X))
    return total


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


_errstate = np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")


@_errstate
def _solve(K, b):
    """K^-1 b for a float64 matrix K and vector b, as np.linalg's solve gives it; LinAlgError if K is singular."""
    return solve1(K, b, signature="dd->d")


@_errstate
def _inverse(K):
    """K^-1 for a float64 matrix K, as np.linalg's inv gives it; LinAlgError if K is singular."""
    return inv(K, signature="d->d")


def _count(count):
    """An integer in full below 10**15, else rounded to 3 digits (1.7e+308).

    Rounded from its decimal digits: a count past float range has no float.
    """
    digits = str(count)
    if len(digits) <= 15:
        return digits
    lead, exp = (int(digits[:4]) + 5) // 10, len(digits) - 1  # 3 digits, half up
    if lead == 1000:
        lead, exp = 100, exp + 1
    return f"{lead // 100}.{lead % 100:02d}".rstrip("0").rstrip(".") + f"e+{exp}"


def check_dense(shape, what):
    """Raise ValueError if a float tensor of this shape exceeds DENSE_LIMIT_BYTES."""
    nbytes = 8 * math.prod(shape)
    if nbytes > DENSE_LIMIT_BYTES:
        dims = ", ".join(map(_count, shape)) + ("," if len(shape) == 1 else "")
        raise ValueError(
            f"{what} of shape ({dims}) needs {_count(nbytes)} bytes, over the {DENSE_LIMIT_BYTES}-byte limit"
        )


def diverged(U):
    """True when U has a non-finite entry or ||U||_inf > DIVERGENCE_LIMIT.

    One BLAS call decides most calls: a computed U . U <= DIVERGENCE_LIMIT**2 gives ||U||_inf <=
    DIVERGENCE_LIMIT with no margin, as every partial sum of non-negative rounded squares is at least
    its largest rounded square, in any summation order and with or without FMA, and the next double
    above 1e8 squares to 1e16 + 2.98, which rounds to 1e16 + 2.  Otherwise, NaN, inf and overflowing
    squares included, the exact test decides.
    """
    return not np.vdot(U, U) <= _DOT_LIMIT and not np.abs(U).max() <= DIVERGENCE_LIMIT  # True for NaN as well


def _symmetrized(t, *index):
    """The average of t over every permutation of its trailing axes, at t[index] only.

    The sum starts from t itself, not from 0, so an entry that is -0.0 under
    every permutation stays -0.0.
    """
    perms = list(itertools.permutations(range(1, t.ndim)))
    return sum((np.transpose(t, (0, *p))[index] for p in perms[1:]), t[index]) / len(perms)


@functools.cache
def _pairs(n):  # read-only rows k, l of the pairs k <= l, in np.triu_indices(n) order: P's columns
    for row in (pairs := np.triu_indices(n)):
        row.setflags(write=False)
    return pairs


@dataclass(frozen=True, eq=False, repr=False)
class PolySystem:
    """Cubic-capped polynomial system over R^n, immutable after construction.

    quad and cubic are inputs only: a present order is stored as _quad or _packed, an absent one not at all.
    """

    L: np.ndarray
    quad: InitVar[np.ndarray]
    cubic: InitVar[np.ndarray]
    const: np.ndarray

    def __post_init__(self, quad, cubic):
        L = _square(_frozen(self.L), "L")
        quad = None if quad is None else np.asarray(quad, dtype=float, order="C")  # so its _orders matrix is a view
        cubic = None if cubic is None else np.asarray(cubic, dtype=float)
        const = _frozen(self.const).ravel()
        n = L.shape[0]
        if quad is not None and quad.shape != (n, n, n):
            raise ValueError(f"quad must be ({n},{n},{n}), got {quad.shape}")
        if cubic is not None and cubic.shape != (n, n, n, n):
            raise ValueError(f"cubic must be ({n},)*4, got {cubic.shape}")
        if const.shape != (n,):
            raise ValueError(f"const must have length {n}, got {const.shape}")
        # on the inputs, before an order is symmetrized, packed or found absent
        for arr, name in ((L, "L"), (quad, "quad"), (cubic, "cubic"), (const, "const")):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        orders = []  # (m, the coefficients as an (n^2, .) matrix) per order the system has
        for m, name, t in ((2, "_quad", quad), (3, "_packed", cubic)):
            if t is None or not np.any(t):
                continue
            if m == 3:  # symmetrized straight into P
                r, c = _pairs(n)
                t = np.multiply(_symmetrized(t, ..., r, c), 2 - (r == c), order="C")
            else:
                t = _symmetrized(t)
            t.setflags(write=False)
            object.__setattr__(self, name, t)
            orders.append((m, t.reshape(n * n, -1)))
        dot = np.ndarray.dot if _dot_exact(L) else np.matmul
        for name, val in (("L", L), ("const", const), ("_orders", tuple(orders)), ("_dot", dot)):
            object.__setattr__(self, name, val)

    @property
    def n(self):
        return self.L.shape[0]

    def at(self, U):
        """The system at state U: checks U and contracts each order it has once."""
        U = _state(U, self.n)
        return PolyState(self, U, self._products(U))

    def _products(self, X):
        """(m, M_m) per order, at a state X (n,) or at each row of a stack X (k, n).

        One matrix-vector product per state and order: quad . U and P . (U_k U_l)_{k<=l}."""
        shape, terms = (*X.shape, self.L.shape[0]), []
        for m, C in self._orders:
            if m == 3:  # cubic last: X becomes the monomials U_k U_l, k <= l
                r, c = _pairs(shape[-1])
                X = X[r] * X[c] if X.ndim == 1 else X.take(r, -1) * X.take(c, -1)
            M = self._dot(C, X) if X.ndim == 1 else np.matmul(C, X[..., None])
            terms.append((m, M.reshape(shape)))
        return tuple(terms)

    def _values(self, X):
        """f at a state X (n,) or at each row of a stack X (k, n), by PolyState.f's sum: row i has the bits of at(X[i]).f."""
        if X.ndim == 2 and len(X) > (per := _per_stack(self.n)):
            return np.concatenate([self._values(X[i : i + per]) for i in range(0, len(X), per)])
        return _order_sum(np.matmul, self.L, X[..., None], self._products(X))[..., 0] + self.const

    def _linear_forms(self, X):
        """A(U) = L + sum M_m at a state X (n,) or each row of a stack X (k, n), a new array: PolyState.A per state."""
        A = self.L
        for _, M in self._products(X):
            A = np.add(A, M, out=M)  # in the product's own array, L broadcast over a stack
        return np.broadcast_to(A, (*X.shape, self.n)).copy() if A is self.L else A

    def _linear_system(self, U):
        """A = A(U), a new array, and the residual A U + F of A U = -F, from one contraction at a state U (n,)."""
        A = self._linear_forms(U)
        return A, self._dot(A, U) + self.const

    def _newton_system(self, h):
        """U -> (f(U), I - h J(U)) from one contraction: PolyState.f's sum and (I - h L) - sum (m h) M_m."""
        K0 = np.eye(self.n) - h * self.L

        def system(U):
            terms, K = self._products(U), K0
            f = _order_sum(self._dot, self.L, U, terms) + self.const  # before K reuses M's array
            for m, M in terms:
                K = np.subtract(K, np.multiply(M, m * h, out=M), out=M)
            return f, K
        return system

    def eval(self, U):
        """Residual f(U) = L U + N2(U) + N3(U) + F."""
        return self.at(U).f

    def nonlinear_parts(self, U):
        """(N2(U), N3(U)) = (M2 U, M3 U); an absent order's part is 0 . U: zeros, or NaN where U is not finite."""
        st = self.at(U)
        parts = {m: M @ st.U for m, M in st._terms}
        return tuple(parts[m] if m in parts else np.full(self.n, np.zeros(self.n) @ st.U) for m in (2, 3))

    def jacobian(self, U):
        """Exact Jacobian of eval at U: L + 2 M2 + 3 M3."""
        return self.at(U).J

    def euler_residuals(self, U):
        """Residuals of the homogeneous-function identity at U; see PolyState.euler_residuals."""
        return self.at(U).euler_residuals()

    def linearized_matrix(self, U):
        """The state record at U; its A = L + M2 + M3 satisfies A U + F = eval(U)."""
        return self.at(U)


@dataclass(frozen=True, eq=False, repr=False)
class PolyState:
    """A PolySystem at one state U; the properties are sums over its orders, computed when read.

    _terms holds (m, M_m) for each order m the system has, quadratic first;
    f, J, A and fbar add the L term and then one term per order.
    """

    s: PolySystem
    U: np.ndarray
    _terms: tuple

    @property
    def f(self):
        """Residual f(U) = L U + sum M_m U + F."""
        return _order_sum(self.s._dot, self.s.L, self.U, self._terms) + self.s.const

    @property
    def J(self):
        """Exact Jacobian J(U) = L + sum m M_m, a new array."""
        J = self.s.L
        for m, M in self._terms:
            J = J + m * M
        return J.copy() if J is self.s.L else J

    @property
    def A(self):
        """Linear form A(U) = L + sum J_m/m = L + sum M_m, with A U + F = f; a new array."""
        A = self.s.L
        for _, M in self._terms:
            A = A + M
        return A.copy() if A is self.s.L else A

    @property
    def fbar(self):
        """fbar(U) = J(U) U without forming J: L U + sum m M_m U."""
        return _order_sum(self.s._dot, self.s.L, self.U, self._terms, weighted=True)

    def euler_residuals(self):
        """Residuals of the homogeneous-function identity, per nonlinear order.

        Returns (||2 N2(U) - J2(U) U||_inf, ||3 N3(U) - J3(U) U||_inf), 0.0
        for an absent order.  Vacuous: with symmetric storage J_m = m M_m by
        construction, so the first is exactly 0 and the second a few ulps on
        every input.  The independent Jacobian check is central differences,
        reported as fd_max_rel_error by `polyjac check-jacobian`.
        """
        r = [0.0, 0.0]
        for m, M in self._terms:
            r[m - 2] = np.linalg.norm(m * (M @ self.U) - (m * M) @ self.U, np.inf)
        return tuple(r)

    def deviation(self, J_hat):
        """Relative deviation ||fbar - J_hat U||_2 / ||fbar||_2 of an approximate Jacobian.

        Uses the identity J(U) U = L U + 2 N2(U) + 3 N3(U) =: fbar(U), so it
        needs no exact Jacobian.  Raises ValueError unless J_hat is n x n, and
        at states where fbar(U) = 0 (metric undefined).
        """
        if (J_hat := _square(J_hat, "J_hat")).shape != (n := self.U.size, n):
            raise ValueError(f"J_hat must be {n}x{n}, got {J_hat.shape}")
        fbar = self.fbar
        denom = np.linalg.norm(fbar)
        if denom == 0.0:
            raise ValueError("fbar(U) = 0: deviation undefined at this state")
        return float(np.linalg.norm(fbar - np.asarray(J_hat, order="C") @ self.U) / denom)


def from_kronecker(K, G, R, F):
    """Build a PolySystem from flattened coefficient matrices.

    The source system is K C + G (C kron C) + R (C kron C kron C) + F with
    G of shape (n, n^2) and R of shape (n, n^3); row i of G reshapes
    (row-major) to the matrix M with M[j, k] multiplying C_j C_k, and row i of
    R reshapes to the cube over (j, k, l).  Rows are symmetrized on ingestion,
    which leaves the evaluation unchanged because C kron C is symmetric.
    """
    K = _square(K, "K")
    G = np.asarray(G, dtype=float)
    R = np.asarray(R, dtype=float)
    F = _vector(F)
    n = K.shape[0]
    if G.shape != (n, n * n):
        raise ValueError(f"G must be ({n},{n * n}), got {G.shape}")
    if R.shape != (n, n * n * n):
        raise ValueError(f"R must be ({n},{n ** 3}), got {R.shape}")
    if F.shape != (n,):
        raise ValueError(f"F must have length {n}, got {F.shape}")
    quad = G.reshape(n, n, n)
    cubic = R.reshape(n, n, n, n)
    return PolySystem(L=K, quad=quad, cubic=cubic, const=F)


def load_system_json(data):
    """Build a PolySystem from a parsed sparse-coefficient JSON document.

    data is the decoded JSON value, not its text; anything but an object is
    rejected.  Format: {"n": int, "L": [[...]], "quadratic": [[i, j, k,
    value], ...], "cubic": [[i, j, k, l, value], ...], "F": [...]} with
    0-based indices.  Coefficients are contributions of monomial U_j U_k
    (resp. U_j U_k U_l) to equation i before symmetrization.  Each entry is a
    JSON array; repeated entries add, and a null in an entry makes it a bad
    entry.  A missing or empty "quadratic" or "cubic" field is an absent order.
    """
    if not isinstance(data, dict):
        raise ValueError(f"system JSON must be an object, got {type(data).__name__}")
    try:
        n = _integer(data["n"], "field 'n'")
        L, F = (_read_dense(data[name], name) for name in ("L", "F"))
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r} in system JSON") from exc
    if L.shape != (n, n):
        raise ValueError(f"field 'L': expected {n}x{n}, got {L.shape}")
    if F.shape != (n,):
        raise ValueError(f"field 'F': expected length {n}, got {F.shape}")
    quad = _read_coefficients(data, "quadratic", n, 3)
    cubic = _read_coefficients(data, "cubic", n, 4)
    return PolySystem(L=L, quad=quad, cubic=cubic, const=F)


def _read_dense(value, field):  # a dense field as a float array; a ValueError names the field
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {field!r}: {exc}") from None


def _read_coefficients(data, field, n, ndim):
    """Sum the [i, j, ..., value] entries of `field` into a dense (n,)*ndim tensor.

    A missing or empty field is an absent order: None, and nothing allocated.
    """
    entries = data.get(field, [])
    if len(entries) == 0:
        return None
    width = ndim + 1
    try:  # _is_entry over every entry at once
        if set(map(type, entries)) != {list} or set(map(len, entries)) != {width}:
            raise ValueError
        table = np.fromiter(itertools.chain.from_iterable(entries), float, len(entries) * width).reshape(-1, width)
        if np.isnan(table).any() and any(None in e for e in entries):  # fromiter reads a null as nan
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        bad = next(e for e in entries if not _is_entry(e, width))
        raise ValueError(f"field {field!r}: bad entry {bad!r}") from None
    index = table[:, :-1]
    # An index is valid when int() of it, which truncates toward zero, is in [0, n).
    inside = (index > -1) & (index < n)
    if not inside.all():
        raise ValueError(f"field {field!r}: index out of range in {entries[int(np.argmin(inside.all(axis=1)))]!r}")
    check_dense((n,) * ndim, f"field {field!r}")
    flat = np.ravel_multi_index(tuple(index.astype(np.intp).T), (n,) * ndim)
    return np.bincount(flat, weights=table[:, -1], minlength=n**ndim).reshape((n,) * ndim)  # repeats add in order, from 0.0


def _is_entry(entry, width):  # a list of width items, no null among them, each of which numpy reads as a float
    try:
        return np.asarray(entry, dtype=float).shape == (width,) and type(entry) is list and None not in entry
    except (TypeError, ValueError, OverflowError):
        return False
