"""Expression trees for pointwise (elementwise) nonlinear discretizations.

A tree built from linear maps of the state, elementwise products, powers and
functions evaluates to a length-n vector.  Its exact Jacobian falls out of the
scalar chain rule applied with row scaling: d/dU of (A U) o (B U) is
row_scale(A, B U) + row_scale(B, A U), and so on for powers, sin, cos, exp.

Polynomial trees of total degree <= 3 can be lowered to an equivalent
PolySystem for cross-checks and for the linear-form machinery.  Lowering
carries per-row coefficients of each order: a linear map is one matmul on the
flattened trailing axes, products broadcast, and an order no subtree has is
carried as None rather than as a dense zero tensor.
"""

from dataclasses import dataclass, field

import numpy as np

from .hadamard import row_scale
from .system import PolySystem

__all__ = [
    "HExpr",
    "State",
    "LinearMap",
    "HadamardProduct",
    "HadamardPower",
    "ElementwiseFunction",
    "DiagScale",
    "Sum",
    "SemiDiscreteIVP",
    "h_eval",
    "h_jacobian",
    "burgers_discretize",
    "lower_to_poly",
    "load_hexpr_json",
]


class HExpr:
    """Base class for expression-tree nodes."""


@dataclass(frozen=True)
class State(HExpr):
    """The state vector U itself."""


@dataclass(frozen=True)
class LinearMap(HExpr):
    """A @ child, with A acting on the child's value."""

    A: np.ndarray
    child: HExpr = field(default_factory=State)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"linear map matrix must be 2-D, got shape {A.shape}")
        object.__setattr__(self, "A", A)


@dataclass(frozen=True)
class HadamardProduct(HExpr):
    """Elementwise product of the children's values."""

    children: tuple

    def __init__(self, *children):
        if len(children) == 1 and isinstance(children[0], (list, tuple)):
            children = tuple(children[0])
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True)
class HadamardPower(HExpr):
    """Elementwise power child**q."""

    child: HExpr
    q: float


_FUNCS = {
    "sin": (np.sin, lambda x: np.cos(x)),
    "cos": (np.cos, lambda x: -np.sin(x)),
    "exp": (np.exp, np.exp),
}


@dataclass(frozen=True)
class ElementwiseFunction(HExpr):
    """Elementwise scalar function of the child; one of sin, cos, exp."""

    name: str
    child: HExpr

    def __post_init__(self):
        if self.name not in _FUNCS:
            raise ValueError(f"unsupported function {self.name!r}; use sin, cos or exp")


@dataclass(frozen=True)
class DiagScale(HExpr):
    """Fixed coefficient vector c times the child, elementwise."""

    c: np.ndarray
    child: HExpr

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).ravel())


@dataclass(frozen=True)
class Sum(HExpr):
    """Weighted sum of the children's values."""

    children: tuple
    weights: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        w = self.weights
        if w is None:
            w = (1.0,) * len(self.children)
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        if len(self.weights) != len(self.children):
            raise ValueError("weights and children length mismatch")


def h_eval(e, U):
    """Evaluate an expression tree at state U."""
    U = np.asarray(U, dtype=float).ravel()
    return _eval(e, U)


def _eval(e, U):
    if isinstance(e, State):
        return U
    if isinstance(e, LinearMap):
        return e.A @ _eval(e.child, U)
    if isinstance(e, HadamardProduct):
        out = _eval(e.children[0], U)
        for c in e.children[1:]:
            out = out * _eval(c, U)
        return out
    if isinstance(e, HadamardPower):
        v = _eval(e.child, U)
        q = e.q
        if q != int(q) and np.any(v < 0):
            raise ValueError(f"fractional power {q} of negative entry")
        if q < 0 and np.any(v == 0):
            raise ValueError(f"negative power {q} of zero entry")
        return np.ones_like(v) if q == 0 else np.power(v, q)
    if isinstance(e, ElementwiseFunction):
        return _FUNCS[e.name][0](_eval(e.child, U))
    if isinstance(e, DiagScale):
        return e.c * _eval(e.child, U)
    if isinstance(e, Sum):
        return sum(w * _eval(c, U) for w, c in zip(e.weights, e.children))
    raise TypeError(f"unknown node {type(e).__name__}")


def h_jacobian(e, U):
    """Exact Jacobian of h_eval(e, .) at U, via chain rules with row scaling."""
    U = np.asarray(U, dtype=float).ravel()
    return _jac(e, U)


def _jac(e, U):
    n = U.size
    if isinstance(e, State):
        return np.eye(n)
    if isinstance(e, LinearMap):
        return e.A @ _jac(e.child, U)
    if isinstance(e, HadamardProduct):
        vals = [_eval(c, U) for c in e.children]
        jacs = [_jac(c, U) for c in e.children]
        total = np.zeros((vals[0].size, n))
        for i in range(len(vals)):
            others = np.ones_like(vals[0])
            for j, v in enumerate(vals):
                if j != i:
                    others = others * v
            total += row_scale(jacs[i], others)
        return total
    if isinstance(e, HadamardPower):
        v = _eval(e.child, U)
        q = e.q
        if q == 0:
            return np.zeros((v.size, n))
        deriv = q * np.power(v, q - 1)
        return row_scale(_jac(e.child, U), deriv)
    if isinstance(e, ElementwiseFunction):
        v = _eval(e.child, U)
        return row_scale(_jac(e.child, U), _FUNCS[e.name][1](v))
    if isinstance(e, DiagScale):
        return row_scale(_jac(e.child, U), e.c)
    if isinstance(e, Sum):
        return sum(w * _jac(c, U) for w, c in zip(e.weights, e.children))
    raise TypeError(f"unknown node {type(e).__name__}")


@dataclass(frozen=True)
class SemiDiscreteIVP:
    """A method-of-lines system dU/dt = rhs(U) of dimension n.

    The optional matrix fields are populated by discretizers whose a-priori
    step-size bounds need them (see burgers_discretize).
    """

    n: int
    rhs: HExpr
    first_diff: np.ndarray = None
    second_diff: np.ndarray = None
    reynolds: float = None


def _periodic_first_diff(n, dx):
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = 1.0 / (2.0 * dx)
        A[i, (i - 1) % n] = -1.0 / (2.0 * dx)
    return A


def _periodic_second_diff(n, dx):
    B = np.zeros((n, n))
    for i in range(n):
        B[i, i] = -2.0 / dx**2
        B[i, (i + 1) % n] = 1.0 / dx**2
        B[i, (i - 1) % n] = 1.0 / dx**2
    return B


def burgers_discretize(n, Re):
    """Central-difference Burgers semi-discretization on a periodic unit domain.

    rhs(U) = (1/Re) B U - U o (A U) with A the central first-difference and B
    the central second-difference matrix, spacing dx = 1/n.  The boundary
    treatment (periodic) and spacing are implementation choices; they keep the
    difference matrices circulant so constants are annihilated exactly.
    """
    if n < 4:
        raise ValueError(f"grid too small: n={n} < 4")
    if Re <= 0:
        raise ValueError(f"Reynolds number must be positive, got {Re}")
    dx = 1.0 / n
    A = _periodic_first_diff(n, dx)
    B = _periodic_second_diff(n, dx)
    rhs = Sum(
        children=(
            LinearMap(B / Re),
            HadamardProduct(State(), LinearMap(A)),
        ),
        weights=(1.0, -1.0),
    )
    return SemiDiscreteIVP(
        n=n,
        rhs=rhs,
        first_diff=A,
        second_diff=B,
        reynolds=float(Re),
    )


class _PolyRep:
    """Per-row scalar polynomials up to degree 3 in the state.

    c0 (m,) and lin (m, n) are always present; quad (m, n, n) and cub
    (m, n, n, n) are None when the tree has no term of that order.
    """

    def __init__(self, c0, lin, quad=None, cub=None):
        self.c0 = c0
        self.lin = lin
        self.quad = quad
        self.cub = cub

    @property
    def degree(self):
        if self.cub is not None and np.any(self.cub):
            return 3
        if self.quad is not None and np.any(self.quad):
            return 2
        if np.any(self.lin):
            return 1
        return 0


def _add(*terms):
    """Left-to-right sum of the terms that are present; None if none is."""
    present = [t for t in terms if t is not None]
    if not present:
        return None
    out = present[0]
    for t in present[1:]:
        out = out + t
    return out


def _rows(v, t):
    """Row i of t scaled by v[i] (v broadcast over t's trailing axes); None stays None."""
    return None if t is None else v.reshape((-1,) + (1,) * (t.ndim - 1)) * t


def _outer(a, b):
    """Per-row outer product: out[i, j, ...] = a[i, j] * b[i, ...]; None if b is."""
    return None if b is None else a.reshape(a.shape + (1,) * (b.ndim - 1)) * b[:, None]


def _apply(A, t):
    """A applied along the row axis of t: one matmul on the flattened trailing axes."""
    if t is None:
        return None
    return (A @ t.reshape(t.shape[0], -1)).reshape((A.shape[0],) + t.shape[1:])


def _rep_product(a, b):
    # Coefficient tensors stay unsymmetrized here; PolySystem symmetrizes them once.
    if a.degree + b.degree > 3:
        raise ValueError("non-polynomial or degree > 3: product exceeds cubic")
    return _PolyRep(
        a.c0 * b.c0,
        _rows(a.c0, b.lin) + _rows(b.c0, a.lin),
        _add(_rows(a.c0, b.quad), _rows(b.c0, a.quad), _outer(a.lin, b.lin)),
        _add(_rows(a.c0, b.cub), _rows(b.c0, a.cub), _add(_outer(a.lin, b.quad), _outer(b.lin, a.quad))),
    )


def _lower(e, n):
    if isinstance(e, State):
        return _PolyRep(np.zeros(n), np.eye(n))
    if isinstance(e, LinearMap):
        c = _lower(e.child, n)
        A = e.A
        return _PolyRep(A @ c.c0, A @ c.lin, _apply(A, c.quad), _apply(A, c.cub))
    if isinstance(e, DiagScale):
        c = _lower(e.child, n)
        d = e.c
        return _PolyRep(d * c.c0, _rows(d, c.lin), _rows(d, c.quad), _rows(d, c.cub))
    if isinstance(e, Sum):
        reps = [_lower(ch, n) for ch in e.children]
        m = reps[0].c0.size
        out = _PolyRep(np.zeros(m), np.zeros((m, n)))
        for w, r in zip(e.weights, reps):
            out.c0 = out.c0 + w * r.c0
            out.lin = out.lin + w * r.lin
            out.quad = _add(out.quad, None if r.quad is None else w * r.quad)
            out.cub = _add(out.cub, None if r.cub is None else w * r.cub)
        return out
    if isinstance(e, HadamardProduct):
        reps = [_lower(ch, n) for ch in e.children]
        out = reps[0]
        for r in reps[1:]:
            out = _rep_product(out, r)
        return out
    if isinstance(e, HadamardPower):
        q = e.q
        if q != int(q) or q < 0 or q > 3:
            raise ValueError(f"non-polynomial: elementwise power {q}")
        m = int(q)
        base = _lower(e.child, n)
        if m == 0:
            return _PolyRep(np.ones_like(base.c0), np.zeros((base.c0.size, n)))
        out = base
        for _ in range(m - 1):
            out = _rep_product(out, base)
        return out
    if isinstance(e, ElementwiseFunction):
        raise ValueError(f"non-polynomial node: elementwise {e.name}")
    raise TypeError(f"unknown node {type(e).__name__}")


def _infer_dim(e):
    if isinstance(e, LinearMap):
        return e.A.shape[1] if isinstance(e.child, State) else _infer_dim(e.child) or e.A.shape[1]
    if isinstance(e, DiagScale):
        return _infer_dim(e.child) or e.c.size
    if isinstance(e, (HadamardProduct, Sum)):
        for c in e.children:
            d = _infer_dim(c)
            if d is not None:
                return d
        return None
    if isinstance(e, (HadamardPower, ElementwiseFunction)):
        return _infer_dim(e.child)
    return None


def lower_to_poly(e, n=None):
    """Lower a polynomial expression tree (degree <= 3) to a PolySystem.

    Raises on non-polynomial nodes (elementwise functions, fractional or
    negative powers) and on total degree above 3.  An order the tree lacks
    reaches PolySystem as a zero tensor, which it neither symmetrizes nor
    contracts.
    """
    if n is None:
        n = _infer_dim(e)
        if n is None:
            raise ValueError("cannot infer dimension; pass n explicitly")
    rep = _lower(e, n)
    if rep.c0.size != n:
        raise ValueError(f"tree evaluates to length {rep.c0.size}, expected {n}")
    quad = np.zeros((n, n, n)) if rep.quad is None else rep.quad
    cubic = np.zeros((n, n, n, n)) if rep.cub is None else rep.cub
    return PolySystem(L=rep.lin, quad=quad, cubic=cubic, const=rep.c0)


def load_hexpr_json(data):
    """Build an expression tree from its nested-JSON description.

    Nodes are objects {"op": ...} with op one of state, linear, hproduct,
    hpower, hfunction, diagscale, sum; matrices are inline dense lists.
    """
    if isinstance(data, (str, bytes)):
        import json

        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"expression node must be a JSON object, got {type(data).__name__}")
    op = data.get("op")
    if op == "state":
        return State()
    if op == "linear":
        child = load_hexpr_json(data["child"]) if "child" in data else State()
        return LinearMap(np.asarray(data["matrix"], dtype=float), child)
    if op == "hproduct":
        return HadamardProduct(*[load_hexpr_json(c) for c in data["children"]])
    if op == "hpower":
        return HadamardPower(load_hexpr_json(data["child"]), float(data["exponent"]))
    if op == "hfunction":
        return ElementwiseFunction(data["name"], load_hexpr_json(data["child"]))
    if op == "diagscale":
        return DiagScale(np.asarray(data["scale"], dtype=float), load_hexpr_json(data["child"]))
    if op == "sum":
        children = [load_hexpr_json(c) for c in data["children"]]
        weights = data.get("weights")
        return Sum(children=tuple(children), weights=None if weights is None else tuple(weights))
    raise ValueError(f"unknown expression op {op!r}")
