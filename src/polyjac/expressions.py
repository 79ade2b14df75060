"""Expression trees for pointwise (elementwise) nonlinear discretizations.

A tree built from linear maps of the state, elementwise products, powers and
functions evaluates to a length-n vector.  Its exact Jacobian falls out of the
scalar chain rule: an elementwise node scales row i of its child's Jacobian by
f'(v_i), so d/dU of (A U) o (B U) is diag(B U) A + diag(A U) B, and so on.

Polynomial trees of total degree <= 3 can be lowered to an equivalent
PolySystem for cross-checks and for the linear-form machinery.  A lowered
subtree is a per-row polynomial, the list [c0, lin, quad, cub] of its
coefficients indexed by degree; an order no subtree has is carried as None
rather than as a dense zero tensor.  Each node maps that list order by order:
a linear map is one matmul on the flattened trailing axes, a diagonal scale
and a weighted sum act on each order, and products and powers share one
product of per-row polynomials truncated at degree 3, whose degree-d part
sums the per-row outer products of the parts of degrees i and d - i.  An
order still None at the root reaches PolySystem as None, an absent order, so
a quadratic tree such as Burgers never allocates an n^4 cubic, and lowering
it is cheap enough to repeat for each IVP built from the tree.

One walk, _compile, gives a tree its meaning: at each node it checks the
shape rule (no operand is broadcast) and builds two closures, the node's
value and its Jacobian, so a call makes only the node's numpy calls.
h_eval and h_jacobian compile, which applies the shape rule, and call; an
IVP compiles its tree once and calls the value at every rhs evaluation.
Lowering refuses a dense tensor over system.DENSE_LIMIT_BYTES before
allocating it.
"""

from dataclasses import dataclass, field
import functools

import numpy as np

from .system import PolySystem, check_dense

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
    "DomainError",
    "h_eval",
    "h_jacobian",
    "burgers_discretize",
    "lower_to_poly",
    "load_hexpr_json",
]


class HExpr:
    """Base class for expression-tree nodes."""


class DomainError(ValueError):
    """A power, or its derivative, outside its domain: a fractional power of a negative entry or a negative power of zero."""


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
        if not children:
            raise ValueError("a product needs at least one child")
        object.__setattr__(self, "children", children)


@dataclass(frozen=True)
class HadamardPower(HExpr):
    """Elementwise power child**q."""

    child: HExpr
    q: float

    def __post_init__(self):
        if not np.isfinite(self.q):
            raise ValueError(f"exponent must be finite, got {self.q}")


_FUNCS = {"sin": (np.sin, np.cos), "cos": (np.cos, lambda x: -np.sin(x)), "exp": (np.exp, np.exp)}  # (f, f')


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
        if not self.children:
            raise ValueError("a sum needs at least one child")
        w = self.weights
        if w is None:
            w = (1.0,) * len(self.children)
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        if len(self.weights) != len(self.children):
            raise ValueError("weights and children length mismatch")


def h_eval(e, U):
    """Evaluate a tree at state U; ValueError if it breaks the shape rule, DomainError outside its domain."""
    U = np.asarray(U, dtype=float).ravel()
    return _check_length(e, U.size)[0](U)


def h_jacobian(e, U):
    """Exact Jacobian of h_eval(e, .) at U; DomainError where a power or its derivative is undefined."""
    U = np.asarray(U, dtype=float).ravel()
    return _check_length(e, U.size)[1](U)


def _check_length(e, n):
    """The tree compiled over R^n as (value, jacobian), once its value is required to have length n."""
    m, value, jacobian = _compile(e, n)
    if m != n:
        raise ValueError(f"tree evaluates to length {m}, expected {n}")
    return value, jacobian


def _compile(e, n):
    """The tree over R^n as (length, value, jacobian): the one walk that gives a tree its meaning.

    At each node, children first, it checks the shape rule, under which no
    operand is broadcast, and builds two closures of U, the node's value and
    its Jacobian, so a call makes only the node's numpy calls.  A linear map
    of the state is A's own matmul, and a Sum is _fold of its children.  An
    elementwise node's Jacobian is one row scaling d[:, None] * J of its
    child's, with d = f'(v) formed before J; a power's value v**q and
    derivative q * v**(q - 1) both go through _pow.  Every closure takes its
    children's values left to right, so a DomainError comes from the same
    node as in a recursive walk.
    """
    if isinstance(e, (Sum, HadamardProduct)):
        lengths, values, jacobians = zip(*(_compile(c, n) for c in e.children))
        if len(set(lengths)) != 1:
            raise ValueError(f"{type(e).__name__} children have lengths {list(lengths)}")
        if isinstance(e, Sum):
            return lengths[0], _fold(e.weights, values), _fold(e.weights, jacobians)
        return lengths[0], functools.reduce(_multiplied, values), _product_rule(values, jacobians, n)
    if isinstance(e, LinearMap):
        A, (m, child, jacobian) = e.A, _compile(e.child, n)
        if A.shape[1] != m:
            raise ValueError(f"linear map of shape {A.shape} applied to length {m}")
        value = A.__matmul__ if isinstance(e.child, State) else lambda U: A @ child(U)
        return A.shape[0], value, lambda U: A @ jacobian(U)
    if isinstance(e, State):
        return n, lambda U: U, lambda U: np.eye(n)
    if isinstance(e, HadamardPower):
        q, (m, child, jacobian) = e.q, _compile(e.child, n)
        if q == 0:
            return m, lambda U: _pow(child(U), q), lambda U: np.zeros((child(U).size, n))
        return m, lambda U: _pow(child(U), q), lambda U: (q * _pow(child(U), q - 1))[:, None] * jacobian(U)
    if isinstance(e, ElementwiseFunction):
        (fn, deriv), (m, child, jacobian) = _FUNCS[e.name], _compile(e.child, n)
        return m, lambda U: fn(child(U)), lambda U: deriv(child(U))[:, None] * jacobian(U)
    if isinstance(e, DiagScale):
        c, (m, child, jacobian) = e.c, _compile(e.child, n)
        if c.size != m:
            raise ValueError(f"diagonal scale of length {c.size} applied to length {m}")
        return m, lambda U: c * child(U), lambda U: c[:, None] * jacobian(U)
    raise TypeError(f"unknown node {type(e).__name__}")


def _fold(weights, terms):
    """The weighted sum of the terms' values term(U) as one closure, a left fold from the first term.

    A weight of 1 adds the term's value and -1 subtracts it; any other
    weight multiplies it first.  Each entry has the bits of the plain sum of
    w * v from 0, except that a -0.0 first term keeps its sign.  A lone term
    of weight 1 is returned as is, so the value may be U itself.
    """
    (w, first), *rest = zip(weights, terms)
    out = first if w == 1.0 else _scaled(w, first)
    for w, f in rest:
        out = _folded(out, w, f)
    return out


def _scaled(w, f):
    return lambda U: w * f(U)


def _folded(acc, w, f):
    """The fold so far plus w times f's value: one term of _fold."""
    if w == 1.0:
        return lambda U: acc(U) + f(U)
    if w == -1.0:
        return lambda U: acc(U) - f(U)
    return lambda U: acc(U) + w * f(U)


def _multiplied(acc, f):
    return lambda U: acc(U) * f(U)


def _pow(v, q):
    """v**q elementwise; DomainError where it is undefined, naming the exponent q."""
    if q != int(q) and np.any(v < 0):
        raise DomainError(f"fractional power {q} of negative entry")
    if q < 0 and np.any(v == 0):
        raise DomainError(f"negative power {q} of zero entry")
    return np.ones_like(v) if q == 0 else np.power(v, q)


def _product_rule(values, jacobians, n):
    """The product rule: the sum over i of child i's Jacobian, rows scaled by the product of the other values."""

    def product_rule(U):
        vals = [f(U) for f in values]
        jacs = [g(U) for g in jacobians]
        total = np.zeros((vals[0].size, n))
        for i, jac in enumerate(jacs):
            others = functools.reduce(np.multiply, vals[:i] + vals[i + 1 :], np.ones_like(vals[0]))
            total += others[:, None] * jac
        return total

    return product_rule


@dataclass(frozen=True)
class SemiDiscreteIVP:
    """A method-of-lines system dU/dt = rhs(U) of dimension n.

    Construction checks n >= 1 and the shape rule of _compile with a value of
    length n, and keeps the compiled (value, jacobian) for every IVP built on
    it.  The optional matrices serve discretizers' step bounds (burgers_discretize).
    """

    n: int
    rhs: HExpr
    first_diff: np.ndarray = None
    second_diff: np.ndarray = None
    reynolds: float = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"'n' is {self.n}, needs at least 1")
        object.__setattr__(self, "_compiled", _check_length(self.rhs, self.n))


def burgers_discretize(n, Re):
    """Central-difference Burgers semi-discretization on a periodic unit domain.

    rhs(U) = (1/Re) B U - U o (A U) with A the central first-difference and B
    the central second-difference matrix, spacing dx = 1/n.  The boundary
    treatment (periodic) and spacing are implementation choices; they keep the
    difference matrices circulant so constants are annihilated exactly.
    """
    if n < 4:
        raise ValueError(f"grid too small: n={n} < 4")
    if not Re > 0:
        raise ValueError(f"Reynolds number must be positive, got {Re}")
    dx = 1.0 / n
    right = np.eye(n, k=1) + np.eye(n, k=1 - n)  # ones at (i, i+1 mod n)
    left = right.T  # ones at (i, i-1 mod n)
    A = (right - left) / (2.0 * dx)
    B = (right + left - 2.0 * np.eye(n)) / dx**2
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


def _add(*terms):
    """Left-to-right sum of the terms that are present; None if none is."""
    present = [t for t in terms if t is not None]
    return sum(present[1:], present[0]) if present else None


def _degree(p):
    """Highest order of the per-row polynomial p with a nonzero coefficient."""
    return max((d for d, t in enumerate(p) if d and t is not None and np.any(t)), default=0)


def _cross(a, b):
    """Per-row outer product out[i, j.., k..] = a[i, j..] * b[i, k..]; None if either is."""
    if a is None or b is None:
        return None
    check_dense(a.shape + b.shape[1:], "lowered coefficient tensor")
    rows_a = a.reshape(a.shape + (1,) * (b.ndim - 1))
    return rows_a * b.reshape(b.shape[:1] + (1,) * (a.ndim - 1) + b.shape[1:])


def _product(a, b):
    """Product of two per-row polynomials, truncated at degree 3.

    Degree d sums the crosses of the parts of degrees i and d - i, the
    lower-order part first.  Coefficient tensors stay unsymmetrized here and
    PolySystem symmetrizes them once; the rounding of that symmetrization
    depends on the index layout, which the crossing order fixes.
    """
    if _degree(a) + _degree(b) > 3:
        raise ValueError("non-polynomial or degree > 3: product exceeds cubic")
    return [
        _add(*(_cross(a[i], b[d - i]) if i <= d - i else _cross(b[d - i], a[i]) for i in range(d + 1)))
        for d in range(4)
    ]


def _map_rows(A, t):
    """A applied to the rows of a per-row coefficient tensor: one matmul on its flattened trailing axes."""
    shape = A.shape[:1] + t.shape[1:]
    check_dense(shape, "lowered coefficient tensor")
    return (A @ t.reshape(t.shape[0], -1)).reshape(shape)


def _lower(e, n):
    """The tree's per-row polynomial [c0 (m,), lin (m, n), quad or None, cub or None]."""
    if isinstance(e, State):
        return [np.zeros(n), np.eye(n), None, None]
    if isinstance(e, LinearMap):
        return [None if t is None else _map_rows(e.A, t) for t in _lower(e.child, n)]
    if isinstance(e, DiagScale):
        return [_cross(e.c, t) for t in _lower(e.child, n)]
    if isinstance(e, Sum):
        parts = [_lower(ch, n) for ch in e.children]
        m = parts[0][0].size
        start = [np.zeros(m), np.zeros((m, n)), None, None]
        return [
            _add(s, *(None if p[d] is None else w * p[d] for w, p in zip(e.weights, parts)))
            for d, s in enumerate(start)
        ]
    if isinstance(e, HadamardProduct):
        return functools.reduce(_product, [_lower(ch, n) for ch in e.children])
    if isinstance(e, HadamardPower):
        if e.q not in (0, 1, 2, 3):
            raise ValueError(f"non-polynomial: elementwise power {e.q}")
        base = _lower(e.child, n)
        if e.q == 0:
            return [np.ones(base[0].size), np.zeros((base[0].size, n)), None, None]
        return functools.reduce(_product, [base] * int(e.q))
    if isinstance(e, ElementwiseFunction):
        raise ValueError(f"non-polynomial node: elementwise {e.name}")
    raise TypeError(f"unknown node {type(e).__name__}")


def lower_to_poly(e, n):
    """Lower a polynomial expression tree (degree <= 3) over R^n to a PolySystem.

    The tree must pass the shape rule of _compile with a value of length n.
    Raises on non-polynomial nodes (elementwise functions, fractional or
    negative powers) and on total degree above 3.  An order the tree lacks
    reaches PolySystem as None, an absent order, and is never allocated.
    """
    _check_length(e, n)
    check_dense((n, n), "linear part")
    c0, lin, quad, cubic = _lower(e, n)
    return PolySystem(L=lin, quad=quad, cubic=cubic, const=c0)


def load_hexpr_json(data):
    """Build an expression tree from its parsed nested-JSON description.

    data is the decoded JSON value, not its text.  Nodes are objects
    {"op": ...} with op one of state, linear, hproduct, hpower, hfunction,
    diagscale, sum; matrices are inline dense lists.  A node that is not an
    object is rejected.
    """
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
