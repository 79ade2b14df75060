"""Property tests: the contraction path against the einsum reference and
against einsum over the raw, unsymmetrized input, lowering, the tree sum fold
against the plain sum it replaces (bit for bit), the compiled tree value and
Jacobian against the recursive walks they replaced (bit for bit, or the same domain error), the tree
Jacobian against complex-step columns and its one failure, DomainError, the shape rule of expression trees, the triangular relaxation sweep against the row
loop, the invariants of the rank-one updates, the secant check's J q read from
f, y and q against the updated J, the one-formula modified updates
against the three-term form they replaced (to rounding), the step equation an
implicit Euler step solves, the per-step stability reports integrate builds
from stacks of A(U) against the reports made one state at a time (bit for
bit), and diverged's one-call test against the exact test near its limit.
The shared rank-one kernels, the one-pass reader of a system document's entries and the one-format CSV rows
must match, bit for bit, the code they replaced; the correction-form sweep
must match the direct-form sweep it replaced to rounding times a conditioning
factor, with the same row interchanges.

Systems are random, n in 1..6, with the quadratic and the cubic part each
independently nonzero, given as an all-zero tensor, or absent (None), so the
path that skips an absent order is covered.  Every comparison of two evaluations allows 1e-12 * (1 + scale), where scale is the same
quantity evaluated with absolute coefficients at |U|, which bounds the size of
the terms whose rounding is compared.
"""

import dataclasses
import functools
import json
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from polyjac import (
    DiagScale,
    DomainError,
    ElementwiseFunction,
    HadamardPower,
    HadamardProduct,
    IVP,
    LinearMap,
    PolySystem,
    GuardTripError,
    SemiDiscreteIVP,
    SolverTrace,
    StabilityReport,
    State,
    Sum,
    Trajectory,
    burgers_discretize,
    burgers_step_bound,
    classic_inverse_update,
    classic_update,
    expressions,
    from_kronecker,
    h_eval,
    h_jacobian,
    integrate,
    jacobian_action,
    load_system_json,
    lower_to_poly,
    modified_inverse_update,
    modified_update,
    sweep_once,
)
from polyjac import stability
from polyjac.presets import burgers_initial_state
from polyjac.quasi_newton import _check_step, _inverse_update, _updated_action
from polyjac.relaxation import SingularPivotError, _pivot, _sweep
from polyjac.system import _read_coefficients, check_dense, diverged

from conftest import reference_linear_sweep, reference_values

TOL = 1e-12
METHODS = ("eval", "nonlinear_parts", "jacobian", "linearized_matrix", "euler_residuals")


ORDER_KINDS = ("random", "zeros", "absent")


@st.composite
def systems_and_states(draw):
    """(system, state, raw coefficients); raw holds zeros where an order is absent."""
    n = draw(st.integers(1, 6))
    quad_kind, cubic_kind = draw(st.sampled_from(ORDER_KINDS)), draw(st.sampled_from(ORDER_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    quad = rng.standard_normal((n, n, n)) if quad_kind == "random" else np.zeros((n, n, n))
    cubic = rng.standard_normal((n, n, n, n)) if cubic_kind == "random" else np.zeros((n, n, n, n))
    raw = SimpleNamespace(L=rng.standard_normal((n, n)), quad=quad, cubic=cubic, const=rng.standard_normal(n))
    given_quad = None if quad_kind == "absent" else quad
    given_cubic = None if cubic_kind == "absent" else cubic
    return PolySystem(raw.L, given_quad, given_cubic, raw.const), rng.standard_normal(n), raw


def _abs_reference(s, U):
    absolute = SimpleNamespace(L=np.abs(s.L), quad=np.abs(s.quad), cubic=np.abs(s.cubic), const=np.abs(s.const))
    return reference_values(absolute, np.abs(U))


def _close(got, want, scale):
    return np.all(np.abs(np.asarray(got) - np.asarray(want)) <= TOL * (1.0 + np.asarray(scale)))


@given(systems_and_states())
def test_contraction_matches_einsum_reference(case):
    s, U, _ = case
    ref, scale = reference_values(s, U), _abs_reference(s, U)
    for name in METHODS:
        got = getattr(s, name)(U)
        if name == "linearized_matrix":
            got = got.A
        bound = scale["jacobian_action"].max() if name == "euler_residuals" else scale[name]
        assert _close(got, ref[name], bound), name
    assert _close(jacobian_action(s, U), ref["jacobian_action"], scale["jacobian_action"])
    st = s.at(U)
    fields = ((st.f, "eval"), (st.J, "jacobian"), (st.A, "linearized_matrix"),
              (st.fbar, "jacobian_action"), (2 * st.M2, "J2"), (3 * st.M3, "J3"))
    for got, key in fields:
        assert _close(got, ref[key], scale[key]), key


def _raw_reference(raw, U):
    """f, J, fbar and M3 at U from einsum over the unsymmetrized input alone.

    Each derivative sums the input over every slot U_j takes in a monomial, so
    it reads nothing the system stores, .quad and .cubic included.
    """
    q, c = raw.quad, raw.cubic
    J2 = np.einsum("ijk,k->ij", q, U) + np.einsum("ikj,k->ij", q, U)
    J3 = sum(np.einsum(f"{sub}->ij", c, U, U) for sub in ("ijkl,k,l", "ikjl,k,l", "iklj,k,l"))
    J = raw.L + J2 + J3
    f = raw.L @ U + np.einsum("ijk,j,k->i", q, U, U) + np.einsum("ijkl,j,k,l->i", c, U, U, U) + raw.const
    return {"f": f, "J": J, "fbar": J @ U, "M3": J3 / 3.0}


@given(systems_and_states())
def test_state_matches_einsum_over_the_raw_input(case):
    # .cubic is rebuilt from the packed cubic, so a packing that weighs the pairs
    # k < l wrongly passes a reference read from it; this one never reads it.
    s, U, raw = case
    absolute = SimpleNamespace(**{k: np.abs(v) for k, v in vars(raw).items()})
    want, scale = _raw_reference(raw, U), _raw_reference(absolute, np.abs(U))
    st = s.at(U)
    for key in ("f", "J", "fbar", "M3"):
        assert _close(getattr(st, key), want[key], scale[key]), key


@given(systems_and_states(), st.sampled_from(("quad", "cubic", "both")))
def test_absent_order_equals_explicit_zeros(case, absent):
    # The same system with one order (or both) given as None and as zeros.
    _, U, raw = case
    names = ("quad", "cubic") if absent == "both" else (absent,)
    without = PolySystem(**dict(vars(raw), **{k: None for k in names}))
    zeros = PolySystem(**dict(vars(raw), **{k: np.zeros_like(getattr(raw, k)) for k in names}))
    a, b = without.at(U), zeros.at(U)
    for field in ("f", "J", "A", "fbar", "M2", "M3"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    for k in ("quad", "cubic"):
        ta, tb = getattr(without, k), getattr(zeros, k)
        assert ta.shape == tb.shape == np.shape(getattr(raw, k)) and np.array_equal(ta, tb), k
        assert not ta.flags.writeable and not tb.flags.writeable, k


@given(systems_and_states())
def test_residual_matches_unsymmetrized_input(case):
    # Symmetrizing, or skipping an absent order, must not change f.
    s, U, raw = case
    assert _close(s.eval(U), reference_values(raw, U)["eval"], _abs_reference(s, U)["eval"])


@given(systems_and_states())
def test_linear_form_reproduces_residual(case):
    s, U, _ = case
    scale = _abs_reference(s, U)["eval"]
    assert _close(s.linearized_matrix(U).A @ U + s.const, s.eval(U), scale)


@given(systems_and_states(), st.floats(1e-3, 1.0))
def test_implicit_euler_step_solves_the_step_equation_or_fails(case, h):
    # Newton either reports solver_failed or returns V = U + h f(V) to 1e-10 (1 + ||V||)
    s, U, _ = case
    with np.errstate(all="ignore"):
        traj = integrate(IVP(s, U), "implicit_euler", h, 1)
    if traj.status != "solver_failed":
        V = traj.states[1]
        assert np.abs(V - U - h * s.eval(V)).max() <= 1e-10 * (1.0 + np.abs(V).max())


triangular_methods = st.sampled_from(("gauss_seidel", "sor"))
omegas = st.floats(0.1, 2.0)


@given(st.integers(1, 8), triangular_methods, omegas, st.integers(0, 2**32 - 1))
def test_linear_sweep_matches_row_loop(n, method, omega, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    np.fill_diagonal(A, rng.choice([-1.0, 1.0], n) * (np.abs(A).sum(axis=1) + 1.0))
    b, U = rng.standard_normal(n), rng.standard_normal(n)
    s = PolySystem(L=A, quad=np.zeros((n, n, n)), cubic=np.zeros((n,) * 4), const=-b)
    U_new, perm = sweep_once(s, U, method, omega)
    assert perm == list(range(n))
    want = reference_linear_sweep(A, b, U, method, omega)
    assert np.abs(U_new - want).max() <= TOL * (1.0 + np.abs(U_new).max())


@given(systems_and_states(), triangular_methods, omegas)
def test_nonlinear_sweep_matches_row_loop(case, method, omega):
    # the row loop on A(U), row-interchanged as the sweep reports, with b = -F
    s, U, _ = case
    U_new, perm = sweep_once(s, U, method, omega)
    want = reference_linear_sweep(s.at(U).A[perm], -s.const[perm], U, method, omega)
    assert np.abs(U_new - want).max() <= TOL * (1.0 + np.abs(U_new).max())


ANY_EXPONENTS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


@st.composite
def trees(draw, n, max_degree, depth=3, weights=None, functions=False):
    """A polynomial expression tree over R^n of degree <= max_degree, with its degree.

    Sum weights are standard normal, or drawn from the strategy `weights`.
    With `functions`, sin, cos and exp nodes occur too, and powers take
    negative and fractional exponents; the returned degree then only bounds
    the products drawn.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["state"] if depth == 0 else ["state", "linear", "diag", "rect", "sum", "product", "power"]
    if functions and depth:
        kinds.append("function")
    kind = draw(st.sampled_from(kinds))
    sub = functools.partial(trees, depth=depth - 1, weights=weights, functions=functions)
    if kind == "state":
        return State(), 1
    if kind in ("linear", "diag", "rect", "function"):
        child, deg = draw(sub(n, max_degree))
        if kind == "function":
            return ElementwiseFunction(draw(st.sampled_from(("sin", "cos", "exp"))), child), deg
        if kind == "rect":
            # B (n x m) @ (A (m x n) @ child): lowering passes through m rows
            m = draw(st.integers(1, 6))
            return LinearMap(rng.standard_normal((n, m)), LinearMap(rng.standard_normal((m, n)), child)), deg
        if kind == "linear":
            return LinearMap(rng.standard_normal((n, n)), child), deg
        return DiagScale(rng.standard_normal(n), child), deg
    if kind == "sum":
        parts = draw(st.lists(sub(n, max_degree), min_size=1, max_size=3))
        if weights is None:
            w = tuple(rng.standard_normal(len(parts)))
        else:
            w = tuple(draw(st.lists(weights, min_size=len(parts), max_size=len(parts))))
        return Sum(children=tuple(t for t, _ in parts), weights=w), max(d for _, d in parts)
    if kind == "product":
        left, d1 = draw(sub(n, max_degree - 1)) if max_degree > 1 else (State(), 1)
        if d1 >= max_degree:
            return left, d1
        right, d2 = draw(sub(n, max_degree - d1))
        return HadamardProduct(left, right), d1 + d2
    child, deg = draw(sub(n, max_degree))
    if functions:
        return HadamardPower(child, draw(st.sampled_from(ANY_EXPONENTS))), deg
    q = draw(st.integers(0, max_degree // deg if deg else 3))
    return HadamardPower(child, float(q)), deg * q


def _abs_tree(e):
    if isinstance(e, LinearMap):
        return LinearMap(np.abs(e.A), _abs_tree(e.child))
    if isinstance(e, DiagScale):
        return DiagScale(np.abs(e.c), _abs_tree(e.child))
    if isinstance(e, Sum):
        return Sum(children=tuple(_abs_tree(c) for c in e.children), weights=tuple(abs(w) for w in e.weights))
    if isinstance(e, HadamardProduct):
        return HadamardProduct(*[_abs_tree(c) for c in e.children])
    if isinstance(e, HadamardPower):
        return HadamardPower(_abs_tree(e.child), e.q)
    return e


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), trees(n, 3), st.integers(0, 2**32 - 1))))
def test_lowering_matches_tree_evaluation(case):
    n, (tree, _), seed = case
    s = lower_to_poly(tree, n)
    for U in np.random.default_rng(seed).standard_normal((3, n)):
        scale = np.linalg.norm(h_eval(_abs_tree(tree), np.abs(U)), np.inf)
        assert _close(s.eval(U), h_eval(tree, U), scale)


fold_weights = st.sampled_from([1.0, -1.0, 0.0, 0.5, -2.5])


def _reference_fold(weights, terms):
    """The sum fold that expressions._fold replaces: int 0 plus each w * v."""
    return lambda U: sum(w * term(U) for w, term in zip(weights, terms))


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(trees(n, 3, weights=fold_weights), min_size=1, max_size=4))
    ),
    st.lists(fold_weights, min_size=4, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_sum_fold_matches_reference_fold(case, root_weights, seed):
    # a root Sum over drawn trees, so that first terms of every weight occur, State() among them
    n, parts = case
    tree = Sum(children=tuple(t for t, _ in parts), weights=root_weights[: len(parts)])
    for U in np.random.default_rng(seed).standard_normal((3, n)):
        f, J = h_eval(tree, U), h_jacobian(tree, U)
        with mock.patch.object(expressions, "_fold", _reference_fold):
            assert np.array_equal(f, h_eval(tree, U))
            assert np.array_equal(J, h_jacobian(tree, U))


def _recursive_fold(weights, vals):
    """The left fold of expressions._fold over values already computed."""
    out = None
    for w, v in zip(weights, vals):
        if out is None:
            out = v if w == 1.0 else w * v
        elif w == 1.0:
            out = out + v
        elif w == -1.0:
            out = out - v
        else:
            out = out + w * v
    return out


def _recursive_eval(e, U):
    """The recursive tree walk that expressions._compile replaced, with the fold of expressions._fold."""
    if isinstance(e, Sum):
        return _recursive_fold(e.weights, [_recursive_eval(c, U) for c in e.children])
    if isinstance(e, LinearMap):
        return e.A @ _recursive_eval(e.child, U)
    if isinstance(e, HadamardProduct):
        out = _recursive_eval(e.children[0], U)
        for c in e.children[1:]:
            out = out * _recursive_eval(c, U)
        return out
    if isinstance(e, State):
        return U
    if isinstance(e, HadamardPower):
        v = _recursive_eval(e.child, U)
        q = e.q
        if q != int(q) and np.any(v < 0):
            raise ValueError(f"fractional power {q} of negative entry")
        if q < 0 and np.any(v == 0):
            raise ValueError(f"negative power {q} of zero entry")
        return np.ones_like(v) if q == 0 else np.power(v, q)
    if isinstance(e, ElementwiseFunction):
        return {"sin": np.sin, "cos": np.cos, "exp": np.exp}[e.name](_recursive_eval(e.child, U))
    if isinstance(e, DiagScale):
        return e.c * _recursive_eval(e.child, U)
    raise TypeError(f"unknown node {type(e).__name__}")


def _recursive_jacobian(e, U):
    """The recursive chain-rule walk that expressions._compile replaced: each node's values come from _recursive_eval.

    A power's derivative q * v**(q - 1) is the power q - 1 of _recursive_eval, under the same domain rule.
    """
    n = U.size
    if isinstance(e, Sum):
        return _recursive_fold(e.weights, [_recursive_jacobian(c, U) for c in e.children])
    if isinstance(e, LinearMap):
        return e.A @ _recursive_jacobian(e.child, U)
    if isinstance(e, HadamardProduct):
        vals = [_recursive_eval(c, U) for c in e.children]
        jacs = [_recursive_jacobian(c, U) for c in e.children]
        total = np.zeros((vals[0].size, n))
        for i in range(len(vals)):
            others = np.ones_like(vals[0])
            for j, v in enumerate(vals):
                if j != i:
                    others = others * v
            total += others[:, None] * jacs[i]
        return total
    if isinstance(e, State):
        return np.eye(n)
    if isinstance(e, HadamardPower):
        q = e.q
        if q == 0:
            return np.zeros((_recursive_eval(e.child, U).size, n))
        deriv = q * _recursive_eval(HadamardPower(e.child, q - 1), U)
        return deriv[:, None] * _recursive_jacobian(e.child, U)
    if isinstance(e, ElementwiseFunction):
        v = _recursive_eval(e.child, U)
        deriv = {"sin": np.cos, "cos": lambda x: -np.sin(x), "exp": np.exp}[e.name]
        return deriv(v)[:, None] * _recursive_jacobian(e.child, U)
    if isinstance(e, DiagScale):
        return e.c[:, None] * _recursive_jacobian(e.child, U)
    raise TypeError(f"unknown node {type(e).__name__}")


def _value_or_error(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(trees(n, 3, weights=fold_weights, functions=True), min_size=1, max_size=3)
        )
    ),
    st.lists(fold_weights, min_size=3, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_compiled_tree_matches_recursive_walk(case, root_weights, seed):
    # the same bits, or the same domain error, under a root Sum as in the fold test, for the
    # value and for the Jacobian; zero entries of either sign meet negative powers and make
    # signed-zero terms
    n, parts = case
    tree = Sum(children=tuple(t for t, _ in parts), weights=root_weights[: len(parts)])
    rng = np.random.default_rng(seed)
    zeros = np.copysign(0.0, rng.standard_normal(n))
    for U in (rng.standard_normal(n), np.where(rng.random(n) < 0.5, zeros, rng.standard_normal(n))):
        for reference, compiled in ((_recursive_eval, h_eval), (_recursive_jacobian, h_jacobian)):
            with np.errstate(all="ignore"):
                want, got = _value_or_error(reference, tree, U), _value_or_error(compiled, tree, U)
            if isinstance(want, str):
                assert got == want
            else:
                assert not isinstance(got, str), got
                assert _same_bits(got, want)


@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), trees(n, 3, functions=True))),
    st.integers(0, 2**32 - 1),
)
def test_tree_jacobian_returns_or_raises_domain_error(case, seed):
    # at zeros of either sign and at states large enough to overflow exp, every failure is a DomainError
    n, (tree, _) = case
    rng = np.random.default_rng(seed)
    zeros = np.copysign(0.0, rng.standard_normal(n))
    for U in (zeros, np.where(rng.random(n) < 0.5, zeros, rng.standard_normal(n)), 30.0 * rng.standard_normal(n)):
        try:
            with np.errstate(all="ignore"):
                J = h_jacobian(tree, U)
        except DomainError:
            continue
        assert isinstance(J, np.ndarray) and J.shape == (n, n)


def _whole_powers(e):
    """The tree with each exponent q replaced by |ceil(q)|, a whole power >= 0, so the tree is analytic."""
    if isinstance(e, HadamardPower):
        return HadamardPower(_whole_powers(e.child), float(abs(math.ceil(e.q))))
    if isinstance(e, (LinearMap, DiagScale, ElementwiseFunction)):
        return dataclasses.replace(e, child=_whole_powers(e.child))
    if isinstance(e, HadamardProduct):
        return HadamardProduct(*[_whole_powers(c) for c in e.children])
    if isinstance(e, Sum):
        return Sum(children=tuple(_whole_powers(c) for c in e.children), weights=e.weights)
    return e


@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), trees(n, 3, functions=True).map(lambda t: t[0]))),
    st.integers(0, 2**32 - 1),
)
def test_tree_jacobian_matches_complex_step(case, seed):
    # column k of J is Im f(U + i h e_k) / h, exact to rounding for an analytic tree (Squire and
    # Trapp, SIAM Rev. 40, 1998); the compiled value closure takes the complex state that h_eval
    # would cast to float
    n, tree = case
    tree = _whole_powers(tree)
    value = expressions._compile(tree, n)[1]
    U, h = np.random.default_rng(seed).standard_normal(n), 1e-30
    with np.errstate(all="ignore"):
        J = h_jacobian(tree, U)
        J_cs = np.column_stack([value(U + 1j * h * e).imag / h for e in np.eye(n)])
    assume(np.all(np.isfinite(J)))
    assert np.abs(J - J_cs).max() <= 1e-12 * max(1.0, np.abs(J).max())


def _every_order(rng, n, degree):
    """A (U**0) + B U + (C U) o U + (D U) o U o U up to the degree: each order nonzero."""
    parts = [LinearMap(rng.standard_normal((n, n)), HadamardPower(State(), 0.0))]
    for d in range(1, degree + 1):
        parts.append(HadamardProduct(LinearMap(rng.standard_normal((n, n))), *[State()] * (d - 1)))
    return Sum(children=tuple(parts), weights=tuple(rng.standard_normal(len(parts))))


degree_pairs = st.sampled_from([(a, b) for a in range(4) for b in range(4 - a)])


@given(st.integers(1, 6), degree_pairs, st.integers(0, 2**32 - 1))
def test_product_lowering_keeps_every_term(n, degrees, seed):
    # the factors have every order up to their degrees, so each term of the product counts
    rng = np.random.default_rng(seed)
    tree = HadamardProduct(*[_every_order(rng, n, d) for d in degrees])
    s = lower_to_poly(tree, n)
    for U in rng.standard_normal((3, n)):
        scale = np.linalg.norm(h_eval(_abs_tree(tree), np.abs(U)), np.inf)
        assert _close(s.eval(U), h_eval(tree, U), scale)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), trees(n, 2))))
def test_degree_two_tree_lowers_to_zero_cubic(case):
    n, (tree, _) = case
    assert not np.any(lower_to_poly(tree, n).cubic)


def _nodes(e):
    """The tree's nodes, parents before children."""
    kids = e.children if isinstance(e, (Sum, HadamardProduct)) else () if isinstance(e, State) else (e.child,)
    return [e] + [x for k in kids for x in _nodes(k)]


def _replace(e, target, new):
    """The tree with node `target` (by identity) replaced by `new`."""
    if e is target:
        return new
    if isinstance(e, Sum):
        return Sum(children=tuple(_replace(c, target, new) for c in e.children), weights=e.weights)
    if isinstance(e, HadamardProduct):
        return HadamardProduct(*[_replace(c, target, new) for c in e.children])
    if isinstance(e, State):
        return e
    return dataclasses.replace(e, child=_replace(e.child, target, new))


def _spoiled(node, n):
    """The node one entry too long, or with a child of another length than its siblings'.

    Every Sum and product of a tree from `trees` has length n; a node of
    another kind gets a new Sum parent holding that sibling.
    """
    if isinstance(node, LinearMap):
        return LinearMap(np.vstack([node.A, node.A[:1]]), node.child)
    if isinstance(node, DiagScale):
        return DiagScale(np.append(node.c, 1.0), node.child)
    sibling = LinearMap(np.ones((1 if n > 1 else 2, n)))  # length 1, the broadcasting case, unless n is 1
    if isinstance(node, HadamardProduct):
        return HadamardProduct(*node.children, sibling)
    if isinstance(node, Sum):
        return Sum(children=node.children + (sibling,), weights=node.weights + (1.0,))
    return Sum(children=(node, sibling))


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), trees(n, 3))), st.data())
def test_shape_rule_accepts_trees_and_rejects_one_spoiled_node(case, data):
    n, (tree, _) = case
    sd = SemiDiscreteIVP(n=n, rhs=tree)
    assert h_eval(sd.rhs, np.ones(n)).shape == (n,)
    shaped = [e for e in _nodes(tree) if isinstance(e, (LinearMap, DiagScale, Sum, HadamardProduct))]
    node = data.draw(st.sampled_from(shaped or [tree]))
    bad = _replace(tree, node, _spoiled(node, n))
    with pytest.raises(ValueError):
        SemiDiscreteIVP(n=n, rhs=bad)
    with pytest.raises(ValueError):
        lower_to_poly(bad, n)
    with pytest.raises(ValueError):
        h_eval(bad, np.ones(n))
    with pytest.raises(ValueError):
        h_jacobian(bad, np.ones(n))


@st.composite
def update_cases(draw):
    """A well-conditioned J = 3I + E with |E_ij| <= 0.3, and bounded q, y, U_prev and a probe p.

    Row sums of |E| stay below 1.8 for n <= 6, so J is strictly diagonally dominant.
    """
    n = draw(st.integers(2, 6))
    entries = st.floats(-1.0, 1.0)
    J = 3.0 * np.eye(n) + 0.3 * draw(arrays(float, (n, n), elements=entries))
    q, y, U_prev, p = draw(arrays(float, (4, n), elements=entries))
    return J, q, y, U_prev, p


def _update(J, q, y, U_prev, modified):
    """(J_new, Jinv_new) from the forward and inverse update; skips draws where a guard trips."""
    try:
        if modified:
            U_cur = U_prev + q
            return (modified_update(J, U_prev, U_cur, y),
                    modified_inverse_update(np.linalg.inv(J), J, U_prev, U_cur, y))
        return classic_update(J, q, y), classic_inverse_update(np.linalg.inv(J), q, y)
    except GuardTripError:
        assume(False)


@given(update_cases())
def test_classic_update_meets_secant(case):
    J, q, y, U_prev, _ = case
    J_c, _ = _update(J, q, y, U_prev, modified=False)
    assert np.linalg.norm(J_c @ q - y) <= 1e-12 * (1.0 + np.linalg.norm(y) + np.linalg.norm(J @ q))


@given(update_cases())
def test_modified_update_meets_exact_relation(case):
    J, q, y, U_prev, _ = case
    J_m, _ = _update(J, q, y, U_prev, modified=True)
    U_cur = U_prev + q
    norm = np.linalg.norm
    scale = 1.0 + norm(y) + norm(J_m, 2) * norm(U_cur) + norm(J, 2) * norm(U_prev)
    assert np.linalg.norm(J_m @ U_cur - J @ U_prev - y) <= 1e-10 * scale


@given(update_cases(), st.booleans())
def test_update_leaves_orthogonal_directions_unchanged(case, modified):
    J, q, y, U_prev, p = case
    J_new, _ = _update(J, q, y, U_prev, modified)
    p = p - (p @ q) / (q @ q) * q
    # p is orthogonal to q only to rounding, which the rank-one change ||J_new - J||_2 amplifies
    base = 1.0 + np.linalg.norm(J @ p) + np.linalg.norm(J_new - J, 2) * np.linalg.norm(p)
    assert np.linalg.norm((J_new - J) @ p) <= 1e-12 * base


@given(update_cases(), st.booleans())
def test_inverse_update_pairs_with_forward_update(case, modified):
    J, q, y, U_prev, _ = case
    J_new, Jinv_new = _update(J, q, y, U_prev, modified)
    cond = np.linalg.norm(J_new, np.inf) * np.linalg.norm(Jinv_new, np.inf)
    assert np.linalg.norm(Jinv_new @ J_new - np.eye(q.size), np.inf) <= 1e-8 * cond


@given(update_cases(), st.booleans())
def test_updated_action_matches_updated_jacobian(case, modified):
    # with f = -J q, the secant check's (q^T q y - t f) / (q^T q + t) is the updated J times q, to
    # 1e-12 (1 + ||y|| + ||f||) times the cancellation in q^T q + t, which both sides divide by
    J, q, y, U_prev, _ = case
    q = (U_prev + q) - U_prev  # the step the public modified update reads
    f = -(J @ q)
    J_new, _ = _update(J, q, y, U_prev, modified)
    qq, t = float(q @ q), float(q @ U_prev) if modified else 0.0
    norm = np.linalg.norm
    scale = (1.0 + norm(y) + norm(f)) * _cancellation(qq + t, qq, t)
    assert norm(_updated_action(f, y, qq, t) - J_new @ q) <= 1e-12 * scale


def _same_bits(got, want):
    """Bit-for-bit equality: np.array_equal on the int64 views, so -0.0 != 0.0 and NaN == NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _public_inverse_update(J, J_inv, U, U_new, y, modified):
    """The inverse update as the public functions give it, after the forward function's guards."""
    q = U_new - U
    if modified:
        modified_update(J, U, U_new, y)
        return modified_inverse_update(J_inv, J, U, U_new, y)
    classic_update(J, q, y)
    return classic_inverse_update(J_inv, q, y)


def _solver_inverse_update(J_inv, U, U_new, y, modified):
    """qn_solve's update of J^-1: the step's guards, then the inverse kernel."""
    q = U_new - U
    qq, t = float(q @ q), float(q @ U) if modified else 0.0
    _check_step(qq, t)
    return _inverse_update(J_inv, q, y, qq, t)


def _outcome(update, *args):
    try:
        return update(*args)
    except GuardTripError as exc:
        return exc.name


@given(update_cases(), st.booleans(), st.booleans())
def test_rank_one_kernels_match_public_pair(case, modified, exact_inverse):
    # the solver's J^-1, without J: the same bits, or the same tripped guard, as the public functions give
    J, q, y, U, _ = case
    J_inv = np.linalg.inv(J) if exact_inverse else np.linalg.inv(J + 0.1 * np.outer(q, y))
    U_new = U + q
    want = _outcome(_public_inverse_update, J, J_inv, U, U_new, y, modified)
    got = _outcome(_solver_inverse_update, J_inv, U, U_new, y, modified)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert _same_bits(got, want)


def _guarded(name, value, g):
    if abs(value) <= g:
        raise GuardTripError(name, value)


def _formula_updates(J, J_inv, U, U_new, y):
    """The four updates written out with their guards, one expression each.

    Returns {name of the public function: result or the name of its tripped guard}.
    """
    q = U_new - U
    s = float(q @ q)
    g = 1e-12 * (1.0 + float(q @ q))
    t = float(q @ U)

    def classic():
        _guarded("q^T q", s, g)
        return J - np.outer(J @ q - y, q) / s

    def classic_inverse():
        z = J_inv @ y
        denom = float(q @ z)
        _guarded("q^T (Jinv y) + t", denom, g)
        return J_inv - np.outer(z - q, q @ J_inv) / denom

    def modified():
        _guarded("q^T q", s, g)
        _guarded("q^T q + q^T U_prev", s + t, g)
        return J - np.outer(J @ q - y, q) / (s + t)

    def modified_inverse():
        z = J_inv @ y
        denom = float(q @ z) + t
        _guarded("q^T (Jinv y) + t", denom, g)
        return J_inv - np.outer(z - q, q @ J_inv) / denom

    return {f.__name__: _outcome(f) for f in (classic, classic_inverse, modified, modified_inverse)}


def _three_term_modified(J, J_inv, U, U_new, y):
    """The modified pair as first written, through the correction r with J = J_prev + r q^T.

    r = -JU/(s+t) - w/s + w t/((s+t) s) with w = J q - J U - y, the same vector as (y - J q)/(s+t);
    the inverse is Sherman-Morrison on r and reads J.  Returns {"modified": ..., "modified_inverse": ...}
    as _formula_updates does.
    """
    q = U_new - U
    s = float(q @ q)
    g = 1e-12 * (1.0 + float(q @ q))

    def correction():
        _guarded("q^T q", s, g)
        t = float(q @ U)
        _guarded("q^T q + q^T U_prev", s + t, g)
        JU = J @ U
        w = J @ q - JU - y
        return -JU / (s + t) - w / s + w * (t / ((s + t) * s))

    def modified():
        return J + np.outer(correction(), q)

    def modified_inverse():
        z = J_inv @ correction()
        denom = 1.0 + float(q @ z)
        _guarded("1 + q^T (Jinv r)", denom, g)
        return J_inv - np.outer(z, q @ J_inv) / denom

    return {f.__name__: _outcome(f) for f in (modified, modified_inverse)}


@given(update_cases())
def test_public_updates_match_written_out_formulas(case):
    J, q, y, U, _ = case
    J_inv, U_new = np.linalg.inv(J), U + q
    q = U_new - U
    got = {
        "classic": _outcome(classic_update, J, q, y),
        "classic_inverse": _outcome(classic_inverse_update, J_inv, q, y),
        "modified": _outcome(modified_update, J, U, U_new, y),
        "modified_inverse": _outcome(modified_inverse_update, J_inv, J, U, U_new, y),
    }
    for name, want in _formula_updates(J, J_inv, U, U_new, y).items():
        assert isinstance(got[name], str) == isinstance(want, str), name
        assert got[name] == want if isinstance(want, str) else _same_bits(got[name], want), name


def _cancellation(total, *terms):
    """max of sum |terms| over max |total|: how far the rounding of a sum can exceed the sum."""
    size, total = np.max(sum(np.abs(t) for t in terms)), np.max(np.abs(total))
    return 1.0 if size == total else math.inf if total == 0.0 else float(size / total)


@given(update_cases())
def test_modified_updates_match_three_term_reference(case):
    # one formula, the same matrices to rounding: where neither side trips a guard, J and J^-1 agree
    # to 1e-12 (1 + ||.||_inf) of the reference, times the cancellation in the sums either form
    # takes (the three terms of r, q^T q + t, 1 + q^T Jinv r, q^T z + t and z - q), and the
    # forward update trips the same guard
    J, q, y, U, _ = case
    J_inv, U_new = np.linalg.inv(J), U + q
    new = _formula_updates(J, J_inv, U, U_new, y)
    old = _three_term_modified(J, J_inv, U, U_new, y)
    if isinstance(old["modified"], str) or isinstance(new["modified"], str):
        assert new["modified"] == old["modified"]
        return
    q = U_new - U
    s, t, JU, z = q @ q, q @ U, J @ U, J_inv @ y
    r, w = (y - J @ q) / (s + t), J @ q - JU - y
    forward = _cancellation(r, JU / (s + t), w / s, w * t / ((s + t) * s)) * _cancellation(s + t, s, t)
    x = q @ J_inv @ r
    inverse = forward * _cancellation(1 + x, 1, x) * _cancellation(q @ z + t, q @ z, t) * _cancellation(z - q, z, q)
    for name, kappa in (("modified", forward), ("modified_inverse", inverse)):
        got, want = new[name], old[name]
        if not isinstance(got, str) and not isinstance(want, str):
            assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max()) * kappa, name


def _triu_sweep(st, method, omega):
    """The sweep in direct form, as np.fill_diagonal, np.triu and np.diag built it: the reference for _sweep."""
    a, b, U = st.A, -st.s.const, st.U
    perm = _pivot(a, b)
    d = np.diagonal(a).copy()
    np.fill_diagonal(a, 0.0)
    if method == "jacobi":
        return (b - a @ U) / d, perm
    w = 1.0 if method == "gauss_seidel" else omega
    up = np.triu(a, 1)
    rhs = w * (b - up @ U) + (1.0 - w) * d * U
    m = (a - up) * w + np.diag(d)
    try:
        return np.linalg.solve(m[::-1, ::-1], rhs[::-1])[::-1], perm
    except np.linalg.LinAlgError:
        raise SingularPivotError(int(np.argmin(np.abs(d)))) from None


def _sweep_outcome(sweep, *args):
    try:
        with np.errstate(all="ignore"):
            return sweep(*args)
    except SingularPivotError as exc:
        return exc.row


def _sweep_matrix(a, method, omega):
    """D + omega L of the row-interchanged a (D alone for Jacobi, omega = 1 for Gauss-Seidel)."""
    w = 0.0 if method == "jacobi" else 1.0 if method == "gauss_seidel" else omega
    return np.diag(np.diagonal(a)) + w * np.tril(a, -1)


@given(systems_and_states(), st.sampled_from(("jacobi", "gauss_seidel", "sor")), omegas, st.data())
def test_sweep_matches_triu_sweep(case, method, omega, data):
    # The correction form U - M^-1 omega f against the direct form M^-1 (omega (b - U_up U) +
    # (1 - omega) D U), M = D + omega L.  Drawn diagonals of A(U) drop to PIVOT_TOL or below, so
    # rows are interchanged, and drawn entries of A(U), U and F become signed zeros.  Both forms
    # interchange the same rows and fail at the same row.  Their results are the same numbers
    # rounded differently: each solve with M is backward stable, so they agree to TOL times
    # ||M^-1||_inf (||F||_inf + ||A||_inf (||U||_inf + ||U_new||_inf)), plus TOL (1 + ||U_new||_inf)
    # for the last subtraction, and are non-finite in the same entries.
    s, U, _ = case
    n = s.n
    A, F = s.at(U).A, s.const.copy()
    rows = st.lists(st.integers(0, n - 1), max_size=n, unique=True)
    signed_zero = st.sampled_from((0.0, -0.0))
    for i in data.draw(rows):
        A[i, i] = data.draw(st.sampled_from((0.0, -0.0, 1e-13)))
    for i, j in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        A[i, j] = -0.0
    for i in data.draw(rows):
        U[i], F[i] = data.draw(signed_zero), data.draw(signed_zero)

    def state():
        return SimpleNamespace(A=A.copy(), s=SimpleNamespace(const=F), U=U)

    want = _sweep_outcome(_triu_sweep, state(), method, omega)
    got = _sweep_outcome(_sweep, state(), A @ U + F, method, omega)
    if isinstance(want, int):
        assert got == want
        return
    assert not isinstance(got, int), got
    (got, perm), (want, want_perm) = got, want
    assert perm == want_perm
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    with np.errstate(all="ignore"):
        try:
            inverse = np.abs(np.linalg.inv(_sweep_matrix(A[perm], method, omega))).sum(axis=1).max()
        except np.linalg.LinAlgError:
            inverse = math.inf
        top = np.abs(want[finite]).max(initial=0.0)
        size = np.abs(F).max() + np.abs(A).sum(axis=1).max() * (np.abs(U).max() + top)
        bound = TOL * (1.0 + top + (inverse * size if size else 0.0))  # a singular M times a zero size is 0
    assert np.all(np.abs(got[finite] - want[finite]) <= bound)


def test_sweep_keeps_the_sign_of_a_zero_result():
    # U_new = U - delta in IEEE arithmetic: f = A U + F = (-1, +0.0) and delta = (-1, +0.0), so
    # U_new[1] = -0.0 - (+0.0) keeps U's -0.0 (the direct form reached the same -0.0 through np.diag's
    # + 0.0 below the diagonal)
    A, F, U = np.array([[1.0, 2.0], [-0.0, 1.0]]), np.array([-1.0, 0.0]), np.array([0.0, -0.0])
    f = A @ U + F
    assert _same_bits(f, [-1.0, 0.0])
    got, perm = _sweep(SimpleNamespace(A=A.copy(), U=U), f, "gauss_seidel", 1.0)
    assert _same_bits(got, [1.0, -0.0]) and perm == [0, 1]


def _reference_read_coefficients(data, field, n, ndim):
    """The entry reader that system._read_coefficients replaced: np.asarray over the table, then np.add.at."""
    entries = data.get(field, [])
    if len(entries) == 0:
        return None
    try:
        table = np.asarray(entries, dtype=float)
    except (TypeError, ValueError):
        table = None
    if table is None or table.shape != (len(entries), ndim + 1):
        bad = next(e for e in entries if not _reference_is_entry(e, ndim + 1))
        raise ValueError(f"field {field!r}: bad entry {bad!r}")
    index = table[:, :-1]
    outside = ~np.all((index > -1) & (index < n), axis=1)
    if outside.any():
        raise ValueError(f"field {field!r}: index out of range in {entries[int(np.argmax(outside))]!r}")
    check_dense((n,) * ndim, f"field {field!r}")
    out = np.zeros((n,) * ndim)
    np.add.at(out, tuple(index.astype(np.intp).T), table[:, -1])
    return out


def _reference_is_entry(entry, width):
    try:
        return np.asarray(entry, dtype=float).shape == (width,)
    except (TypeError, ValueError):
        return False


def _read_outcome(read, *args):
    try:
        return read(*args)
    except Exception as exc:  # TypeError and OverflowError included: the type and the text must repeat
        return f"{type(exc).__name__}: {exc}"


def _index_items(n, out_of_range):
    # ints, floats that truncate into range, bools and numeric strings; out of range ones when asked
    inside = st.one_of(st.integers(0, n - 1), st.sampled_from([-0.5, 0.5, n - 0.5, True, False, "0", " 0 ", "-0.5"]))
    outside = st.sampled_from([-1, n, -1.0, float(n), 2.9 if n < 3 else n + 0.5, "nan", "1e400", 2**63])
    return st.one_of(inside, outside) if out_of_range else inside


VALUE_ITEMS = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, 1, -2, True, False, "1", "2.5", "inf", "-0", "nan", "1e400", "1_0"]),
)
JUNK_ITEMS = st.sampled_from([None, "x", "", "0x1", [], [1.0], {}, {"a": 1}])
JUNK_ENTRIES = st.sampled_from([None, "x", "1234", "12345", 3, 2.5, True, {}, {"a": 1}, [], [[0, 0, 0, 0, 1.0]]])
JUNK_FIELDS = st.sampled_from(["", "abcd", [], {}, {"abcd": 1}])


@st.composite
def entry_tables(draw):
    """(field, n, ndim, entries): entries drawn from a pool, so repeats are common, with up to two bad ones put in.

    A bad entry is short, long, nested (one item wrapped in a list), holds a null or another junk item, or
    is junk itself.  A third of the tables may hold indices out of range; one in ten fields is junk.
    """
    n, (field, ndim) = draw(st.integers(1, 3)), draw(st.sampled_from([("quadratic", 3), ("cubic", 4)]))
    width = ndim + 1
    good = st.tuples(*[_index_items(n, draw(st.integers(0, 2)) == 0)] * ndim, VALUE_ITEMS).map(list)
    at = st.integers(0, width - 1)

    def replaced(item):
        return st.tuples(good, at, item).map(lambda c: [c[2] if k == c[1] else x for k, x in enumerate(c[0])])

    bad = st.one_of(
        good.map(lambda e: e[:-1]),
        good.map(lambda e: e + [0]),
        st.tuples(good, at).map(lambda c: [[x] if k == c[1] else x for k, x in enumerate(c[0])]),
        replaced(st.none()),
        replaced(JUNK_ITEMS),
        JUNK_ENTRIES,
    )
    if draw(st.integers(0, 9)) == 0:
        return field, n, ndim, draw(JUNK_FIELDS)
    pool = draw(st.lists(good, min_size=1, max_size=5))
    entries = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))]
    for k, entry in draw(st.lists(st.tuples(st.integers(0, 10), bad), max_size=2)):
        entries.insert(k, entry)
    return field, n, ndim, entries


@settings(max_examples=200)
@given(entry_tables())
def test_reader_matches_reference_reader(case):
    # the same bits, or the same error and text; the one difference these tables show: a list entry holding a
    # null is a bad entry, so the first entry the reference refuses or that holds a null is the one named
    field, n, ndim, entries = case
    data = {field: entries}
    got = _read_outcome(_read_coefficients, data, field, n, ndim)
    if isinstance(entries, list) and any(type(e) is list and None in e for e in entries):
        first = next(e for e in entries if not _reference_is_entry(e, ndim + 1) or type(e) is list and None in e)
        assert got == f"ValueError: field {field!r}: bad entry {first!r}"
        return
    want = _read_outcome(_reference_read_coefficients, data, field, n, ndim)
    if want is None or isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert _same_bits(got, want)


def test_reader_names_an_entry_past_float_range():
    # A second difference from the reference, as for a null: an integer past float range made the
    # reference raise numpy's OverflowError, which names neither field nor entry; the reader names both.
    data = {"quadratic": [[0, 0, 0, 1.0], [0, 0, 0, 10**400]]}
    want = _read_outcome(_reference_read_coefficients, data, "quadratic", 2, 3)
    assert want == "OverflowError: int too large to convert to float"
    assert _read_outcome(_read_coefficients, data, "quadratic", 2, 3) == f"ValueError: field 'quadratic': bad entry {data['quadratic'][1]!r}"


def test_reader_names_a_bad_entry_before_converting_a_table_of_the_wrong_width():
    # A third difference from the reference: when every entry has the same wrong width, the
    # reference converted the whole table before checking its shape, so an integer past float range
    # raised OverflowError; the reader checks each entry's width first and names the first entry.
    data = {"quadratic": [[0, 0, 0, 0, 1.0], [0, 0, 0, 0, 10**400]]}
    assert _read_outcome(_reference_read_coefficients, data, "quadratic", 2, 3).startswith("OverflowError")
    assert _read_outcome(_read_coefficients, data, "quadratic", 2, 3) == "ValueError: field 'quadratic': bad entry [0, 0, 0, 0, 1.0]"


@given(st.integers(1, 6), st.sampled_from(["random", "sparse", "zeros"]), st.sampled_from(["random", "sparse", "zeros"]),
       st.integers(0, 2**32 - 1))
def test_dense_document_matches_from_kronecker(n, quad_kind, cubic_kind, seed):
    # every coefficient written as an entry once, none -0.0 (an entry sum starts from +0.0): the stored
    # L, quadratic, packed cubic and constant are the bits from_kronecker stores
    rng = np.random.default_rng(seed)

    def coefficients(shape, kind):
        x = rng.standard_normal(shape)
        return np.zeros(shape) if kind == "zeros" else np.where(rng.random(shape) < 0.5, x, 0.0) if kind == "sparse" else x

    K, G, R, F = rng.standard_normal((n, n)), coefficients((n, n * n), quad_kind), coefficients((n, n**3), cubic_kind), rng.standard_normal(n)
    doc = {
        "n": n,
        "L": K.tolist(),
        "quadratic": [[*ijk, v] for ijk, v in zip(np.ndindex(n, n, n), G.ravel().tolist())],
        "cubic": [[*ijkl, v] for ijkl, v in zip(np.ndindex(n, n, n, n), R.ravel().tolist())],
        "F": F.tolist(),
    }
    got, want = load_system_json(json.loads(json.dumps(doc))), from_kronecker(K, G, R, F)
    for name in ("L", "quad", "_packed", "const"):
        g, w = vars(got).get(name), vars(want).get(name)
        assert (g is None) == (w is None), name
        assert g is None or _same_bits(g, w), name


def _reference_trace_csv(tr):
    """SolverTrace.to_csv as it was: one f-string per value."""
    lines = []
    n = len(np.asarray(tr.iterates[0]).ravel()) if tr.iterates else 0
    lines.append("iter," + ",".join(f"U{i}" for i in range(n)) + ",residual")
    for k, (u, r) in enumerate(zip(tr.iterates, tr.residual_norms)):
        row = ",".join(f"{x:.17g}" for x in np.asarray(u).ravel())
        lines.append(f"{k},{row},{r:.17g}")
    return "\n".join(lines) + "\n"


def _reference_trajectory_csv(traj):
    """Trajectory.to_csv as it was: one f-string per value."""
    n = np.asarray(traj.states[0]).size
    lines = ["t," + ",".join(f"U{i}" for i in range(n)) + ",h_bound,negdef"]
    for k, (t, u) in enumerate(zip(traj.times, traj.states)):
        rep = traj.per_step_reports[k] if k < len(traj.per_step_reports) else None
        hb = "" if rep is None or rep.h_bound is None else f"{rep.h_bound:.17g}"
        nd = "" if rep is None or rep.negdef_certificate is None else str(rep.negdef_certificate).lower()
        row = ",".join(f"{x:.17g}" for x in np.asarray(u).ravel())
        lines.append(f"{t:.17g},{row},{hb},{nd}")
    return "\n".join(lines) + "\n"


CSV_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, -1 / 3]
REPORTS = st.sampled_from([
    None,
    StabilityReport(h_bound=np.inf, negdef_certificate=True),
    StabilityReport(h_bound=None, negdef_certificate=False),
    StabilityReport(h_bound=5e-324, negdef_certificate=None),
    StabilityReport(h_bound=0.1, negdef_certificate=True),
])


@given(st.integers(1, 5).flatmap(lambda n: arrays(float, st.tuples(st.integers(0, 4), st.just(n)), elements=st.floats(width=64))),
       st.data())
def test_csv_rows_match_one_f_string_per_value(states, data):
    # the specials in every column, then random floats of any kind; a trajectory has fewer reports than
    # states, so its last rows have none
    n = states.shape[1]
    states = np.vstack([np.resize(np.roll(CSV_SPECIALS, k), n) for k in range(len(CSV_SPECIALS))] + [states])
    scalars = data.draw(st.lists(st.one_of(st.sampled_from(CSV_SPECIALS), st.floats(width=64)), min_size=len(states), max_size=len(states)))
    tr = SolverTrace(iterates=list(states), residual_norms=scalars)
    assert tr.to_csv() == _reference_trace_csv(tr)
    reports = data.draw(st.lists(REPORTS, max_size=len(states)))
    traj = Trajectory(times=scalars, states=list(states), per_step_reports=reports)
    assert traj.to_csv() == _reference_trajectory_csv(traj)


def _report_bits(report):
    """A StabilityReport by the type and exact bits of its bound, and its certificate."""
    h = report.h_bound
    return type(h), None if h is None else float(h).hex(), report.negdef_certificate


def _per_step_reports(ivp, method, traj):
    """The reports integrate made inside its step loop: A(U) at each step's start (its end for implicit Euler)."""
    reports = []
    for V in traj.states[1:] if method == "implicit_euler" else traj.states[:-1]:
        A = ivp.poly.at(V).A
        if method in ("explicit_euler", "rk4"):
            nrm = np.abs(A).sum(axis=1).max()
            c = 2.0 if method == "explicit_euler" else 2.785
            reports.append(StabilityReport(h_bound=math.inf if nrm == 0.0 else c / nrm))
        else:
            reports.append(StabilityReport(negdef_certificate=float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1]) < 0.0))
    return reports


def _check_stacked_reports(ivp, method, h, steps):
    with np.errstate(all="ignore"):
        traj = integrate(ivp, method, h, steps, report=True)
        want = _per_step_reports(ivp, method, traj)
    assert len(traj.per_step_reports) == len(traj.states) - 1
    assert list(map(_report_bits, traj.per_step_reports)) == list(map(_report_bits, want))
    return traj


@st.composite
def report_ivps(draw):
    """(IVP, h): Burgers, n in 4..16, at up to 4 times its step bound, or a random quadratic or cubic PolySystem."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(4, 16))
        sd, U0 = burgers_discretize(n, draw(st.sampled_from([10.0, 100.0]))), burgers_initial_state(n)
        return IVP(sd, U0), draw(st.floats(0.1, 4.0)) * burgers_step_bound(sd, U0)
    n = draw(st.integers(1, 6))
    cubic = rng.standard_normal((n,) * 4) if draw(st.booleans()) else None
    s = PolySystem(rng.standard_normal((n, n)), rng.standard_normal((n, n, n)), cubic, rng.standard_normal(n))
    return IVP(s, draw(st.floats(0.1, 2.0)) * rng.standard_normal(n)), draw(st.floats(1e-3, 0.5))


@given(report_ivps(), st.sampled_from(stability.METHODS), st.integers(0, 30))
def test_stacked_reports_equal_the_per_step_reports(case, method, steps):
    ivp, h = case
    _check_stacked_reports(ivp, method, h, steps)


def _cubic_growth():  # dU/dt = U^3 from U = 1, which blows up at t = 0.5
    cubic = np.zeros((1, 1, 1, 1))
    cubic[0, 0, 0, 0] = 1.0
    return IVP(PolySystem([[0.0]], None, cubic, [0.0]), [1.0])


@pytest.mark.parametrize(
    "method, status", [("explicit_euler", "diverged"), ("rk4", "diverged"), ("implicit_euler", "solver_failed")]
)
def test_stacked_reports_of_a_run_that_stops_early(method, status):
    traj = _check_stacked_reports(_cubic_growth(), method, 0.1, 20)
    assert traj.status == status and traj.failure_step > 0


@pytest.mark.parametrize("method", stability.METHODS)
def test_stacked_reports_of_zero_steps_and_of_several_stacks(method):
    sd, U0 = burgers_discretize(16, 100.0), burgers_initial_state(16)
    assert _check_stacked_reports(IVP(sd, U0), method, 1e-3, 0).per_step_reports == []
    # 2 MiB stacks hold 1024 states of A(U) at n = 16, so 2100 steps take three stacks
    traj = _check_stacked_reports(IVP(sd, U0), method, 0.5 * burgers_step_bound(sd, U0), 2100)
    assert traj.status == "completed" and len(traj.per_step_reports) > 2 * stability._REPORT_STACK_BYTES // (8 * 16**2)


@given(st.integers(1, 50).flatmap(lambda n: arrays(float, n, elements=st.floats(1e7, 1e9) | st.floats(-1e9, -1e7))),
       st.sampled_from([1e7, 1e8, np.nextafter(1e8, np.inf), 1e9]))
def test_diverged_equals_the_exact_test_near_the_limit(U, edge):
    # entries of both signs at scales 1e7..1e9, and one entry on or next to the limit
    assert diverged(U) == (not np.abs(U).max() <= 1e8)
    U[0] = edge
    assert diverged(U) == (not np.abs(U).max() <= 1e8)
