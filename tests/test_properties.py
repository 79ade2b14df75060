"""Property tests: the contraction path against the einsum reference, the JSON
round trip, lowering, and the triangular relaxation sweep against the row loop.

Systems are random, n in 1..6, with the quadratic and the cubic part each
independently zero or nonzero, so the path that skips an all-zero cubic is
covered.  Every comparison of two evaluations allows 1e-12 * (1 + scale), where scale is the same
quantity evaluated with absolute coefficients at |U|, which bounds the size of
the terms whose rounding is compared.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, strategies as st

from polyjac import (
    DiagScale,
    HadamardPower,
    HadamardProduct,
    LinearMap,
    PolySystem,
    State,
    Sum,
    h_eval,
    jacobian_action,
    lower_to_poly,
    sweep_once,
)
from polyjac.system import dump_system_json, load_system_json

from conftest import reference_linear_sweep, reference_values

TOL = 1e-12
METHODS = ("eval", "nonlinear_parts", "jacobian", "linearized_matrix", "euler_residuals")


@st.composite
def systems_and_states(draw):
    n = draw(st.integers(1, 6))
    has_quad, has_cubic = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    quad = rng.standard_normal((n, n, n)) if has_quad else np.zeros((n, n, n))
    cubic = rng.standard_normal((n, n, n, n)) if has_cubic else np.zeros((n, n, n, n))
    raw = SimpleNamespace(L=rng.standard_normal((n, n)), quad=quad, cubic=cubic, const=rng.standard_normal(n))
    return PolySystem(**vars(raw)), rng.standard_normal(n), raw


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


@given(systems_and_states())
def test_residual_matches_unsymmetrized_input(case):
    # Symmetrizing, or skipping an all-zero cubic, must not change f.
    s, U, raw = case
    assert _close(s.eval(U), reference_values(raw, U)["eval"], _abs_reference(s, U)["eval"])


@given(systems_and_states())
def test_linear_form_reproduces_residual(case):
    s, U, _ = case
    scale = _abs_reference(s, U)["eval"]
    assert _close(s.linearized_matrix(U).A @ U + s.const, s.eval(U), scale)


@given(systems_and_states())
def test_json_round_trip(case):
    s, _, _ = case
    s2 = load_system_json(dump_system_json(s))
    assert np.array_equal(s2.L, s.L) and np.array_equal(s2.const, s.const)
    # Symmetrizing again re-averages entries that agree only to rounding (the six
    # cubic permutations are summed in different orders), so each entry may move
    # by a few ulps of the largest coefficient.
    for got, want in ((s2.quad, s.quad), (s2.cubic, s.cubic)):
        assert np.abs(got - want).max() <= 1e-14 * (1.0 + np.abs(want).max())


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


@st.composite
def trees(draw, n, max_degree, depth=3):
    """A polynomial expression tree over R^n of degree <= max_degree, with its degree."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["state"] if depth == 0 else ["state", "linear", "diag", "rect", "sum", "product", "power"]
    kind = draw(st.sampled_from(kinds))
    if kind == "state":
        return State(), 1
    if kind in ("linear", "diag", "rect"):
        child, deg = draw(trees(n, max_degree, depth - 1))
        if kind == "rect":
            # B (n x m) @ (A (m x n) @ child): lowering passes through m rows
            m = draw(st.integers(1, 6))
            return LinearMap(rng.standard_normal((n, m)), LinearMap(rng.standard_normal((m, n)), child)), deg
        if kind == "linear":
            return LinearMap(rng.standard_normal((n, n)), child), deg
        return DiagScale(rng.standard_normal(n), child), deg
    if kind == "sum":
        parts = draw(st.lists(trees(n, max_degree, depth - 1), min_size=1, max_size=3))
        weights = tuple(rng.standard_normal(len(parts)))
        return Sum(children=tuple(t for t, _ in parts), weights=weights), max(d for _, d in parts)
    if kind == "product":
        left, d1 = draw(trees(n, max_degree - 1, depth - 1)) if max_degree > 1 else (State(), 1)
        if d1 >= max_degree:
            return left, d1
        right, d2 = draw(trees(n, max_degree - d1, depth - 1))
        return HadamardProduct(left, right), d1 + d2
    child, deg = draw(trees(n, max_degree, depth - 1))
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
