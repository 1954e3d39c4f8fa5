"""The shared constrained-cluster core against the two per-geometry copies it replaced.

The `_ref_*` functions below are the triangle and tetrahedron KKT functions
as they stood before the merge into `cluster.py`, kept verbatim (only
renamed) as references, the constraint functions (value, gradient,
Hessian, one function each) as they stood before the one-pass constraint
kernels replaced them, and the two shape namers (pairwise tests and
edge-pattern tables) as they stood before the family tables replaced them.
Every array and label must match, so that the exported diagrams stay
byte-identical.
"""

import math
from functools import partial
from itertools import permutations

import numpy as np
import pytest

from cluster_bifurc import cluster
from cluster_bifurc.cluster import BoundaryRoot, Classification, ClusterProblem, scan_boundary_roots
from cluster_bifurc.linalg import householder_complement, sym_eigen
from cluster_bifurc.potentials import (
    Buckingham,
    LennardJones,
    NormalizedBuckingham,
    PolynomialSpring,
    derivatives,
)
from cluster_bifurc.symmetry import stabilizer
from cluster_bifurc.tetrahedron import (
    TETRAHEDRON,
    cayley_menger,
    classify_point4,
    jacobian4,
    residual4,
    stability_boundaries4,
)
from cluster_bifurc.triangle import (
    TRIANGLE,
    classify_point3,
    heron,
    jacobian3,
    residual3,
    stability_boundaries3,
)

SPECS = [
    LennardJones(1, 2, 12, 6),
    LennardJones(1.3, 0.7, 9.5, 4.2),
    Buckingham(1, 1, 1, 4),
    NormalizedBuckingham(1.0, 1.0, 14.3863, 5.6518),
    PolynomialSpring(1, -0.1),
]


# ---------------------------------------------------------------------------
# references: the constraint functions before the one-pass kernels


def _ref_heron(a: float, b: float, c: float) -> float:
    """Squared triangle area in Kahan's sorted product form (the expanded
    quartic cancels on needles); positive exactly for nondegenerate triangles."""
    if min(a, b, c) <= 0:
        raise ValueError("edge lengths must be positive")
    x, y, z = sorted((a, b, c), reverse=True)
    return (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z)) / 16.0


def _ref_grad_heron(a: float, b: float, c: float) -> np.ndarray:
    return np.array([
        a * (b * b + c * c - a * a),
        b * (a * a + c * c - b * b),
        c * (a * a + b * b - c * c),
    ]) / 4.0


def _ref_hess_heron(a: float, b: float, c: float) -> np.ndarray:
    return np.array([
        [b * b + c * c - 3 * a * a, 2 * a * b, 2 * a * c],
        [2 * a * b, a * a + c * c - 3 * b * b, 2 * b * c],
        [2 * a * c, 2 * b * c, a * a + b * b - 3 * c * c],
    ]) / 4.0


# Edge i is opposite edge _OPPOSITE[i]; each face is a triple of edges.
_OPPOSITE = (3, 4, 5, 0, 1, 2)
_FACES = ((0, 1, 5), (0, 2, 4), (1, 2, 3), (3, 4, 5))
_THIRD = {(i, j): k for face in _FACES for i, j, k in permutations(face)}


def _ref_edges(edges) -> list[float]:
    e = np.asarray(edges, dtype=float)
    if e.shape != (6,):
        raise ValueError("expected 6 edge lengths")
    return e.tolist()


def _ref_cayley_menger(edges) -> float:
    """The 5x5 determinant above as the cubic in squared edges; 288 V^2 for a realizable tetrahedron."""
    u = [v * v for v in _ref_edges(edges)]
    s = sum(u)
    pairs = sum(u[i] * u[i + 3] * (s - 2.0 * u[i] - 2.0 * u[i + 3]) for i in range(3))
    return 2.0 * (pairs - sum(u[i] * u[j] * u[k] for i, j, k in _FACES))


def _ref_is_tetrahedron(edges) -> bool:
    """True iff the edges realize a nondegenerate tetrahedron."""
    e = _ref_edges(edges)
    if min(e) <= 0:
        raise ValueError("edge lengths must be positive")
    A, B, C = e[3], e[4], e[5]
    if not (A < B + C and B < A + C and C < A + B):
        return False
    return _ref_cayley_menger(e) > 0.0


def _ref_half_grad_u(u: list[float]) -> list[float]:
    """Half the gradient of the cubic in the squared edges u."""
    a2, b2, c2, A2, B2, C2 = u
    return [
        A2 * (b2 + c2 + B2 + C2 - 2 * a2 - A2) + (b2 - c2) * (B2 - C2),
        B2 * (a2 + c2 + A2 + C2 - 2 * b2 - B2) + (a2 - c2) * (A2 - C2),
        C2 * (a2 + b2 + A2 + B2 - 2 * c2 - C2) + (a2 - b2) * (A2 - B2),
        a2 * (b2 + c2 + B2 + C2 - 2 * A2 - a2) - (b2 - C2) * (c2 - B2),
        b2 * (a2 + c2 + A2 + C2 - 2 * B2 - b2) - (a2 - C2) * (c2 - A2),
        c2 * (a2 + b2 + A2 + B2 - 2 * C2 - c2) - (a2 - B2) * (b2 - A2),
    ]


def _ref_grad_g4(edges) -> np.ndarray:
    """Gradient of the Cayley-Menger polynomial, all six components expanded."""
    e = _ref_edges(edges)
    return 4.0 * np.array([v * q for v, q in zip(e, _ref_half_grad_u([v * v for v in e]))])


def _ref_hess_g4(edges) -> np.ndarray:
    """Hessian of the Cayley-Menger polynomial g = G(u), hand-differentiated.

    H_ij = 4 e_i e_j G_ij + 2 delta_ij G_i, where G_ii = -4 u_I, G_iI = 2 (S -
    3 u_i - 3 u_I) for the edge I opposite i, and G_ij = 2 (u_I + u_J - u_k)
    for two edges of a face with third edge k; exactly symmetric.
    """
    e = _ref_edges(edges)
    u = [v * v for v in e]
    s = sum(u)
    H = [[0.0] * 6 for _ in range(6)]
    for i, gi in enumerate(_ref_half_grad_u(u)):
        I = _OPPOSITE[i]
        H[i][i] = -16.0 * u[i] * u[I] + 4.0 * gi
        for j in range(i + 1, 6):
            if j == I:
                gij = 2.0 * (s - 3.0 * (u[i] + u[I]))
            else:
                gij = 2.0 * (u[I] + u[_OPPOSITE[j]] - u[_THIRD[i, j]])
            H[i][j] = H[j][i] = 4.0 * e[i] * e[j] * gij
    return np.array(H)


# ---------------------------------------------------------------------------
# references: the pre-merge triangle functions


def _ref_shape3(a, b, c, tol=1e-6):
    def eq(x, y):
        return abs(x - y) <= tol * max(abs(x), abs(y))

    ab, ac, bc = eq(a, b), eq(a, c), eq(b, c)
    if ab and ac and bc:
        return "equilateral"
    if ab:
        return "isosceles(a=b)"
    if ac:
        return "isosceles(a=c)"
    if bc:
        return "isosceles(b=c)"
    return "scalene"


# Edge-index patterns of the named tetrahedron families, one entry per group
# image; each pattern is a tuple of index blocks that must be internally equal.
_REF_REGULAR = (frozenset(range(6)),)
_REF_EQUAL_PAIR_PATTERNS = [
    (frozenset({0, 3}), frozenset({1, 2, 4, 5})),
    (frozenset({1, 4}), frozenset({0, 2, 3, 5})),
    (frozenset({2, 5}), frozenset({0, 1, 3, 4})),
]
_REF_APEX_PATTERNS = [
    (frozenset({0, 1, 2}), frozenset({3, 4, 5})),
    (frozenset({0, 4, 5}), frozenset({1, 2, 3})),
    (frozenset({1, 3, 5}), frozenset({0, 2, 4})),
    (frozenset({2, 3, 4}), frozenset({0, 1, 5})),
]
_REF_OPPOSITE_PAIR_PATTERNS = [
    (frozenset({0, 1, 3, 4}),),
    (frozenset({0, 2, 3, 5}),),
    (frozenset({1, 2, 4, 5}),),
]


def _ref_blocks_equal(e, pattern, tol):
    for block in pattern:
        vals = [e[i] for i in block]
        hi, lo = max(vals), min(vals)
        if hi - lo > tol * hi:
            return False
    return True


def _ref_shape4(edges, tol=1e-6):
    e = np.asarray(edges, dtype=float).tolist()
    if _ref_blocks_equal(e, _REF_REGULAR, tol):
        return "regular"
    for pattern in _REF_EQUAL_PAIR_PATTERNS:
        if _ref_blocks_equal(e, pattern, tol):
            return "equal-pair"
    for pattern in _REF_APEX_PATTERNS:
        if _ref_blocks_equal(e, pattern, tol):
            return "apex-base"
    for pattern in _REF_OPPOSITE_PAIR_PATTERNS:
        if _ref_blocks_equal(e, pattern, tol):
            return "opposite-pair"
    return "other"


def _ref_residual3(spec, x, area):
    x = np.asarray(x, dtype=float)
    lam, a, b, c = x
    if min(a, b, c) <= 0:
        raise ValueError("edge lengths must be positive")
    g = _ref_grad_heron(a, b, c)
    r = np.empty(4)
    r[0] = _ref_heron(a, b, c) - area * area
    for i, e in enumerate((a, b, c)):
        r[1 + i] = derivatives(spec, e)[1] + lam * g[i]
    return r


def _ref_jacobian3(spec, x):
    x = np.asarray(x, dtype=float)
    lam, a, b, c = x
    if min(a, b, c) <= 0:
        raise ValueError("edge lengths must be positive")
    g = _ref_grad_heron(a, b, c)
    H = np.diag([derivatives(spec, e)[2] for e in (a, b, c)]) + lam * _ref_hess_heron(a, b, c)
    J = np.zeros((4, 4))
    J[0, 1:] = g
    J[1:, 0] = g
    J[1:, 1:] = H
    return J


def _ref_classify_point3(spec, x, area):
    x = np.asarray(x, dtype=float)
    lam, a, b, c = x
    g = _ref_grad_heron(a, b, c)
    basis = householder_complement(g)
    H = np.diag([derivatives(spec, e)[2] for e in (a, b, c)]) + lam * _ref_hess_heron(a, b, c)
    M = basis.T @ H @ basis
    M = 0.5 * (M + M.T)
    w, _ = sym_eigen(M)
    tol = 1e-8 * float(max(np.max(np.abs(M)), np.max(np.abs(H))))
    if np.all(w > tol):
        stability = "stable"
    elif np.any(np.abs(w) <= tol):
        stability = "marginal"
    else:
        stability = "unstable"
    return Classification(stability, _ref_shape3(a, b, c), tuple(float(v) for v in w))


def _ref_mu3(spec, area):
    a = 2.0 * math.sqrt(area) / 3.0 ** 0.25
    _, d1, d2 = derivatives(spec, a)
    return d2 + 3.0 * d1 / a


def _ref_stability_boundaries3(spec, interval, grid_n=2000):
    lo, hi = interval
    return scan_boundary_roots(lambda A: _ref_mu3(spec, A), lo, hi, grid_n,
                               margin_coefficient=3, kernel_dim=2)


def _ref_trivial_state3(spec, area):
    a = 2.0 * math.sqrt(area) / 3.0 ** 0.25
    lam = -4.0 * derivatives(spec, a)[1] / a ** 3
    return np.array([lam, a, a, a])


# ---------------------------------------------------------------------------
# references: the pre-merge tetrahedron functions


def _ref_residual4(spec, x, volume):
    x = np.asarray(x, dtype=float)
    lam, e = x[0], x[1:]
    if min(e) <= 0:
        raise ValueError("edge lengths must be positive")
    r = np.empty(7)
    r[0] = _ref_cayley_menger(e) - 288.0 * volume * volume
    r[1:] = np.array([derivatives(spec, float(v))[1] for v in e]) + lam * _ref_grad_g4(e)
    return r


def _ref_jacobian4(spec, x):
    x = np.asarray(x, dtype=float)
    lam, e = x[0], x[1:]
    if min(e) <= 0:
        raise ValueError("edge lengths must be positive")
    g = _ref_grad_g4(e)
    H = np.diag([derivatives(spec, float(v))[2] for v in e]) + lam * _ref_hess_g4(e)
    J = np.zeros((7, 7))
    J[0, 1:] = g
    J[1:, 0] = g
    J[1:, 1:] = H
    return J


def _ref_classify_point4(spec, x, volume):
    x = np.asarray(x, dtype=float)
    lam, e = x[0], x[1:]
    g = _ref_grad_g4(e)
    basis = householder_complement(g)
    H = np.diag([derivatives(spec, float(v))[2] for v in e]) + lam * _ref_hess_g4(e)
    M = basis.T @ H @ basis
    M = 0.5 * (M + M.T)
    w, _ = sym_eigen(M)
    tol = 1e-8 * float(max(np.max(np.abs(M)), np.max(np.abs(H))))
    if np.all(w > tol):
        stability = "stable"
    elif np.any(np.abs(w) <= tol):
        stability = "marginal"
    else:
        stability = "unstable"
    return Classification(stability, _ref_shape4(e), tuple(float(v) for v in w))


def _ref_mu_tetra(spec, volume):
    a = (6.0 * math.sqrt(2.0) * volume) ** (1.0 / 3.0)
    _, d1, d2 = derivatives(spec, a)
    return d2 + 3.0 * d1 / a, d2 + 7.0 * d1 / a


def _ref_stability_boundaries4(spec, interval, grid_n=2000):
    lo, hi = interval
    roots = scan_boundary_roots(lambda V: _ref_mu_tetra(spec, V)[0], lo, hi, grid_n,
                                margin_coefficient=3, kernel_dim=3)
    roots += scan_boundary_roots(lambda V: _ref_mu_tetra(spec, V)[1], lo, hi, grid_n,
                                 margin_coefficient=7, kernel_dim=2)
    return sorted(roots, key=lambda r: r.parameter)


def _ref_trivial_state4(spec, volume):
    a = (6.0 * math.sqrt(2.0) * volume) ** (1.0 / 3.0)
    lam = -derivatives(spec, a)[1] / (4.0 * a ** 5)
    return np.array((lam,) + (a,) * 6)


# ---------------------------------------------------------------------------

CASES = {
    "triangle": dict(
        residual=(residual3, _ref_residual3),
        jacobian=(jacobian3, _ref_jacobian3),
        classify=(classify_point3, _ref_classify_point3),
        boundaries=(stability_boundaries3, _ref_stability_boundaries3),
        trivial=_ref_trivial_state3,
        problem=partial(ClusterProblem, TRIANGLE),
        n_edges=3,
        params=(0.2, 2.0),
        windows=[(0.1, 10.0), (0.1, 1000.0)],
        feasible=lambda x: bool(np.all(x[1:] > 0)) and _ref_heron(x[1], x[2], x[3]) > 0.0,
        dp=lambda x, p: np.array([-2.0 * p, 0.0, 0.0, 0.0]),
    ),
    "tetrahedron": dict(
        residual=(residual4, _ref_residual4),
        jacobian=(jacobian4, _ref_jacobian4),
        classify=(classify_point4, _ref_classify_point4),
        boundaries=(stability_boundaries4, _ref_stability_boundaries4),
        trivial=_ref_trivial_state4,
        problem=partial(ClusterProblem, TETRAHEDRON),
        n_edges=6,
        params=(0.05, 0.5),
        windows=[(0.05, 5.0), (0.1, 1000.0)],
        feasible=lambda x: bool(np.all(x[1:] > 0)) and _ref_is_tetrahedron(x[1:]),
        dp=lambda x, p: np.concatenate([[-576.0 * p], np.zeros(6)]),
    ),
}


def _states(rng, n_edges, count):
    """Random KKT states: general edges, plus some with a repeated edge so that
    the shape namers see their symmetric families too."""
    for i in range(count):
        e = 1.0 + 0.45 * rng.uniform(-1.0, 1.0, n_edges)
        if i % 4 == 0:
            e[1] = e[0]
        if i % 8 == 0:
            e[:] = e[0]
        yield np.concatenate([[rng.uniform(-3.0, 3.0)], e])


def _identical(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_core_is_bit_identical_to_the_per_geometry_copies(name):
    case = CASES[name]
    rng = np.random.default_rng(7 if name == "triangle" else 11)
    new_res, ref_res = case["residual"]
    new_jac, ref_jac = case["jacobian"]
    new_cls, ref_cls = case["classify"]
    compared = 0
    for spec in SPECS:
        problem = case["problem"](spec)
        for x in _states(rng, case["n_edges"], 120):
            p = float(rng.uniform(*case["params"]))
            assert _identical(new_res(spec, x, p), ref_res(spec, x, p))
            assert _identical(new_jac(spec, x), ref_jac(spec, x))
            F, J = problem.evaluate(x, p)
            assert _identical(F, ref_res(spec, x, p)) and _identical(J, ref_jac(spec, x))
            got, want = new_cls(spec, x, p), ref_cls(spec, x, p)
            assert got == want
            assert _identical(got.tangent_eigenvalues, want.tangent_eigenvalues)
            assert problem.feasible(x) == case["feasible"](x)
            assert _identical(problem.parameter_derivative(x, p), case["dp"](x, p))
            assert _identical(problem.trivial_state(p), case["trivial"](spec, p))
            compared += 1
    assert compared == len(SPECS) * 120


@pytest.mark.parametrize("name", sorted(CASES))
def test_stability_boundaries_match_the_per_geometry_copies(monkeypatch, name):
    case = CASES[name]
    new, ref = case["boundaries"]
    monkeypatch.setattr(cluster, "SCAN_POINTS", 400)  # a coarser grid than the scan's keeps this quick
    found = 0
    for spec in SPECS:
        for window in case["windows"]:
            got, want = new(spec, window), ref(spec, window, 400)
            assert got == want
            assert all(isinstance(r, BoundaryRoot) for r in got)
            found += len(got)
    assert found > 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_scan_calls_margin_only_to_refine_its_brackets(monkeypatch, name):
    # the grid's margins come from one array pass; `margin` is called at
    # Python floats only by each bracket's bisection and its slope's two probes
    case = CASES[name]
    calls, real = [], cluster.margin

    def counting(geometry, spec, p, k):
        calls.append(p)
        return real(geometry, spec, p, k)

    monkeypatch.setattr(cluster, "margin", counting)
    found = 0
    for spec in SPECS:
        for window in case["windows"]:
            calls.clear()
            roots = case["boundaries"][0](spec, window)
            grid = set(np.geomspace(*window, cluster.SCAN_POINTS).tolist())
            assert not grid & set(calls) and all(type(p) is float for p in calls)
            assert len(calls) <= 60 * len(roots)
            for r in roots:
                step = 1e-6 * r.parameter
                assert {r.parameter + step, r.parameter - step} <= set(calls)
            found += len(roots)
    assert found > 0


@pytest.mark.parametrize("at", [0, 5, 10])
def test_scan_counts_an_exact_zero_on_any_grid_point_once(at):
    # both ends of the grid included: p - 2.0 vanishes exactly on the top point
    zero = float(np.geomspace(1.0, 2.0, 11)[at])
    roots = scan_boundary_roots(lambda p: p - zero, 1.0, 2.0, 11, 3, 2)
    assert [(r.parameter, r.margin_coefficient, r.kernel_dim) for r in roots] == [(zero, 3, 2)]
    assert roots[0].transversal and roots[0].slope == pytest.approx(1.0)



@pytest.mark.parametrize("name", sorted(CASES))
def test_bordered_inertia_is_tangent_inertia_plus_one(name):
    """In(J) = In(Z^t H Z) + (1, 1, 0) wherever grad g != 0 (Gould 1985).

    The tracer's event monitor is the negative count of Z^t H Z; this is why
    it changes exactly where an eigenvalue of J crosses zero.  Checked on
    random non-degenerate states, and on the trivial states at the
    Lennard-Jones margin zeros, where both matrices have a multiple zero.
    """
    case = CASES[name]
    rng = np.random.default_rng(13)
    spec = SPECS[0]
    problem = case["problem"](spec)

    def spectra(x):
        J = problem.evaluate(x, 0.0)[1]
        return sym_eigen(J)[0], np.array(problem.classify_stack([x], [J])[0].tangent_eigenvalues), J

    checked = 0
    for x in _states(rng, case["n_edges"], 200):
        w_J, w_T, J = spectra(x)
        if min(np.min(np.abs(w_J)), np.min(np.abs(w_T))) < 1e-10 * np.max(np.abs(J)):
            continue  # the sign of a round-off sized eigenvalue means nothing
        assert np.sum(w_J < 0) == np.sum(w_T < 0) + 1
        assert np.sum(w_J > 0) == np.sum(w_T > 0) + 1
        checked += 1
    assert checked >= 180

    roots = case["boundaries"][0](spec, case["windows"][0])
    assert roots
    for root in roots:
        w_J, w_T, J = spectra(case["trivial"](spec, root.parameter))
        tol = 1e-8 * np.max(np.abs(J[1:, 1:]))
        assert np.sum(np.abs(w_J) <= tol) == np.sum(np.abs(w_T) <= tol) == root.kernel_dim
        assert np.sum(w_J < -tol) == np.sum(w_T < -tol) + 1
        assert np.sum(w_J > tol) == np.sum(w_T > tol) + 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_classification_is_bit_identical_to_the_per_point_one(name):
    case = CASES[name]
    rng = np.random.default_rng(17)
    for spec in SPECS:
        problem = case["problem"](spec)
        states = np.array(list(_states(rng, case["n_edges"], 60)))
        params = rng.uniform(*case["params"], len(states))
        jacobians = np.array([problem.evaluate(x, p)[1] for x, p in zip(states, params)])
        got = problem.classify_stack(states, jacobians)
        want = [case["classify"][1](spec, x, p) for x, p in zip(states, params)]
        assert got == want
        assert all(_identical(a.tangent_eigenvalues, b.tangent_eigenvalues) for a, b in zip(got, want))
        assert problem.classify_stack(states[:1], jacobians[:1]) == want[:1]
        assert problem.classify_stack(states[:0], jacobians[:0]) == []


# ---------------------------------------------------------------------------
# the one-pass constraint kernels and `evaluate` against the per-function forms

REF_CONSTRAINTS = {
    "triangle": (TRIANGLE, lambda e: _ref_heron(*e), lambda e: _ref_grad_heron(*e),
                 lambda e: _ref_hess_heron(*e)),
    "tetrahedron": (TETRAHEDRON, _ref_cayley_menger, _ref_grad_g4, _ref_hess_g4),
}


def _ref_evaluate(name, spec, state, param):
    """`cluster.evaluate` as it stood before the constraint kernels, on the reference functions."""
    geometry, constraint, grad, hess = REF_CONSTRAINTS[name]
    lam, *e = np.asarray(state, dtype=float).tolist()
    d = [derivatives(spec, v) for v in e]
    g = grad(e)
    n = len(e) + 1
    F = np.empty(n)
    F[0] = constraint(e) - geometry.target_scale * param * param
    F[1:] = [di[1] for di in d]
    F[1:] += lam * g
    J = np.zeros((n, n))
    J[0, 1:] = J[1:, 0] = g
    J[1:, 1:] = np.diag([di[2] for di in d]) + lam * hess(e)
    return F, J


@pytest.mark.parametrize("name", sorted(CASES))
def test_constraint_kernel_is_bit_identical_to_the_per_function_forms(name):
    geometry, constraint, grad, hess = REF_CONSTRAINTS[name]
    rng = np.random.default_rng(19)
    view = {"triangle": lambda e: heron(*e), "tetrahedron": cayley_menger}[name]
    for x in _states(rng, geometry.n_edges, 200):
        e = x[1:].tolist()
        g, g_grad, g_hess = geometry.terms(e)
        assert isinstance(g, float) and _identical(g, constraint(e))
        assert _identical(np.array(g_grad), grad(e)) and _identical(np.array(g_hess), hess(e))
        assert _identical(view(e), constraint(e))


@pytest.mark.parametrize("name", sorted(CASES))
def test_evaluate_is_bit_identical_to_the_pre_kernel_assembly(name):
    case = CASES[name]
    rng = np.random.default_rng(23)
    for spec in SPECS:
        problem = case["problem"](spec)
        for i, x in enumerate(_states(rng, case["n_edges"], 80)):
            if i % 3 == 0:
                x[0] = -0.0 if i % 2 else 0.0  # the multiplier's zero, both signs
            p = float(rng.uniform(*case["params"]))
            (F, J), (ref_F, ref_J) = problem.evaluate(x, p), _ref_evaluate(name, spec, x, p)
            assert _identical(F, ref_F) and _identical(J, ref_J)
            assert np.array_equal(np.signbit(F), np.signbit(ref_F))
            assert np.array_equal(np.signbit(J), np.signbit(ref_J))
    # the regular tetrahedron's Hessian is 0.0 between opposite edges, so a
    # negative multiplier makes lam * h = -0.0 there; the entry must be +0.0
    if name == "tetrahedron":
        x = np.array([-1.0] + [1.0] * 6)
        J = ClusterProblem(TETRAHEDRON, SPECS[0]).evaluate(x, 0.3)[1]
        assert J[1, 4] == 0.0 and not np.signbit(J[1, 4])
        assert _identical(J, _ref_evaluate(name, SPECS[0], x, 0.3)[1])


# ---------------------------------------------------------------------------
# the family tables against the shape namers they replaced

REF_SHAPES = {"triangle": (TRIANGLE, lambda e: _ref_shape3(*e)), "tetrahedron": (TETRAHEDRON, _ref_shape4)}


def _near_families(rng, geometry, count):
    """States near the whole group's, each family's and their group images'
    fixed spaces: one random edge per level set of the representative
    vector (the zero vector's for the whole group), moved by a group
    element, each edge then scaled by 1 + d, |d| below or above 1e-6."""
    table = geometry.families
    n = geometry.n_edges
    for v in [(0.0,) * (n + 1)] + list(table.families.values()):
        for P in table.group():
            for _ in range(count):
                levels = {c: rng.uniform(0.6, 1.6) for c in set(v[1:])}
                x = P.apply([rng.uniform(-3.0, 3.0)] + [levels[c] for c in v[1:]])
                d = rng.choice([0.0, 0.3e-6, 0.45e-6, 0.8e-6, 2e-6], n) * rng.choice([-1.0, 1.0], n)
                x[1:] *= 1.0 + d
                yield x


@pytest.mark.parametrize("name", sorted(REF_SHAPES))
def test_family_table_names_every_state_as_the_pattern_namers_did(name):
    geometry, ref = REF_SHAPES[name]
    states = np.array(list(_near_families(np.random.default_rng(29), geometry, 12)))
    want = [ref(x[1:]) for x in states]
    assert geometry.families.shapes(states) == want
    assert [geometry.families.shapes(x)[0] for x in states[::7]] == want[::7]
    # both sides of the tolerance occur: every label is reached, "other" too
    table = geometry.families
    names = {table.whole, table.other} | set(table.families)
    assert {label.split("(")[0] for label in want} == names


def _no_subgroup(group, mask):
    members = group.members(mask)
    return any(p @ q not in members for p in members for q in members)


@pytest.mark.parametrize("name, state, label", [
    # a = b and b = c within 1e-6 relative, but not a = c
    ("triangle", (-1.0, 1.0, 1.0 + 0.8e-6, 1.0 + 1.6e-6), "isosceles(a=b)"),
    # a = b = A, c = B, each within 1e-6 of those, and C within 1e-6 of c = B only
    ("tetrahedron", (-1.0, 1.0, 1.0, 1.0 + 0.8e-6, 1.0, 1.0 + 0.8e-6, 1.0 + 1.6e-6), "equal-pair"),
])
def test_a_stabilizer_that_is_no_subgroup_keeps_the_pattern_namers_label(name, state, label):
    geometry, ref = REF_SHAPES[name]
    group = geometry.families.group()
    assert _no_subgroup(group, int(stabilizer(group, state)[0]))
    assert geometry.families.shapes(state) == [ref(state[1:])] == [label]
