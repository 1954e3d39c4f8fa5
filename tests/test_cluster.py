"""The shared constrained-cluster core against the two per-geometry copies it replaced.

The `_ref_*` functions below are the triangle and tetrahedron KKT functions
as they stood before the merge into `cluster.py`, kept verbatim (only
renamed) as references.  Every array must match bit for bit, so that the
exported diagrams stay byte-identical.
"""

import math

import numpy as np
import pytest

from cluster_bifurc.cluster import BoundaryRoot, Classification, scan_boundary_roots
from cluster_bifurc.linalg import householder_complement, sym_eigen
from cluster_bifurc.potentials import (
    Buckingham,
    LennardJones,
    NormalizedBuckingham,
    PolynomialSpring,
    derivatives,
)
from cluster_bifurc.tetrahedron import (
    TetraProblem,
    cayley_menger,
    classify_point4,
    grad_g4,
    hess_g4,
    is_tetrahedron,
    jacobian4,
    residual4,
    shape_of_edges,
    stability_boundaries4,
)
from cluster_bifurc.triangle import (
    TriangleProblem,
    classify_point3,
    grad_heron,
    heron,
    hess_heron,
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


def _ref_residual3(spec, x, area):
    x = np.asarray(x, dtype=float)
    lam, a, b, c = x
    if min(a, b, c) <= 0:
        raise ValueError("edge lengths must be positive")
    g = grad_heron(a, b, c)
    r = np.empty(4)
    r[0] = heron(a, b, c) - area * area
    for i, e in enumerate((a, b, c)):
        r[1 + i] = derivatives(spec, e)[1] + lam * g[i]
    return r


def _ref_jacobian3(spec, x):
    x = np.asarray(x, dtype=float)
    lam, a, b, c = x
    if min(a, b, c) <= 0:
        raise ValueError("edge lengths must be positive")
    g = grad_heron(a, b, c)
    H = np.diag([derivatives(spec, e)[2] for e in (a, b, c)]) + lam * hess_heron(a, b, c)
    J = np.zeros((4, 4))
    J[0, 1:] = g
    J[1:, 0] = g
    J[1:, 1:] = H
    return J


def _ref_classify_point3(spec, x, area):
    x = np.asarray(x, dtype=float)
    lam, a, b, c = x
    g = grad_heron(a, b, c)
    basis = householder_complement(g)
    H = np.diag([derivatives(spec, e)[2] for e in (a, b, c)]) + lam * hess_heron(a, b, c)
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
    r[0] = cayley_menger(e) - 288.0 * volume * volume
    r[1:] = np.array([derivatives(spec, float(v))[1] for v in e]) + lam * grad_g4(e)
    return r


def _ref_jacobian4(spec, x):
    x = np.asarray(x, dtype=float)
    lam, e = x[0], x[1:]
    if min(e) <= 0:
        raise ValueError("edge lengths must be positive")
    g = grad_g4(e)
    H = np.diag([derivatives(spec, float(v))[2] for v in e]) + lam * hess_g4(e)
    J = np.zeros((7, 7))
    J[0, 1:] = g
    J[1:, 0] = g
    J[1:, 1:] = H
    return J


def _ref_classify_point4(spec, x, volume):
    x = np.asarray(x, dtype=float)
    lam, e = x[0], x[1:]
    g = grad_g4(e)
    basis = householder_complement(g)
    H = np.diag([derivatives(spec, float(v))[2] for v in e]) + lam * hess_g4(e)
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
    return Classification(stability, shape_of_edges(e), tuple(float(v) for v in w))


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
        problem=TriangleProblem,
        n_edges=3,
        params=(0.2, 2.0),
        windows=[(0.1, 10.0), (0.1, 1000.0)],
        feasible=lambda x: bool(np.all(x[1:] > 0)) and heron(x[1], x[2], x[3]) > 0.0,
        dp=lambda x, p: np.array([-2.0 * p, 0.0, 0.0, 0.0]),
    ),
    "tetrahedron": dict(
        residual=(residual4, _ref_residual4),
        jacobian=(jacobian4, _ref_jacobian4),
        classify=(classify_point4, _ref_classify_point4),
        boundaries=(stability_boundaries4, _ref_stability_boundaries4),
        trivial=_ref_trivial_state4,
        problem=TetraProblem,
        n_edges=6,
        params=(0.05, 0.5),
        windows=[(0.05, 5.0), (0.1, 1000.0)],
        feasible=lambda x: bool(np.all(x[1:] > 0)) and is_tetrahedron(x[1:]),
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
            assert _identical(problem.residual(x, p), ref_res(spec, x, p))
            assert _identical(problem.jacobian(x, p), ref_jac(spec, x))
            F, J = problem.evaluate(x, p)
            assert _identical(F, ref_res(spec, x, p)) and _identical(J, ref_jac(spec, x))
            got, want = new_cls(spec, x, p), ref_cls(spec, x, p)
            assert got == want
            assert _identical(got.tangent_eigenvalues, want.tangent_eigenvalues)
            from_J = problem.classify(x, p, J)
            assert from_J == want
            assert _identical(from_J.tangent_eigenvalues, want.tangent_eigenvalues)
            assert problem.feasible(x) == case["feasible"](x)
            assert _identical(problem.parameter_derivative(x, p), case["dp"](x, p))
            assert _identical(problem.trivial_state(p), case["trivial"](spec, p))
            compared += 1
    assert compared == len(SPECS) * 120


@pytest.mark.parametrize("name", sorted(CASES))
def test_stability_boundaries_match_the_per_geometry_copies(name):
    case = CASES[name]
    new, ref = case["boundaries"]
    found = 0
    for spec in SPECS:
        for window in case["windows"]:
            got, want = new(spec, window, 400), ref(spec, window, 400)
            assert got == want
            assert all(isinstance(r, BoundaryRoot) for r in got)
            found += len(got)
    assert found > 0



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
        J = problem.jacobian(x, 0.0)
        return sym_eigen(J)[0], np.array(problem.classify(x, 0.0, J).tangent_eigenvalues), J

    checked = 0
    for x in _states(rng, case["n_edges"], 200):
        w_J, w_T, J = spectra(x)
        if min(np.min(np.abs(w_J)), np.min(np.abs(w_T))) < 1e-10 * np.max(np.abs(J)):
            continue  # the sign of a round-off sized eigenvalue means nothing
        assert np.sum(w_J < 0) == np.sum(w_T < 0) + 1
        assert np.sum(w_J > 0) == np.sum(w_T > 0) + 1
        checked += 1
    assert checked >= 180

    roots = case["boundaries"][0](spec, case["windows"][0], 400)
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
