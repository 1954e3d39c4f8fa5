import math

import numpy as np
import pytest

from cluster_bifurc.cluster import ClusterProblem, margin, trivial_point
from cluster_bifurc.linalg import sym_eigen
from cluster_bifurc.potentials import Buckingham, LennardJones, NormalizedBuckingham, PolynomialSpring
from cluster_bifurc.symmetry import tetra_group
from cluster_bifurc.tetrahedron import (
    RESTRICTION_COLUMNS,
    TETRAHEDRON,
    cayley_menger,
    cayley_menger_terms,
    classify_point4,
    is_tetrahedron,
    jacobian4,
    residual4,
    stability_boundaries4,
    trivial_spectrum4,
)

LJ = LennardJones(1, 2, 12, 6)
SOFT = PolynomialSpring(1, -0.1)
REG_VOL = 1.0 / (6.0 * math.sqrt(2.0))  # volume of the unit regular tetrahedron


def regular(spec, volume):
    """The regular state vector (lambda, a, ..., a) at the given volume."""
    return ClusterProblem(TETRAHEDRON, spec).trivial_state(volume)


def grad_hess(e):
    """Gradient and Hessian of the Cayley-Menger polynomial as arrays, from the constraint kernel."""
    _, g, H = cayley_menger_terms(np.asarray(e, dtype=float).tolist())
    return np.array(g), np.array(H)


def embed_volume(edges):
    """Coordinate-embedding oracle: place the base triangle, lift the apex.

    Returns the tetrahedron volume, or None when the edges are not
    realizable (negative squared height or a degenerate base).
    """
    a, b, c, A, B, C = edges
    # base triangle (vertices 1,2,3) has sides A=(2,3), B=(1,3), C=(1,2)
    x2 = (C * C + B * B - A * A) / (2.0 * C) if C > 0 else None
    if x2 is None:
        return None
    y2sq = B * B - x2 * x2
    if y2sq <= 0:
        return None
    y2 = math.sqrt(y2sq)
    p1, p2, p3 = np.zeros(3), np.array([C, 0.0, 0.0]), np.array([x2, y2, 0.0])
    # apex (vertex 4) at distances a, b, c from vertices 1, 2, 3
    x = (a * a - b * b + C * C) / (2.0 * C)
    y = (a * a - c * c + x2 * x2 + y2 * y2 - 2.0 * x * x2) / (2.0 * y2)
    z2 = a * a - x * x - y * y
    if z2 <= 0:
        return None
    apex = np.array([x, y, math.sqrt(z2)])
    v = np.dot(apex - p1, np.cross(p2 - p1, p3 - p1)) / 6.0
    return abs(v)


def test_cayley_menger_regular_values():
    assert cayley_menger(np.ones(6)) == pytest.approx(4.0, abs=1e-12)
    assert cayley_menger(2.0 * np.ones(6)) == pytest.approx(256.0, rel=1e-12)


def test_cayley_menger_matches_embedding():
    rng = np.random.default_rng(31)
    for _ in range(50):
        e = 1.0 + 0.25 * rng.uniform(-1, 1, 6)
        vol = embed_volume(e)
        if vol is None:
            continue
        assert cayley_menger(e) == pytest.approx(288.0 * vol * vol, rel=1e-8)


def test_cayley_menger_cubic_matches_the_determinant():
    # the constraint is the expanded cubic; the 5x5 determinant it expands is built here
    rng = np.random.default_rng(5)
    for _ in range(200):
        e = 1.0 + 0.25 * rng.uniform(-1.0, 1.0, 6)
        a, b, c, A, B, C = e * e
        M = np.array([[0, a, b, c, 1], [a, 0, C, B, 1], [b, C, 0, A, 1], [c, B, A, 0, 1],
                      [1, 1, 1, 1, 0]])
        ref = np.linalg.det(M)
        assert abs(cayley_menger(e) - ref) <= 1e-12 * abs(ref)


def _ref_hess_g4(e):
    """The numpy-array form of the Cayley-Menger Hessian that the constraint kernel replaced."""
    u = e * e
    Gu = np.empty(6)
    Guu = np.zeros((6, 6))
    for i in range(3):
        j, k = [t for t in range(3) if t != i]
        J, K, O = j + 3, k + 3, i + 3
        s = u[j] + u[k] + u[J] + u[K] - 2 * u[i] - u[O]
        Gu[i] = 2.0 * (u[O] * s + (u[j] - u[k]) * (u[J] - u[K]))
        Guu[i, i] = -4.0 * u[O]
        Guu[i, j] = 2.0 * (u[O] + (u[J] - u[K]))
        Guu[i, k] = 2.0 * (u[O] - (u[J] - u[K]))
        Guu[i, O] = 2.0 * (u[j] + u[k] + u[J] + u[K] - 2 * u[i] - 2 * u[O])
        Guu[i, J] = 2.0 * (u[O] + (u[j] - u[k]))
        Guu[i, K] = 2.0 * (u[O] - (u[j] - u[k]))
        s_opp = u[j] + u[k] + u[J] + u[K] - 2 * u[O] - u[i]
        Gu[O] = 2.0 * (u[i] * s_opp - (u[j] - u[K]) * (u[k] - u[J]))
        Guu[O, O] = -4.0 * u[i]
        Guu[O, i] = Guu[i, O]
        Guu[O, j] = 2.0 * (u[i] - (u[k] - u[J]))
        Guu[O, k] = 2.0 * (u[i] - (u[j] - u[K]))
        Guu[O, J] = 2.0 * (u[i] + (u[j] - u[K]))
        Guu[O, K] = 2.0 * (u[i] + (u[k] - u[J]))
    H = 4.0 * np.outer(e, e) * Guu + 2.0 * np.diag(Gu)
    return np.triu(H) + np.triu(H, 1).T


def test_hessian_matches_the_array_form():
    # same polynomial, other evaluation order: agreement to a few ulps of max|H|
    rng = np.random.default_rng(9)
    for _ in range(200):
        e = 1.0 + 0.4 * rng.uniform(-1.0, 1.0, 6)
        H, ref = grad_hess(e)[1], _ref_hess_g4(e)
        assert np.array_equal(H, H.T)
        assert np.max(np.abs(H - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_cayley_menger_unrealizable_is_negative():
    e = np.array([1.0, 1, 1, 1, 1, 2.0])
    assert embed_volume(e) is None
    assert cayley_menger(e) < 0


def test_is_tetrahedron():
    assert is_tetrahedron(np.ones(6))
    assert not is_tetrahedron([1, 1, 1, 1, 1, 2.0])
    assert not is_tetrahedron([1, 1, 1, 1.4, 0.3, 1.0])  # face inequality violated
    with pytest.raises(ValueError):
        is_tetrahedron([1, 1, 1, 1, 1, -1.0])


def test_gradient_at_regular():
    for a in (1.0, 1.7):
        g = grad_hess(a * np.ones(6))[0]
        assert np.allclose(g, 4.0 * a ** 5, rtol=1e-12)


def test_gradient_hessian_match_finite_differences():
    rng = np.random.default_rng(32)
    for _ in range(60):
        e = 1.0 + 0.3 * rng.uniform(-1, 1, 6)
        g, H = grad_hess(e)
        assert np.max(np.abs(H - H.T)) == 0.0  # symmetric by construction
        for i in range(6):
            h = 1e-6 * e[i]
            ep, em = e.copy(), e.copy()
            ep[i] += h
            em[i] -= h
            fd = (cayley_menger(ep) - cayley_menger(em)) / (2 * h)
            assert fd == pytest.approx(g[i], rel=1e-6, abs=1e-7)
            fd_col = (grad_hess(ep)[0] - grad_hess(em)[0]) / (2 * h)
            assert np.max(np.abs(fd_col - H[:, i])) < 1e-6 * max(1.0, np.abs(H[:, i]).max())


def test_cm_invariance_under_group():
    rng = np.random.default_rng(33)
    for _ in range(100):
        e = 1.0 + 0.2 * rng.uniform(-1, 1, 6)
        g0 = cayley_menger(e)
        for P in tetra_group():
            img = P.apply(np.concatenate([[0.0], e]))[1:]
            assert abs(cayley_menger(img) - g0) < 1e-12 * max(1.0, abs(g0))


def test_trivial_state():
    lam, a = trivial_point(TETRAHEDRON, LJ, REG_VOL)
    assert a == pytest.approx(1.0, abs=1e-14)
    assert lam == pytest.approx(0.0, abs=1e-12)
    lam, _ = trivial_point(TETRAHEDRON, PolynomialSpring(1, 0), REG_VOL)
    assert lam == pytest.approx(-0.25, abs=1e-14)
    with pytest.raises(ValueError):
        trivial_point(TETRAHEDRON, LJ, 0.0)


def test_residual_vanishes_on_trivial_branch():
    for spec in (LJ, Buckingham(1, 1, 1, 4), SOFT):
        for V in (0.05, REG_VOL, 2.0):
            r = residual4(spec, regular(spec, V), V)
            assert np.max(np.abs(r)) < 1e-11 * max(1.0, 288.0 * V * V)


def test_trivial_eigenvector_identities():
    # every kernel vector of the margins table is an eigenvector of J, its margin the eigenvalue
    assert all(np.linalg.matrix_rank(np.array(row.kernel)) == len(row.kernel) for row in TETRAHEDRON.margins.values())
    for spec in (LJ, Buckingham(1, 1, 1, 4), NormalizedBuckingham(1, 1, 14.3863, 5.6518), SOFT):
        for V in (0.1, 0.8, 2.0):
            J = jacobian4(spec, regular(spec, V))
            scale = max(1.0, np.abs(J).max())
            for k, row in TETRAHEDRON.margins.items():
                mu = margin(TETRAHEDRON, spec, V, k)
                for v in row.kernel:
                    v = np.asarray(v)
                    assert np.max(np.abs(J @ v - mu * v)) < 1e-12 * scale


def test_jacobian_symmetry():
    rng = np.random.default_rng(34)
    for _ in range(20):
        x = np.concatenate([[rng.uniform(-2, 2)], 1.0 + 0.2 * rng.uniform(-1, 1, 6)])
        J = jacobian4(LJ, x)
        assert np.max(np.abs(J - J.T)) < 1e-14 * max(1.0, np.abs(J).max())


def test_mu_values_spring():
    for V in (0.3, 1.0, 20.0):
        m1, m2 = (margin(TETRAHEDRON, PolynomialSpring(1, 0), V, k) for k in (3, 7))
        assert m1 == pytest.approx(4.0, abs=1e-12)
        assert m2 == pytest.approx(8.0, abs=1e-12)


def test_trivial_spectrum_closed_forms():
    rng = np.random.default_rng(35)
    specs = [LJ, Buckingham(1, 1, 1, 4), SOFT, PolynomialSpring(2, 0.4)]
    M = RESTRICTION_COLUMNS
    for _ in range(20):
        spec = specs[rng.integers(0, len(specs))]
        V = float(rng.uniform(0.3, 3.0))
        sp = trivial_spectrum4(spec, V)
        J = jacobian4(spec, regular(spec, V))
        U = M.T @ J[1:, 1:] @ M
        w, _ = sym_eigen(0.5 * (U + U.T))
        scale = max(1.0, np.abs(sp.u_eigs).max())
        assert np.max(np.abs(np.sort(w) - np.asarray(sp.u_eigs))) < 1e-9 * scale
        # product identity of the non-trivial simple pair
        disc = math.sqrt(16 * sp.alpha ** 2 + 9 * (sp.alpha - 2 * sp.beta) ** 2)
        prod = 0.25 * ((7 * sp.alpha - 6 * sp.beta) ** 2 - disc ** 2)
        target = 6.0 * sp.alpha * (sp.alpha - 2.0 * sp.beta)
        assert prod == pytest.approx(target, rel=1e-9, abs=1e-9)


def test_stability_boundaries_scan():
    roots = stability_boundaries4(LJ, (0.05, 5.0))
    assert len(roots) == 1
    assert roots[0].parameter == pytest.approx(math.sqrt(2) / 12 * 2.5 ** 0.5, abs=1e-9)
    assert roots[0].margin_coefficient == 3 and roots[0].kernel_dim == 3

    soft = stability_boundaries4(SOFT, (0.1, 50.0))
    assert [r.margin_coefficient for r in soft] == [3, 7]
    assert soft[0].parameter == pytest.approx(math.sqrt(1.0 / (243 * 0.001)), abs=1e-9)
    assert soft[1].parameter == pytest.approx(math.sqrt(8.0 / (1125 * 0.001)), abs=1e-9)

    assert stability_boundaries4(PolynomialSpring(1, 0), (0.1, 50.0)) == []


def test_classify_trivial_states():
    cls = classify_point4(LJ, regular(LJ, 0.15), 0.15)
    assert (cls.stability, cls.shape) == ("stable", "regular")
    cls = classify_point4(LJ, regular(LJ, 0.25), 0.25)
    assert (cls.stability, cls.shape) == ("unstable", "regular")
    cls = classify_point4(PolynomialSpring(1, 0), regular(PolynomialSpring(1, 0), 50.0), 50.0)
    assert (cls.stability, cls.shape) == ("stable", "regular")


def shape_of_edges(edges):
    """The shape `TETRAHEDRON.families` gives a state with these edges."""
    return TETRAHEDRON.families.shapes([0.0, *edges])[0]


def test_shape_families():
    assert shape_of_edges([1, 1, 1, 1, 1, 1.0]) == "regular"
    assert shape_of_edges([1, 1, 1.3, 1, 1, 0.9]) == "opposite-pair"
    assert shape_of_edges([1.3, 1, 1, 0.9, 1, 1.0]) == "opposite-pair"  # group image
    assert shape_of_edges([1, 1, 1, 1.2, 1.2, 1.2]) == "apex-base"
    assert shape_of_edges([1.2, 1, 1.2, 1, 1.2, 1.0]) == "apex-base"  # group image
    assert shape_of_edges([1.3, 1, 1, 1.3, 1, 1.0]) == "equal-pair"
    assert shape_of_edges([1, 1.3, 1, 1, 1.3, 1.0]) == "equal-pair"  # group image
    assert shape_of_edges([1, 1.1, 1.2, 1.3, 1.4, 1.5]) == "other"
    # the equal-pair family is the c = C slice of an opposite-pair image and wins
    assert shape_of_edges([1.3, 1, 1, 1.3, 1, 1.0]) != "opposite-pair"


def test_equivariance_of_residual():
    rng = np.random.default_rng(36)
    for _ in range(60):
        x = np.concatenate([[rng.uniform(-2, 2)], 1.0 + 0.15 * rng.uniform(-1, 1, 6)])
        V = float(rng.uniform(0.1, 0.3))
        F = residual4(LJ, x, V)
        for P in tetra_group():
            assert np.max(np.abs(residual4(LJ, P.apply(x), V) - P.apply(F))) < 1e-12


def test_problem_wrapper():
    sys_ = ClusterProblem(TETRAHEDRON, SOFT)
    assert sys_.dim == 7 and sys_.param_name == "volume"
    x = sys_.trivial_state(1.0)
    assert np.max(np.abs(sys_.evaluate(x, 1.0)[0])) < 1e-10
    assert sys_.parameter_derivative(x, 1.0)[0] == pytest.approx(-576.0)
    assert sys_.feasible(x)
    assert not sys_.feasible(np.array([0.0, 1, 1, 1, 1, 1, 2.0]))
    assert x[1] == pytest.approx((6 * math.sqrt(2)) ** (1 / 3), rel=1e-12)
