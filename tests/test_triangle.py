import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from cluster_bifurc import continuation
from cluster_bifurc.cli import build_diagram
from cluster_bifurc.cluster import (
    ClusterProblem,
    DegenerateConstraintError,
    StabilityInterval,
    energy,
    margin,
    stable_intervals,
    trivial_point,
)
from cluster_bifurc.continuation import ContinuationSettings, CorrectorFailure
from cluster_bifurc.linalg import sym_eigen
from cluster_bifurc.potentials import Buckingham, LennardJones, NormalizedBuckingham, PolynomialSpring
from cluster_bifurc.symmetry import triangle_group
from cluster_bifurc.triangle import (
    TRIANGLE,
    classify_point3,
    heron,
    heron_terms,
    jacobian3,
    residual3,
    stability_boundaries3,
    trivial_spectrum3,
)

LJ = LennardJones(1, 2, 12, 6)
HOOKE = PolynomialSpring(1, 0)


def equilateral(spec, area):
    """The equilateral state vector (lambda, a, a, a) at the given area."""
    return ClusterProblem(TRIANGLE, spec).trivial_state(area)


def grad_hess(e):
    """Gradient and Hessian of the squared area as arrays, from the constraint kernel."""
    _, g, H = heron_terms(e)
    return np.array(g), np.array(H)


def heron_factored(a, b, c):
    """Classic semi-perimeter product form; cross-check oracle for the kernel."""
    s = 0.5 * (a + b + c)
    return s * (s - a) * (s - b) * (s - c)


def test_heron_values():
    assert heron(3, 4, 5) == pytest.approx(36.0, abs=1e-12)
    assert heron(1, 1, 1) == pytest.approx(3.0 / 16.0, abs=1e-15)
    assert heron(1, 1, 2) == pytest.approx(0.0, abs=1e-12)


def test_heron_matches_factored_form():
    rng = np.random.default_rng(21)
    for _ in range(200):
        a, b, c = rng.uniform(0.3, 3.0, 3)
        assert heron(a, b, c) == pytest.approx(heron_factored(a, b, c), rel=1e-10, abs=1e-12)


def heron_expanded(a, b, c):
    """The expanded quartic, the counterexample to the exact-arithmetic test
    below: its terms near b^4/16 cancel to g on a needle, leaving hundreds of
    ulps of g (millions on a nearly flat triangle)."""
    return (a * a * b * b + a * a * c * c + b * b * c * c) / 8.0 - (a ** 4 + b ** 4 + c ** 4) / 16.0


def heron_exact(a, b, c):
    """The squared area in rational arithmetic, on the same floats."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c) / 16


def error_in_ulps(f, e):
    """|f(e) - g(e)| in units of eps * g(e), g exact."""
    exact = heron_exact(*e)
    return float(abs(Fraction(f(*e)) - exact) / (exact * Fraction(sys.float_info.epsilon)))


NEEDLES = [(1.95, 79.1, 79.1), (1.948, 102.0, 102.0), (1.95, 102.3, 101.9)]


def _random_needles(n=200):
    # a short edge of 0.5-3 against two long ones of 20-120 that differ by
    # less than it, so every triple is a triangle
    rng = np.random.default_rng(24)
    for _ in range(n):
        a, b = rng.uniform(0.5, 3.0), rng.uniform(20.0, 120.0)
        yield tuple(rng.permutation([a, b, b + rng.uniform(-0.99, 0.99) * a]).tolist())


def _assert_within_a_few_ulps(e):
    assert error_in_ulps(heron, e) <= 8.0, e
    assert error_in_ulps(lambda *v: heron_terms(v)[0], e) <= 8.0, e


@pytest.mark.parametrize("e", NEEDLES + [(1.0, 1.0, 1.9999999), (3.0, 4.0, 5.0)])
def test_squared_area_is_within_a_few_ulps_of_exact(e):
    _assert_within_a_few_ulps(e)


def test_squared_area_of_random_needles_is_within_a_few_ulps_of_exact():
    for e in _random_needles():
        _assert_within_a_few_ulps(e)


@pytest.mark.parametrize("e", NEEDLES[1:] + [(1.0, 1.0, 1.9999999)])
def test_the_expanded_quartic_misses_the_exact_area(e):
    assert error_in_ulps(heron_expanded, e) > 8.0


def test_corrections_on_the_buckingham_needle_branch_converge(monkeypatch):
    # with the expanded quartic, |g - A^2| on the isosceles branch of the
    # 5.3154 primary (a ~ 1.95, b = c ~ 80-100) stalls above the absolute
    # Newton tolerance and 24 trace corrections fail; one real divergence,
    # near A = 49.21, remains
    failures = []
    newton_correct = continuation.newton_correct

    def correct(*args, **kwargs):
        try:
            return newton_correct(*args, **kwargs)
        except CorrectorFailure as err:
            failures.append(err)
            raise

    monkeypatch.setattr(continuation, "newton_correct", correct)
    build_diagram("triangle", Buckingham(1, 1, 1, 4), (1.0, 100.0), ContinuationSettings(h_max=0.2))
    assert len(failures) <= 1, [str(err) for err in failures]


def test_heron_derivatives_match_finite_differences():
    rng = np.random.default_rng(22)
    done = 0
    while done < 100:
        a, b, c = rng.uniform(0.5, 2.0, 3)
        if heron(a, b, c) <= 1e-3:
            continue
        done += 1
        g, H = grad_hess((a, b, c))
        for i in range(3):
            e = [a, b, c]
            h = 1e-6 * e[i]
            ep = list(e)
            em = list(e)
            ep[i] += h
            em[i] -= h
            fd = (heron(*ep) - heron(*em)) / (2 * h)
            assert fd == pytest.approx(g[i], rel=1e-6, abs=1e-9)
            fd_col = (grad_hess(ep)[0] - grad_hess(em)[0]) / (2 * h)
            assert np.max(np.abs(fd_col - H[:, i])) < 1e-6 * max(1.0, np.abs(H[:, i]).max())


def test_trivial_state_geometry():
    lam, a = trivial_point(TRIANGLE, LJ, math.sqrt(3.0) / 4.0)
    assert a == pytest.approx(1.0, abs=1e-14)
    assert lam == pytest.approx(0.0, abs=1e-12)  # phi'(1) = 0 for this potential
    lam, _ = trivial_point(TRIANGLE, HOOKE, math.sqrt(3.0) / 4.0)
    assert lam == pytest.approx(-4.0, abs=1e-12)
    with pytest.raises(ValueError):
        trivial_point(TRIANGLE, LJ, -1.0)


def test_residual_vanishes_on_trivial_branch():
    for spec in (LJ, Buckingham(1, 1, 1, 4), PolynomialSpring(2, -0.1)):
        for A in (0.1, 0.5877, 3.0, 40.0):
            r = residual3(spec, equilateral(spec, A), A)
            assert np.max(np.abs(r)) < 1e-11 * max(1.0, A * A)


def test_residual_hooke_hand_value():
    # Hooke spring at the unit equilateral: lambda = -4 phi'(1)/1 = -4
    r = residual3(HOOKE, (-4.0, 1.0, 1.0, 1.0), math.sqrt(3.0 / 16.0))
    assert np.max(np.abs(r)) < 1e-14


def test_residual_lambda_zero_decouples():
    r = residual3(LJ, (0.0, 1.0, 1.0, 1.0), 1.0)
    assert r[0] == pytest.approx(3.0 / 16.0 - 1.0, abs=1e-14)
    d1 = -12.0 + 12.0  # phi'(1)
    assert np.allclose(r[1:], d1, atol=1e-14)
    with pytest.raises(ValueError):
        residual3(LJ, (0.0, -1.0, 1.0, 1.0), 1.0)


def test_jacobian_border_and_symmetry():
    J = jacobian3(LJ, (0.3, 1.0, 1.0, 1.0))
    assert np.allclose(J[0, 1:], 0.25, atol=1e-15)
    assert np.allclose(J[1:, 0], 0.25, atol=1e-15)
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = np.concatenate([[rng.uniform(-3, 3)], rng.uniform(0.5, 2.0, 3)])
        J = jacobian3(LJ, x)
        assert np.max(np.abs(J - J.T)) < 1e-14


def test_jacobian_trivial_hooke_entries():
    # lambda_A = -4, so alpha = phi'' - lambda a^2/4 = 2 and beta = lambda a^2/2 = -2
    J = jacobian3(HOOKE, equilateral(HOOKE, math.sqrt(3.0) / 4.0))
    assert J[1, 1] == pytest.approx(2.0, abs=1e-12)
    assert J[1, 2] == pytest.approx(-2.0, abs=1e-12)
    sp = trivial_spectrum3(HOOKE, math.sqrt(3.0) / 4.0)
    assert sp.mu == pytest.approx(4.0, abs=1e-12)


def test_trivial_spectrum_identity():
    rng = np.random.default_rng(24)
    specs = [LJ, Buckingham(1, 1, 1, 4), PolynomialSpring(1, -0.1), PolynomialSpring(2, 0.5)]
    for _ in range(20):
        spec = specs[rng.integers(0, len(specs))]
        A = float(rng.uniform(0.3, 3.0))
        sp = trivial_spectrum3(spec, A)
        w, _ = sym_eigen(jacobian3(spec, equilateral(spec, A)))
        expect = np.sort([sp.mu, sp.mu, *sp.simple_pair])
        scale = max(1.0, np.abs(expect).max())
        assert np.max(np.abs(np.sort(w) - expect)) < 1e-9 * scale
        assert sp.simple_pair[0] != 0.0 and sp.simple_pair[1] != 0.0


def test_trivial_eigenvector_identity():
    # every kernel vector of the margins table is an eigenvector of J, its margin the eigenvalue
    assert all(np.linalg.matrix_rank(np.array(row.kernel)) == len(row.kernel) for row in TRIANGLE.margins.values())
    for spec in (LJ, Buckingham(1, 1, 1, 4), NormalizedBuckingham(1, 1, 14.3863, 5.6518), HOOKE):
        for A in (0.4, 0.5877, 1.7):
            J = jacobian3(spec, equilateral(spec, A))
            scale = max(1.0, np.abs(J).max())
            for k, row in TRIANGLE.margins.items():
                mu = margin(TRIANGLE, spec, A, k)
                for v in row.kernel:
                    v = np.asarray(v)
                    assert np.max(np.abs(J @ v - mu * v)) < 1e-12 * scale


def test_mu_spring_constant():
    for A in (0.2, 1.0, 25.0):
        assert margin(TRIANGLE, HOOKE, A, 3) == pytest.approx(4.0, abs=1e-12)


def test_mu_roots_lj_and_buckingham():
    A0 = math.sqrt(3.0) / 4.0 * 2.5 ** (1.0 / 3.0)
    assert margin(TRIANGLE, LJ, A0, 3) == pytest.approx(0.0, abs=1e-12)
    assert abs(margin(TRIANGLE, Buckingham(1, 1, 1, 4), 5.3154, 3)) < 1e-4


def test_stability_boundaries_scan():
    lj_roots = stability_boundaries3(LJ, (0.1, 10.0))
    assert len(lj_roots) == 1
    assert lj_roots[0].parameter == pytest.approx(0.5877, abs=1e-4)
    assert lj_roots[0].kernel_dim == 2
    assert lj_roots[0].transversal and lj_roots[0].slope < 0

    buck = stability_boundaries3(Buckingham(1, 1, 1, 4), (0.1, 1000.0))
    assert [round(r.parameter, 4) for r in buck] == [5.3154, 74.2253]
    assert buck[0].slope > 0 and buck[1].slope < 0

    soft = stability_boundaries3(PolynomialSpring(1, -0.1), (0.1, 100.0))
    assert len(soft) == 1
    assert soft[0].parameter == pytest.approx(1.0 / (2 * math.sqrt(3) * 0.1), abs=1e-6)

    assert stability_boundaries3(HOOKE, (0.1, 100.0)) == []
    with pytest.raises(ValueError):
        stability_boundaries3(LJ, (1.0, 0.1))


def test_stable_intervals():
    (lj,) = stable_intervals(TRIANGLE, LJ, (0.1, 10.0))
    assert lj.lo == 0.1 and not lj.lo_is_boundary
    assert lj.hi == pytest.approx(0.5877, abs=1e-4) and lj.hi_is_boundary
    (buck,) = stable_intervals(TRIANGLE, Buckingham(1, 1, 1, 4), (0.1, 1000.0))
    assert buck.lo == pytest.approx(5.3154, abs=1e-2)
    assert buck.hi == pytest.approx(74.2253, abs=1e-2)
    assert buck.lo_is_boundary and buck.hi_is_boundary
    (hooke,) = stable_intervals(TRIANGLE, HOOKE, (0.1, 100.0))
    assert (hooke.lo, hooke.hi) == (0.1, 100.0)
    # margin positive at sampled interior points
    for frac in (0.2, 0.5, 0.8):
        assert margin(TRIANGLE, Buckingham(1, 1, 1, 4), buck.lo + frac * (buck.hi - buck.lo), 3) > 0
    with pytest.raises(ValueError):
        StabilityInterval(2.0, 1.0, False, False)


def test_classify_trivial_states():
    cls = classify_point3(LJ, equilateral(LJ, 0.5), 0.5)
    assert (cls.stability, cls.shape) == ("stable", "equilateral")
    cls = classify_point3(LJ, equilateral(LJ, 0.7), 0.7)
    assert (cls.stability, cls.shape) == ("unstable", "equilateral")
    cls = classify_point3(HOOKE, equilateral(HOOKE, 100.0), 100.0)
    assert (cls.stability, cls.shape) == ("stable", "equilateral")


def test_classify_marginal_at_root():
    A0 = math.sqrt(3.0) / 4.0 * 2.5 ** (1.0 / 3.0)
    cls = classify_point3(LJ, equilateral(LJ, A0), A0)
    assert cls.stability == "marginal"


def test_classify_agrees_with_mu_sign():
    rng = np.random.default_rng(25)
    for _ in range(40):
        A = float(rng.uniform(0.2, 3.0))
        mu = margin(TRIANGLE, LJ, A, 3)
        if abs(mu) < 1e-3:
            continue
        cls = classify_point3(LJ, equilateral(LJ, A), A)
        assert cls.stability == ("stable" if mu > 0 else "unstable")


def test_classify_shapes():
    assert classify_point3(LJ, (0.0, 1.0, 1.0, 1.2), 0.5).shape == "isosceles(a=b)"
    assert classify_point3(LJ, (0.0, 1.2, 1.0, 1.0), 0.5).shape == "isosceles(b=c)"
    assert classify_point3(LJ, (0.0, 1.0, 1.2, 1.0), 0.5).shape == "isosceles(a=c)"
    assert classify_point3(LJ, (0.0, 1.0, 1.1, 1.2), 0.5).shape == "scalene"
    # grad g = 0 forces c = 0, impossible for positive edges, so the
    # degenerate-constraint guard only fires on malformed inputs
    assert DegenerateConstraintError is not None


def test_equivariance_of_residual():
    rng = np.random.default_rng(26)
    for _ in range(100):
        x = np.concatenate([[rng.uniform(-2, 2)], rng.uniform(0.6, 1.6, 3)])
        A = float(rng.uniform(0.2, 2.0))
        F = residual3(LJ, x, A)
        for P in triangle_group():
            assert np.max(np.abs(residual3(LJ, P.apply(x), A) - P.apply(F))) < 1e-12


def test_energy_sum():
    assert energy(TRIANGLE, LJ, (0.0, 1.0, 1.0, 1.0)) == pytest.approx(-3.0, abs=1e-14)


def test_trivial_jacobian_determinant_sign_is_constant():
    # det J = -3 gamma^2 mu^2 <= 0: the double eigenvalue enters squared, so
    # the sign does NOT flip across the bifurcation; what changes is the
    # inertia (two eigenvalues cross together)
    from cluster_bifurc.linalg import det_sign
    signs = {}
    inertia = {}
    for A in (0.55, 0.62):
        J = jacobian3(LJ, equilateral(LJ, A))
        signs[A] = det_sign(J)
        w, _ = sym_eigen(J)
        inertia[A] = int(np.sum(w < 0))
    assert signs[0.55] == signs[0.62] == -1
    assert abs(inertia[0.55] - inertia[0.62]) == 2
    sp55 = trivial_spectrum3(LJ, 0.55)
    assert -3.0 * sp55.gamma ** 2 * sp55.mu ** 2 < 0


def test_problem_wrapper():
    sys_ = ClusterProblem(TRIANGLE, LJ)
    assert sys_.dim == 4 and sys_.param_name == "area"
    x = sys_.trivial_state(0.5)
    assert np.max(np.abs(sys_.evaluate(x, 0.5)[0])) < 1e-12
    assert np.allclose(sys_.parameter_derivative(x, 0.5), [-1.0, 0, 0, 0])
    assert sys_.in_domain(x) and sys_.feasible(x)
    assert not sys_.in_domain([0.0, -1.0, 1.0, 1.0])
    assert not sys_.feasible([0.0, 1.0, 1.0, 2.5])  # violates the triangle inequality
    cls = sys_.classify_stack([x], [sys_.evaluate(x, 0.5)[1]])[0]
    assert (cls.stability, cls.shape) == ("stable", "equilateral")
