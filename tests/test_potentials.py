import math

import numpy as np
import pytest

from cluster_bifurc.cluster import stability_boundaries
from cluster_bifurc.potentials import (
    Buckingham,
    ConfigError,
    LennardJones,
    NormalizedBuckingham,
    PolynomialSpring,
    buckingham_interval_certificate,
    closed_form_thresholds,
    derivatives,
    eval_potential,
    kernel,
    normalized_buckingham_convert,
    potential_from_json,
    potential_to_json,
    stability_margin,
)
from cluster_bifurc.tetrahedron import TETRAHEDRON
from cluster_bifurc.triangle import TRIANGLE

LJ = LennardJones(1, 2, 12, 6)


def test_lennard_jones_minimum_values():
    assert eval_potential(LJ, 1.0, 0) == pytest.approx(-1.0, abs=1e-14)
    assert eval_potential(LJ, 1.0, 1) == pytest.approx(0.0, abs=1e-14)


def test_hooke_spring_second_derivative():
    assert eval_potential(PolynomialSpring(1, 0), 2.0, 2) == pytest.approx(1.0, abs=1e-14)


def test_eval_argument_validation():
    with pytest.raises(ValueError):
        eval_potential(LJ, -1.0, 0)
    with pytest.raises(ValueError):
        eval_potential(LJ, 0.0, 1)
    with pytest.raises(ValueError):
        eval_potential(LJ, 1.0, 3)


def test_spec_invariants_rejected():
    with pytest.raises(ValueError):
        LennardJones(1, 2, 6, 12)  # needs delta1 > delta2
    with pytest.raises(ValueError):
        LennardJones(1, 2, 12, 2)  # needs delta2 > 2
    with pytest.raises(ValueError):
        NormalizedBuckingham(1, 1, 2, 3)  # needs xi > eta
    with pytest.raises(ValueError):
        PolynomialSpring(0, 1)  # needs k > 0


def test_stability_margin_spring_values():
    # sigma_3 = 4k + 6 beta r^2 and sigma_7 = 8k + 10 beta r^2; beta = 0 here
    assert stability_margin(PolynomialSpring(1, 0), 5.0, 3) == pytest.approx(4.0, abs=1e-12)
    assert stability_margin(PolynomialSpring(1, 0), 5.0, 7) == pytest.approx(8.0, abs=1e-12)


def test_stability_margin_lj_root():
    # hand algebra: sigma_3 = 120/r^14 - 48/r^8 vanishes at r^6 = 120/48
    r = (120.0 / 48.0) ** (1.0 / 6.0)
    assert stability_margin(LJ, r, 3) == pytest.approx(0.0, abs=1e-12)


def test_stability_margin_is_exact_composition():
    rng = np.random.default_rng(11)
    for spec in (LJ, Buckingham(1, 1, 1, 4), PolynomialSpring(1.5, -0.2),
                 NormalizedBuckingham(1, 1, 14.3863, 5.6518)):
        for _ in range(20):
            r = float(rng.uniform(0.5, 10.0))
            k = float(rng.uniform(0.0, 8.0))
            composed = eval_potential(spec, r, 2) + k * eval_potential(spec, r, 1) / r
            assert stability_margin(spec, r, k) == composed  # bitwise identical


@pytest.mark.parametrize("spec", [LJ, Buckingham(1, 1, 1, 4), PolynomialSpring(1.5, -0.2),
                                  NormalizedBuckingham(1, 1, 14.3863, 5.6518)])
def test_derivatives_take_an_array_and_keep_the_float_path(spec):
    r = np.geomspace(0.5, 10.0, 200)
    arrays = derivatives(spec, r)
    for i, v in enumerate(r.tolist()):
        floats = derivatives(spec, v)
        assert all(type(f) is float for f in floats)  # Python's pow and exp, not numpy's
        for got, want in zip(arrays, floats):
            assert got[i] == pytest.approx(want, rel=1e-14, abs=1e-300)
    with pytest.raises(ValueError):
        derivatives(spec, np.array([1.0, 0.0]))


def _written_out(spec, r, exp):
    """(phi, phi', phi'') by each family's formulas as written, no constant
    bound ahead: what a bound kernel must reproduce bit for bit."""
    if isinstance(spec, LennardJones):
        c1, c2, d1, d2 = spec.c1, spec.c2, spec.delta1, spec.delta2
        return (c1 * r ** -d1 - c2 * r ** -d2,
                -c1 * d1 * r ** (-d1 - 1) + c2 * d2 * r ** (-d2 - 1),
                c1 * d1 * (d1 + 1) * r ** (-d1 - 2) - c2 * d2 * (d2 + 1) * r ** (-d2 - 2))
    if isinstance(spec, Buckingham):
        al, be, ga, eta = spec.alpha, spec.beta, spec.gamma, spec.eta
        e = exp(-be * r)
        return (al * e - ga * r ** -eta,
                -al * be * e + ga * eta * r ** (-eta - 1),
                al * be * be * e - ga * eta * (eta + 1) * r ** (-eta - 2))
    if isinstance(spec, NormalizedBuckingham):
        D, R, xi, eta = spec.depth, spec.r_min, spec.xi, spec.eta
        s = D / (xi - eta)
        e = exp(xi * (1.0 - r / R))
        pw = (R / r) ** eta
        return (s * (eta * e - xi * pw),
                s * xi * eta * (-e / R + pw / r),
                s * xi * eta * (xi * e / (R * R) - (eta + 1.0) * pw / (r * r)))
    k, be = spec.k, spec.beta
    return 0.5 * k * r * r + 0.25 * be * r ** 4, k * r + be * r ** 3, k + 3.0 * be * r * r


def _hex(values) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("spec", [LJ, LennardJones(1.3, 0.7, 9.5, 4.25), Buckingham(1, 1, 1, 4),
                                  Buckingham(2.5, 1.7, 0.3, 6.5), NormalizedBuckingham(1, 1, 14.3863, 5.6518),
                                  NormalizedBuckingham(0.4, 1.8, 9.0, 3.5), PolynomialSpring(1, -0.1),
                                  PolynomialSpring(1.5, 0.2)])
def test_one_formula_per_family(spec):
    # the bound float kernel gives `derivatives`' bits on every float, and both
    # give the formulas as written; the array kernel is `derivatives`' array path
    r = np.geomspace(0.3, 50.0, 400)
    bound = kernel(spec)
    for v in r.tolist():
        assert _hex(bound(v)) == _hex(derivatives(spec, v)) == _hex(_written_out(spec, v, math.exp))
    arrays = kernel(spec, np.exp)(r)
    for got, want, written in zip(arrays, derivatives(spec, r), _written_out(spec, r, np.exp)):
        assert got.tobytes() == want.tobytes() == written.tobytes()


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(12)
    for spec in (LJ, Buckingham(1, 1, 1, 4), NormalizedBuckingham(1, 1, 14.3863, 5.6518),
                 PolynomialSpring(1, -0.1), PolynomialSpring(2, 0.3)):
        for _ in range(30):
            r = float(rng.uniform(0.5, 10.0))
            h = 1e-5 * r
            d1 = (eval_potential(spec, r + h) - eval_potential(spec, r - h)) / (2 * h)
            d2 = (eval_potential(spec, r + h, 1) - eval_potential(spec, r - h, 1)) / (2 * h)
            assert d1 == pytest.approx(eval_potential(spec, r, 1), rel=1e-6, abs=1e-9)
            assert d2 == pytest.approx(eval_potential(spec, r, 2), rel=1e-6, abs=1e-9)


def test_closed_form_threshold_lj_triangle():
    # oracle: direct formula, sqrt(3)/4 * (c1 d1 (d1-2) / (c2 d2 (d2-2)))^(2/(d1-d2))
    expected = math.sqrt(3.0) / 4.0 * (120.0 / 48.0) ** (1.0 / 3.0)
    (thr,) = closed_form_thresholds(LJ, "triangle")
    assert thr.margin_coefficient == 3
    assert thr.value == pytest.approx(expected, abs=1e-15)
    assert thr.value == pytest.approx(0.5877, abs=1e-4)


def test_closed_form_threshold_lj_tetrahedron():
    # oracle: sqrt(2)/12 * (120/48)^(3/6)
    expected = math.sqrt(2.0) / 12.0 * 2.5 ** 0.5
    (thr,) = closed_form_thresholds(LJ, "tetrahedron")
    assert thr.margin_coefficient == 3
    assert thr.value == pytest.approx(expected, abs=1e-15)
    assert thr.value == pytest.approx(0.186339, abs=1e-6)


def test_closed_form_threshold_lj_tetra_second_margin():
    spec = LennardJones(1, 2, 12, 8)  # delta2 > 6 brings in the sigma_7 boundary
    thrs = closed_form_thresholds(spec, "tetrahedron")
    assert [t.margin_coefficient for t in thrs] == [3, 7]
    v0 = math.sqrt(2) / 12 * ((12 * 10) / (2 * 8 * 6)) ** (3.0 / 4.0)
    v1 = math.sqrt(2) / 12 * ((12 * 6) / (2 * 8 * 2)) ** (3.0 / 4.0)
    assert thrs[0].value == pytest.approx(v0, abs=1e-14)
    assert thrs[1].value == pytest.approx(v1, abs=1e-14)
    # the sigma_3 root binds first: sigma_7 = sigma_3 + 4 phi'/r > 0 wherever
    # sigma_3 vanishes with phi' > 0, so its own root sits at larger volume
    assert v0 < v1


def test_closed_form_thresholds_springs():
    assert closed_form_thresholds(PolynomialSpring(1, 0), "triangle") == []
    assert closed_form_thresholds(PolynomialSpring(1, 0.5), "tetrahedron") == []
    soft = PolynomialSpring(1, -0.1)
    (tri,) = closed_form_thresholds(soft, "triangle")
    assert tri.value == pytest.approx(1.0 / (2 * math.sqrt(3) * 0.1), abs=1e-12)
    tets = closed_form_thresholds(soft, "tetrahedron")
    assert tets[0].value == pytest.approx(math.sqrt(1.0 / (243 * 0.1 ** 3)), abs=1e-12)
    assert tets[1].value == pytest.approx(math.sqrt(8.0 / (1125 * 0.1 ** 3)), abs=1e-12)


def test_closed_form_thresholds_buckingham_empty():
    assert closed_form_thresholds(Buckingham(1, 1, 1, 4), "triangle") == []
    assert closed_form_thresholds(NormalizedBuckingham(1, 1, 14.3863, 5.6518), "tetrahedron") == []


def test_soft_spring_margin_flips_exactly_once():
    soft = PolynomialSpring(1, -0.1)
    rs = np.linspace(0.05, 30.0, 4000)
    signs = np.sign([stability_margin(soft, r, 3) for r in rs])
    flips = np.sum(signs[:-1] * signs[1:] < 0)
    assert flips == 1


def test_lj_closed_form_root_satisfies_margin():
    (thr,) = closed_form_thresholds(LJ, "triangle")
    a = 2.0 * math.sqrt(thr.value) / 3.0 ** 0.25
    assert abs(stability_margin(LJ, a, 3)) < 1e-9


def test_buckingham_certificate():
    # oracle arithmetic: e^-4 = 0.0183156... vs 4*2*(1/4)^5 = 0.0078125
    assert buckingham_interval_certificate(Buckingham(1, 1, 1, 4)) is True
    assert buckingham_interval_certificate(Buckingham(1, 1, 100, 4)) is False
    with pytest.raises(ValueError):
        buckingham_interval_certificate(LJ)
    with pytest.raises(ValueError):
        buckingham_interval_certificate(Buckingham(1, 1, 1, 1.5))


def test_normalized_certificate_independent_of_scales():
    rng = np.random.default_rng(13)
    for _ in range(10):
        spec = NormalizedBuckingham(float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 10.0)),
                                    14.3863, 5.6518)
        assert buckingham_interval_certificate(spec) is True


def test_normalized_buckingham_convert():
    alpha, beta, gamma = normalized_buckingham_convert(1, 1, 2, 1)
    assert alpha == pytest.approx(math.e ** 2, abs=1e-12)
    assert beta == pytest.approx(2.0, abs=1e-15)
    assert gamma == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        normalized_buckingham_convert(1, 1, 2, 3)


def test_normalized_buckingham_minimum_at_r_min():
    spec = NormalizedBuckingham(1, 1, 14.3863, 5.6518)
    assert eval_potential(spec, 1.0, 0) == pytest.approx(-1.0, abs=1e-9)
    assert eval_potential(spec, 1.0, 1) == pytest.approx(0.0, abs=1e-9)


def test_normalized_matches_converted_buckingham():
    spec = NormalizedBuckingham(1.3, 0.9, 12.0, 5.0)
    alpha, beta, gamma = normalized_buckingham_convert(1.3, 0.9, 12.0, 5.0)
    conv = Buckingham(alpha, beta, gamma, 5.0)
    for r in (0.5, 0.9, 1.7, 4.0):
        for order in (0, 1, 2):
            assert eval_potential(spec, r, order) == pytest.approx(
                eval_potential(conv, r, order), rel=1e-12, abs=1e-12)


def test_json_round_trip_and_errors():
    for spec in (LJ, Buckingham(1, 1, 1, 4), NormalizedBuckingham(1, 1, 14.3863, 5.6518),
                 PolynomialSpring(2, -0.3)):
        assert potential_from_json(potential_to_json(spec)) == spec
    with pytest.raises(ConfigError) as err:
        potential_from_json({"family": "morse", "params": {}})
    assert err.value.key == "family"
    with pytest.raises(ConfigError) as err:
        potential_from_json({"family": "spring", "params": {"stiffness": 1}})
    assert err.value.key == "stiffness"
    with pytest.raises(ConfigError) as err:
        potential_from_json({"family": "lennard_jones", "params": {"c1": 1, "c2": 2, "delta1": 12}})
    assert err.value.key == "delta2"
    # spring beta defaults to the Hooke case
    assert potential_from_json({"family": "spring", "params": {"k": 2}}) == PolynomialSpring(2, 0.0)


def test_derivatives_helper_matches_eval():
    for spec in (LJ, PolynomialSpring(1, 0.2)):
        p = derivatives(spec, 1.3)
        assert p == tuple(eval_potential(spec, 1.3, k) for k in range(3))


def test_normalized_evaluation_survives_huge_xi():
    # the naive route through alpha = depth*eta*e^xi/(xi-eta) overflows here,
    # but the combined exponent xi*(1 - r/r_min) stays small for r >= r_min
    spec = NormalizedBuckingham(1.0, 1.0, 800.0, 5.0)
    with pytest.raises(OverflowError):
        normalized_buckingham_convert(1.0, 1.0, 800.0, 5.0)
    for r in (1.0, 1.2, 3.0):
        vals = derivatives(spec, r)
        assert all(math.isfinite(v) for v in vals)
    assert eval_potential(spec, 1.0, 0) == pytest.approx(-1.0, abs=1e-9)



@pytest.mark.parametrize("exponents", [(12, 8), (12, 6), (12, 4), (8, 7), (6, 4), (5, 3), (5.5, 2.5)])
@pytest.mark.parametrize("geometry", [TRIANGLE, TETRAHEDRON], ids=lambda g: g.name)
def test_lj_closed_forms_are_the_margin_scan_roots(geometry, exponents):
    # sigma_3 always has a root (delta2 > 2); on the tetrahedron sigma_7 has
    # one exactly when both exponents lie on one side of 6
    spec = LennardJones(1, 2, *exponents)
    closed = closed_form_thresholds(spec, geometry.name)
    both_sides = (exponents[0] - 6) * (exponents[1] - 6) > 0
    assert [t.margin_coefficient for t in closed] == ([3, 7] if geometry is TETRAHEDRON and both_sides else [3])
    values = [t.value for t in closed]
    roots = stability_boundaries(geometry, spec, (min(values) / 10.0, max(values) * 10.0))
    assert sorted((r.margin_coefficient, r.parameter) for r in roots) == [
        (t.margin_coefficient, pytest.approx(t.value, rel=1e-8)) for t in closed]
