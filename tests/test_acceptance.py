"""End-to-end acceptance checks.

Each test prints one PASS line after its assertions (use `pytest -v -s` to
see them inline); the test outcome itself is the pass/fail record.  The
energy-ordering clause of the multistability criterion is asserted as
measured: in the Lennard-Jones window (lo, hi) the equilateral state is the
lower of the two coexisting stable states on (lo, A_M) and the stable
isosceles state is the lower on (A_M, hi), with the equal-energy point
A_M ~ 0.58590 (see test_criterion_4_energy_ordering_as_stated).

Criterion 8, the property suite, has no test here; its properties are
checked where their code is tested:
- potential derivatives against finite differences:
  test_potentials::test_derivatives_match_finite_differences;
- constraint derivatives against finite differences:
  test_triangle::test_heron_derivatives_match_finite_differences and
  test_tetrahedron::test_gradient_hessian_match_finite_differences;
- equivariance of the residual:
  test_symmetry::test_equivariance_full_group_both_systems;
- the Cayley-Menger polynomial: test_tetrahedron::test_cm_invariance_under_group,
  test_cayley_menger_regular_values and
  test_cayley_menger_cubic_matches_the_determinant;
- the closed-form trivial spectra and their kernel vectors:
  test_triangle::test_trivial_spectrum_identity and
  test_trivial_eigenvector_identity, test_tetrahedron::test_trivial_spectrum_closed_forms
  and test_trivial_eigenvector_identities;
- the exact fixed-point projections: test_symmetry::test_projection_*;
- the crossing normals: test_symmetry::test_scalene_triangle_crosses_the_three_isosceles_lines
  and test_crossing_normals_are_unit_vectors_of_fix_s_orthogonal_to_fix_s_prime.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from cluster_bifurc import (
    TRIANGLE,
    Buckingham,
    ClusterProblem,
    ContinuationSettings,
    LennardJones,
    PolynomialSpring,
    closed_form_thresholds,
    stability_boundaries3,
    stability_boundaries4,
)
from cluster_bifurc.cli import build_diagram
from cluster_bifurc.cluster import energy
from cluster_bifurc.continuation import newton_correct
from cluster_bifurc.diagram import export
from cluster_bifurc.triangle import classify_point3

LJ = LennardJones(1, 2, 12, 6)
LJ_TRIANGLE = ClusterProblem(TRIANGLE, LJ)
BUCK = Buckingham(1, 1, 1, 4)
SOFT = PolynomialSpring(1, -0.1)
HOOKE = PolynomialSpring(1, 0)


@pytest.fixture(scope="module")
def lj_diagram():
    t0 = time.perf_counter()
    diagram = build_diagram("triangle", LJ, (0.3, 0.9), ContinuationSettings(h_max=0.01))
    return diagram, time.perf_counter() - t0


@pytest.fixture(scope="module")
def buck_diagram():
    t0 = time.perf_counter()
    diagram = build_diagram("triangle", BUCK, (1.0, 100.0), ContinuationSettings(h_max=0.2))
    return diagram, time.perf_counter() - t0


@pytest.fixture(scope="module")
def soft_tetra_diagram():
    diagram = build_diagram("tetrahedron", SOFT, (0.5, 4.0),
                            ContinuationSettings(h_max=0.05, max_points=400))
    return diagram


def test_criterion_1_lj_triangle_threshold():
    t0 = time.perf_counter()
    (closed,) = closed_form_thresholds(LJ, "triangle")
    roots = stability_boundaries3(LJ, (0.1, 10.0))
    elapsed = time.perf_counter() - t0
    assert len(roots) == 1
    assert abs(closed.value - roots[0].parameter) < 1e-6
    assert abs(closed.value - 0.5877) < 1e-4
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS  closed form {closed.value:.7f}, scan {roots[0].parameter:.7f}, "
          f"{elapsed:.2f}s")


def test_criterion_2_buckingham_boundaries():
    t0 = time.perf_counter()
    roots = stability_boundaries3(BUCK, (0.1, 1000.0))
    elapsed = time.perf_counter() - t0
    assert len(roots) == 2
    assert abs(roots[0].parameter - 5.3154) < 1e-2
    assert abs(roots[1].parameter - 74.2253) < 1e-2
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2: PASS  roots {roots[0].parameter:.4f}, {roots[1].parameter:.4f}, "
          f"{elapsed:.2f}s")


def test_criterion_3_lj_secondary_bifurcations(lj_diagram):
    diagram, elapsed = lj_diagram
    primary = [ev for ev in diagram.events if ev.kind == "primary"]
    assert len(primary) == 1
    iso_ids = {br.id for br in diagram.branches if br.parent_event == primary[0].id}
    secondary = sorted(ev.parameter for ev in diagram.events
                       if ev.kind == "secondary" and ev.source_branch in iso_ids)
    assert len(secondary) == 2
    assert abs(secondary[0] - 0.6251) < 5e-3
    assert abs(secondary[1] - 0.6670) < 5e-3
    scalene_stable = 0
    for br in diagram.branches:
        parent = next((ev for ev in diagram.events if ev.id == br.parent_event), None)
        if parent is not None and parent.kind == "secondary":
            scalene_stable += sum(1 for pt in br.points
                                  if pt.stability == "stable" and pt.shape == "scalene")
    assert scalene_stable > 0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3: PASS  secondary events at {secondary[0]:.4f}, {secondary[1]:.4f}; "
          f"{scalene_stable} stable scalene points; {elapsed:.1f}s")


def _primary_isosceles(diagram):
    """The primary event and the first isosceles branch switched at it."""
    primary = next(ev for ev in diagram.events if ev.kind == "primary")
    iso = next(br for br in diagram.branches if br.parent_event == primary.id)
    return primary, iso


def _corrected_isosceles(iso, area, stability):
    """Newton-correct the traced point of the given stability nearest in area."""
    nearest = min((pt for pt in iso.points if pt.stability == stability),
                  key=lambda pt: abs(pt.parameter - area))
    corrected, _ = newton_correct(LJ_TRIANGLE, np.asarray(nearest.state), area)
    return corrected


def _multistability_data(diagram):
    primary, iso = _primary_isosceles(diagram)
    fold = next(ev for ev in diagram.events
                if ev.kind == "turning" and ev.source_branch == iso.id)
    lo, hi = fold.parameter, primary.parameter
    mid = 0.5 * (lo + hi)
    return lo, hi, mid, LJ_TRIANGLE.trivial_state(mid), _corrected_isosceles(iso, mid, "stable")


def test_criterion_4_multistability_window(lj_diagram):
    diagram, _ = lj_diagram
    lo, hi, mid, trivial_state, nontrivial = _multistability_data(diagram)
    assert abs(lo - 0.5855) < 1e-3
    assert abs(hi - 0.5877) < 1e-3
    cls_triv = classify_point3(LJ, trivial_state, mid)
    cls_non = classify_point3(LJ, np.asarray(nontrivial.state), mid)
    assert cls_triv.stability == "stable" and cls_triv.shape == "equilateral"
    assert cls_non.stability == "stable" and cls_non.shape.startswith("isosceles")
    print(f"\nACCEPTANCE 4 (window & double stability): PASS  window ({lo:.5f}, {hi:.5f}), "
          f"both states stable at A={mid:.5f}")


def test_criterion_4_energy_ordering_as_stated(lj_diagram):
    """Energy ordering of the two coexisting stable states across the window.

    On the multistability window (lo, hi) the equilateral state and the
    large-amplitude isosceles state are both stable, and their energies are
    equal at one area A_M ~ 0.58590.  The equilateral state is the lower on
    (lo, A_M), about the first 12 % of the window; the stable isosceles state
    is the lower on (A_M, hi), the window midpoint included.  The reference
    A_M = 0.5859028 comes from a computation that shares no code with this
    package (Nelder-Mead over triangle vertices at fixed area, root-finding
    on the energy difference).  Every isosceles energy compared here is that
    of a Newton-corrected state confirmed stable, never of its unstable
    neighbour.  A direct area-preserving sampling of the potential at the
    midpoint checks that the stable isosceles state is the lowest there.
    """
    diagram, _ = lj_diagram
    _, iso = _primary_isosceles(diagram)
    lo, hi, mid, _, _ = _multistability_data(diagram)

    def energies(area):
        """(E_equilateral, E_isosceles(stable), isosceles state) at one area."""
        state = np.asarray(_corrected_isosceles(iso, area, "stable").state)
        cls = classify_point3(LJ, state, area)
        assert cls.stability == "stable" and cls.shape.startswith("isosceles"), \
            f"corrected state at A={area:.7f} is {cls.stability} {cls.shape}"
        return energy(TRIANGLE, LJ, LJ_TRIANGLE.trivial_state(area)), energy(TRIANGLE, LJ, state), state

    def gap(area):
        e_trivial, e_iso, _ = energies(area)
        return e_trivial - e_iso

    areas = lo + (hi - lo) * np.arange(1, 20) / 20
    gaps = [gap(area) for area in areas]
    flips = [k for k in range(1, len(gaps)) if (gaps[k] > 0) != (gaps[k - 1] > 0)]
    assert len(flips) == 1, f"energy order flips {len(flips)} times on {len(areas)} areas"
    below, gap_below = areas[0], gaps[0]
    assert gap_below < 0, (
        f"stable isosceles state is not above the equilateral one at A={below:.7f}, "
        f"next to the fold lo={lo:.7f}; E_trivial - E_iso = {gap_below:+.3e}")
    a, b = areas[flips[0] - 1], areas[flips[0]]
    while b - a > 1e-10:
        m = 0.5 * (a + b)
        a, b = (a, m) if gap(m) > 0 else (m, b)
    a_m = 0.5 * (a + b)
    e_trivial, e_iso, iso_state = energies(mid)
    assert lo < below < a_m < mid < hi
    assert e_iso < e_trivial, (
        f"stable isosceles state is not below the equilateral one at the midpoint "
        f"A={mid:.7f} in (A_M, hi) = ({a_m:.7f}, {hi:.7f}): "
        f"{e_iso:.10f} vs {e_trivial:.10f}")
    assert abs(a_m - 0.5859028) < 1e-5, f"equal-energy point {a_m:.7f}, expected 0.5859028"

    # Solver-free check at the midpoint.  Up to congruence every triangle of
    # area A is (0,0), (p,0), (q, 2A/p) with p its longest edge (p is then at
    # least the equilateral edge, 1.164 here) and p/2 <= q <= p.  The potential
    # is written out: phi(r) = x^2 - 2x with x = r^-6 = (r^2)^-3.
    p = np.linspace(1.1, 1.8, 701)[:, None]
    q = p * np.linspace(0.5, 1.0, 501)[None, :]
    h2 = (2.0 * mid / p) ** 2
    squared = np.broadcast_arrays(p * p, q * q + h2, (p - q) ** 2 + h2)
    sampled = sum(x * x - 2.0 * x for x in (r2 ** -3 for r2 in squared))
    k = np.unravel_index(np.argmin(sampled), sampled.shape)
    sampled_min = float(sampled[k])
    # each sample is a triangle of area A, so none may undercut the minimizer
    # beyond round-off; the grid (step 1e-3) must reach below the equilateral
    assert e_iso - 1e-12 <= sampled_min < e_trivial, (
        f"sampled minimum {sampled_min:.10f} outside "
        f"[E_iso, E_trivial) = [{e_iso:.10f}, {e_trivial:.10f})")
    sampled_edges = sorted(float(np.sqrt(r2[k])) for r2 in squared)
    assert np.allclose(sampled_edges, sorted(iso_state[1:]), atol=2e-3), \
        f"sampled minimizer {sampled_edges} is not the stable isosceles state"
    print(f"\nACCEPTANCE 4 (energy ordering): PASS  equilateral lower on ({lo:.5f}, {a_m:.7f}) "
          f"(E_trivial - E_iso = {gap_below:+.2e} at A={below:.5f}), stable isosceles lower "
          f"on ({a_m:.7f}, {hi:.5f}) ({e_trivial - e_iso:+.2e} at A={mid:.5f}); "
          f"sampled minimum {sampled_min:.10f}")


def _unrecorded_flips(iso, events) -> list[tuple[float, float]]:
    """The segments (z_a, z_b) of a branch over which the stability flag flips
    with no group image z_e of an event's (x, p) as close to both ends as
    they are to each other: max(|z_e - z_a|, |z_e - z_b|) <= |z_b - z_a|.

    The test is scale-free and ties each flip to the event's state, not
    only to its parameter; a fold's parameter is the local extremum, just
    outside its segment's parameter range.
    """
    images = np.array([np.append(P.apply(ev.state), ev.parameter) for ev in events
                       for P in LJ_TRIANGLE.group()])
    z = np.column_stack([iso.states, iso.parameters])
    stable = np.array([s == "stable" for s in iso.stability])
    out = []
    for i in np.flatnonzero(stable[1:] != stable[:-1]).tolist():
        chord = np.linalg.norm(z[i + 1] - z[i])
        reach = np.maximum(np.linalg.norm(images - z[i], axis=1), np.linalg.norm(images - z[i + 1], axis=1))
        if not (reach <= chord).any():
            out.append((float(iso.parameters[i]), float(iso.parameters[i + 1])))
    return out


def test_stability_changes_only_at_recorded_events(lj_diagram):
    """Trace invariant: flips of the stability flag sit at recorded events."""
    diagram, _ = lj_diagram
    primary, iso = _primary_isosceles(diagram)
    recorded = [ev for ev in diagram.events if ev.source_branch == iso.id] + [primary]
    assert _unrecorded_flips(iso, recorded) == []
    # without the 0.585663 fold, the flip across it has no event
    fold = next(ev for ev in recorded if ev.kind == "turning")
    assert round(fold.parameter, 6) == 0.585663
    unrecorded = _unrecorded_flips(iso, [ev for ev in recorded if ev is not fold])
    assert len(unrecorded) == 1 and min(abs(p - fold.parameter) for p in unrecorded[0]) < 1e-4


def test_multistability_energy_ordering_vs_unstable_neighbor(lj_diagram):
    """Companion to the energy-ordering criterion: the unstable neighbour.

    At the same area the solution set holds three points: trivial (stable),
    the small-amplitude isosceles state (unstable) and the large-amplitude
    isosceles state (stable).  The trivial energy separates them: above the
    stable nontrivial state, below the unstable one.
    """
    diagram, _ = lj_diagram
    _, iso = _primary_isosceles(diagram)
    _, _, mid, trivial_state, stable_pt = _multistability_data(diagram)
    unstable_pt = _corrected_isosceles(iso, mid, "unstable")
    assert classify_point3(LJ, np.asarray(unstable_pt.state), mid).stability == "unstable"
    e_trivial = energy(TRIANGLE, LJ, trivial_state)
    e_unstable = energy(TRIANGLE, LJ, np.asarray(unstable_pt.state))
    e_stable = energy(TRIANGLE, LJ, np.asarray(stable_pt.state))
    assert e_stable < e_trivial < e_unstable
    print(f"\nEnergy ordering at A={mid:.5f}: stable isosceles {e_stable:.10f} < "
          f"trivial {e_trivial:.10f} < unstable isosceles {e_unstable:.10f}")


def test_criterion_5_buckingham_turning_point(buck_diagram):
    diagram, elapsed = buck_diagram
    assert sum(1 for ev in diagram.events if ev.kind == "primary") == 2
    assert len(diagram.branches) >= 7  # trivial + two orbits of three
    first_primary = min(ev.parameter for ev in diagram.events if ev.kind == "primary")
    branch_ids = set()
    for ev in diagram.events:
        if ev.kind == "primary" and abs(ev.parameter - first_primary) < 1e-9:
            branch_ids = {br.id for br in diagram.branches if br.parent_event == ev.id}
    turnings = [ev.parameter for ev in diagram.events
                if ev.kind == "turning" and ev.source_branch in branch_ids]
    assert any(abs(t - 46.0) <= 1.0 for t in turnings)
    assert elapsed < 30.0
    hit = next(t for t in turnings if abs(t - 46.0) <= 1.0)
    print(f"\nACCEPTANCE 5: PASS  turning point at A = {hit:.4f}; {elapsed:.1f}s")


def test_criterion_6_orbit_counts(lj_diagram, soft_tetra_diagram):
    diagram, _ = lj_diagram
    primary = next(ev for ev in diagram.events if ev.kind == "primary")
    triangle_count = sum(1 for br in diagram.branches if br.parent_event == primary.id)
    assert triangle_count == 3

    tetra = soft_tetra_diagram
    roots = stability_boundaries4(SOFT, (0.5, 4.0))
    v1_formula = math.sqrt(1.0 / (243 * 0.1 ** 3))
    assert abs(roots[0].parameter - v1_formula) < 1e-9
    assert abs(roots[0].parameter - 2.0286) < 1e-3
    mu1_ev = next(ev for ev in tetra.events
                  if ev.kind == "primary" and abs(ev.parameter - v1_formula) < 1e-6)
    mu2_ev = next(ev for ev in tetra.events
                  if ev.kind == "primary" and abs(ev.parameter - 8.0 / 3.0 * 1.0) < 1e-6)
    counts = Counter(br.label for br in tetra.branches if br.parent_event == mu1_ev.id)
    assert counts == {"opposite-pair": 3, "apex-base": 4}
    mu2_count = sum(1 for br in tetra.branches if br.parent_event == mu2_ev.id)
    assert mu2_count == 3
    print(f"\nACCEPTANCE 6: PASS  triangle primary -> 3 branches; tetra families 3 + 4 at "
          f"V = {roots[0].parameter:.4f}, 3 at V = {roots[1].parameter:.4f}")


def test_criterion_7_tetra_thresholds():
    roots = stability_boundaries4(LJ, (0.05, 5.0))
    v0_formula = math.sqrt(2.0) / 12.0 * 2.5 ** 0.5
    assert len(roots) == 1
    assert abs(roots[0].parameter - 0.186339) < 1e-5
    assert abs(roots[0].parameter - v0_formula) < 1e-9

    assert stability_boundaries4(HOOKE, (0.1, 50.0)) == []
    hooke = build_diagram("tetrahedron", HOOKE, (0.1, 50.0),
                          ContinuationSettings(h_max=0.2))
    assert hooke.events == []
    assert len(hooke.branches) == 1
    assert all(pt.stability == "stable" for pt in hooke.branches[0].points)
    print(f"\nACCEPTANCE 7: PASS  V0 = {roots[0].parameter:.6f}; Hooke tetra emits no events "
          f"on [0.1, 50]")


def test_criterion_9_determinism(tmp_path):
    settings = ContinuationSettings(h_max=0.2)
    blobs = []
    for _ in range(2):
        diagram = build_diagram("triangle", BUCK, (1.0, 100.0), settings)
        blobs.append((export(diagram, "json"), export(diagram, "csv")))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]
    print(f"\nACCEPTANCE 9: PASS  byte-identical JSON ({len(blobs[0][0])} bytes) and CSV "
          f"({len(blobs[0][1])} bytes)")
