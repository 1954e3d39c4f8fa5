from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cluster_bifurc import cli, symmetry
from cluster_bifurc.cli import build_diagram
from cluster_bifurc.cluster import ClusterProblem, margin
from cluster_bifurc.continuation import Branch, BranchPoint, ContinuationSettings
from cluster_bifurc.potentials import LennardJones, PolynomialSpring
from cluster_bifurc.symmetry import (
    Perm,
    PermGroup,
    fixed_projection,
    fixed_projection_exact,
    fixed_space,
    isotropy,
    orbit,
    tetra_group,
    triangle_group,
)
from cluster_bifurc.tetrahedron import TETRAHEDRON, cayley_menger, jacobian4, residual4
from cluster_bifurc.triangle import TRIANGLE, jacobian3, residual3

LJ = LennardJones(1, 2, 12, 6)
F = Fraction
ISOSCELES = (TRIANGLE, "isosceles")
OPPOSITE_PAIR = (TETRAHEDRON, "opposite-pair")
APEX = (TETRAHEDRON, "apex-base")
EQUAL_PAIR = (TETRAHEDRON, "equal-pair")


def family_subgroup(geometry, name):
    """The isotropy subgroup of the named family's representative vector."""
    return isotropy(geometry.families.group(), geometry.families.families[name])


def edge_perm(sources):
    return Perm.from_edge_sources(tuple(sources))


def test_group_orders_and_identity():
    tri = triangle_group()
    tet = tetra_group()
    assert len(tri) == 6
    assert len(tet) == 24
    assert Perm.identity(4) in tri.elements
    assert Perm.identity(7) in tet.elements


def test_perm_algebra():
    p = edge_perm([1, 0, 2])  # swap a, b
    assert p @ p == Perm.identity(4)
    assert p.inverse() == p
    assert np.allclose(p.matrix() @ p.matrix().T, np.eye(4))
    assert p.matrix()[0, 0] == 1.0  # multiplier stays put
    with pytest.raises(ValueError):
        Perm((1, 0, 2, 3))  # must fix the first coordinate
    with pytest.raises(ValueError):
        PermGroup((p,))  # not closed (no identity)


def test_tetra_group_preserves_cayley_menger():
    rng = np.random.default_rng(41)
    e = 1.0 + 0.2 * rng.uniform(-1, 1, 6)
    g0 = cayley_menger(e)
    for P in tetra_group():
        img = P.apply(np.concatenate([[0.0], e]))[1:]
        assert abs(cayley_menger(img) - g0) < 1e-12 * abs(g0)


def test_triangle_isotropy_swap():
    H = isotropy(triangle_group(), (0.0, -2.0, 1.0, 1.0))
    assert len(H) == 2
    assert edge_perm([0, 2, 1]) in H.elements  # swap b, c


def test_tetra_isotropy_pair_vector():
    H = isotropy(tetra_group(), (0, 0, 0, -1.0, 0, 0, 1.0))
    assert len(H) == 4
    # the four tabulated permutations, written as image tuples of (a,b,c,A,B,C)
    expected = {
        edge_perm([0, 1, 2, 3, 4, 5]),
        edge_perm([1, 0, 2, 4, 3, 5]),   # (b, a, c, B, A, C)
        edge_perm([4, 3, 2, 1, 0, 5]),   # (B, A, c, b, a, C)
        edge_perm([3, 4, 2, 0, 1, 5]),   # (A, B, c, a, b, C)
    }
    assert set(H.elements) == expected


def test_tetra_isotropy_apex_vector():
    H = isotropy(tetra_group(), (0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0))
    assert len(H) == 6
    for p in H.elements:
        # same permutation on (a,b,c) and (A,B,C)
        srcs = p.sources[1:]
        assert tuple(s - 3 for s in srcs[3:]) == srcs[:3]


def test_tetra_isotropy_equal_pair_vector():
    """The stabilizer of (0,-2,1,1,-2,1,1) is the order-8 axis stabilizer.

    It strictly contains the six tabulated elements (the tabulated set is not
    closed: its third element has order four), and only the eight-element
    average reproduces the reference projection with the 1/2 block.
    """
    H = isotropy(tetra_group(), (0, -2.0, 1.0, 1.0, -2.0, 1.0, 1.0))
    assert len(H) == 8
    tabulated = {
        edge_perm([0, 1, 2, 3, 4, 5]),
        edge_perm([0, 2, 1, 3, 5, 4]),   # (a, c, b, A, C, B)
        edge_perm([3, 5, 1, 0, 2, 4]),   # (A, C, b, a, c, B)
        edge_perm([3, 1, 5, 0, 4, 2]),   # (A, b, C, a, B, c)
        edge_perm([3, 4, 2, 0, 1, 5]),   # (A, B, c, a, b, C)
        edge_perm([3, 2, 4, 0, 5, 1]),   # (A, c, B, a, C, b)
    }
    assert tabulated <= set(H.elements)
    third = edge_perm([3, 5, 1, 0, 2, 4])
    order = 1
    q = third
    while q != Perm.identity(7):
        q = q @ third
        order += 1
    assert order == 4  # so a closed subgroup containing it cannot have order 6


def test_projection_triangle_printed_matrix():
    exact = fixed_projection_exact(family_subgroup(*ISOSCELES))
    assert exact == (
        (F(1), F(0), F(0), F(0)),
        (F(0), F(1), F(0), F(0)),
        (F(0), F(0), F(1, 2), F(1, 2)),
        (F(0), F(0), F(1, 2), F(1, 2)),
    )


def test_projection_tetra_printed_matrices():
    q, t, h = F(1, 4), F(1, 3), F(1, 2)
    pair = fixed_projection_exact(family_subgroup(*OPPOSITE_PAIR))
    assert pair == (
        (F(1), F(0), F(0), F(0), F(0), F(0), F(0)),
        (F(0), q, q, F(0), q, q, F(0)),
        (F(0), q, q, F(0), q, q, F(0)),
        (F(0), F(0), F(0), F(1), F(0), F(0), F(0)),
        (F(0), q, q, F(0), q, q, F(0)),
        (F(0), q, q, F(0), q, q, F(0)),
        (F(0), F(0), F(0), F(0), F(0), F(0), F(1)),
    )
    apex = fixed_projection_exact(family_subgroup(*APEX))
    assert apex == (
        (F(1), F(0), F(0), F(0), F(0), F(0), F(0)),
        (F(0), t, t, t, F(0), F(0), F(0)),
        (F(0), t, t, t, F(0), F(0), F(0)),
        (F(0), t, t, t, F(0), F(0), F(0)),
        (F(0), F(0), F(0), F(0), t, t, t),
        (F(0), F(0), F(0), F(0), t, t, t),
        (F(0), F(0), F(0), F(0), t, t, t),
    )
    eqp = fixed_projection_exact(family_subgroup(*EQUAL_PAIR))
    assert eqp == (
        (F(1), F(0), F(0), F(0), F(0), F(0), F(0)),
        (F(0), h, F(0), F(0), h, F(0), F(0)),
        (F(0), F(0), q, q, F(0), q, q),
        (F(0), F(0), q, q, F(0), q, q),
        (F(0), h, F(0), F(0), h, F(0), F(0)),
        (F(0), F(0), q, q, F(0), q, q),
        (F(0), F(0), q, q, F(0), q, q),
    )


def test_projection_idempotent_symmetric_exact():
    for geometry, name in (ISOSCELES, OPPOSITE_PAIR, APEX, EQUAL_PAIR):
        subgroup = family_subgroup(geometry, name)
        P = fixed_projection_exact(subgroup)
        n = len(P)
        for i in range(n):
            for j in range(n):
                assert P[i][j] == P[j][i]
                assert sum(P[i][k] * P[k][j] for k in range(n)) == P[i][j]
        v = np.asarray(geometry.families.families[name])
        assert np.max(np.abs(fixed_projection(subgroup) @ v - v)) < 1e-14


def test_reduced_jacobian_simple_eigenvalue_triangle():
    P = fixed_projection(family_subgroup(*ISOSCELES))
    for A in (0.4, 0.5877, 1.1):
        L = P @ jacobian3(LJ, ClusterProblem(TRIANGLE, LJ).trivial_state(A)) @ P
        v = np.array([0.0, -2.0, 1.0, 1.0])
        assert np.max(np.abs(L @ v - margin(TRIANGLE, LJ, A, 3) * v)) < 1e-10 * max(1.0, np.abs(L).max())
    # reduced residual of a fixed-space zero is a full-system zero
    x = ClusterProblem(TRIANGLE, LJ).trivial_state(0.7)
    assert np.max(np.abs(P @ residual3(LJ, x, 0.7))) < 1e-12


def test_reduced_jacobian_simple_eigenvalues_tetra():
    x = ClusterProblem(TETRAHEDRON, LJ).trivial_state(0.4)
    m1, m2 = (margin(TETRAHEDRON, LJ, 0.4, k) for k in (3, 7))
    scale = max(1.0, np.abs(jacobian4(LJ, x)).max())
    for family, vec, mu in (
        (OPPOSITE_PAIR, (0, 0, 0, -1.0, 0, 0, 1.0), m1),
        (APEX, (0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0), m1),
        (EQUAL_PAIR, (0, -2.0, 1.0, 1.0, -2.0, 1.0, 1.0), m2),
    ):
        P = fixed_projection(family_subgroup(*family))
        L = P @ jacobian4(LJ, x) @ P
        v = np.asarray(vec)
        assert np.max(np.abs(L @ v - mu * v)) < 1e-10 * scale


def _branch_from_states(states):
    return Branch.from_points([
        BranchPoint(state=tuple(s), parameter=0.5, arclength=float(i),
                    stability="stable", shape="", index=0)
        for i, s in enumerate(states)
    ])


def test_orbit_counts_triangle():
    # an isosceles arc (b = c) maps to exactly three distinct branches
    states = [(-(1.0 + 0.1 * k), 1.0 + 0.1 * k, 0.9, 0.9) for k in range(4)]
    images = orbit(TRIANGLE.families, _branch_from_states(states))
    assert len(images) == 3


def test_orbit_counts_tetra_families():
    pair = [(-1.0, 1.0, 1.0, 0.8 + 0.02 * k, 1.0, 1.0, 1.3 - 0.02 * k) for k in range(4)]
    assert len(orbit(TETRAHEDRON.families, _branch_from_states(pair))) == 6  # one wing only
    # a full pitchfork branch through the symmetric point maps to 3: the
    # reversing symmetry folds the two wings onto each other
    sym = [(-1.0, 1.0, 1.0, 1.0 + 0.02 * k, 1.0, 1.0, 1.0 - 0.02 * k) for k in range(-3, 4)]
    assert len(orbit(TETRAHEDRON.families, _branch_from_states(sym))) == 3
    apex = [(-1.0, 1.1, 1.1, 1.1, 0.9 + 0.01 * k, 0.9 + 0.01 * k, 0.9 + 0.01 * k) for k in range(4)]
    assert len(orbit(TETRAHEDRON.families, _branch_from_states(apex))) == 4
    eqp = [(-1.0, 1.2 + 0.01 * k, 0.9, 0.9, 1.2 + 0.01 * k, 0.9, 0.9) for k in range(4)]
    assert len(orbit(TETRAHEDRON.families, _branch_from_states(eqp))) == 3


def test_orbit_copies_stability_and_parameter():
    states = [(-1.0, 1.2, 0.9, 0.9)]
    images = orbit(TRIANGLE.families, _branch_from_states(states))
    for img in images:
        assert img.points[0].stability == "stable"
        assert img.points[0].parameter == 0.5


def test_orbit_images_alias_read_only_columns_and_keep_only_their_states():
    states = [(-(1.0 + 0.1 * k), 1.0 + 0.1 * k, 0.9, 0.9) for k in range(4)]
    source = _branch_from_states(states)
    images = orbit(TRIANGLE.families, source)
    assert all(np.shares_memory(img.index, source.index) for img in images)
    with pytest.raises(ValueError, match="read-only"):
        images[1].index[1] += 1
    with pytest.raises(TypeError):
        images[1].stability[1] = "unstable"
    assert source.index.flags.writeable
    # the six group images are computed, but only the three kept are held
    root = images[0].states
    while root.base is not None:
        root = root.base
    assert root.nbytes == len(images) * source.states.nbytes


def test_equivariance_full_group_both_systems():
    rng = np.random.default_rng(42)
    for _ in range(50):
        x3 = np.concatenate([[rng.uniform(-2, 2)], rng.uniform(0.6, 1.6, 3)])
        F3 = residual3(LJ, x3, 0.9)
        for P in triangle_group():
            assert np.max(np.abs(residual3(LJ, P.apply(x3), 0.9) - P.apply(F3))) < 1e-12
        x4 = np.concatenate([[rng.uniform(-2, 2)], 1.0 + 0.15 * rng.uniform(-1, 1, 6)])
        F4 = residual4(LJ, x4, 0.2)
        for P in tetra_group():
            assert np.max(np.abs(residual4(LJ, P.apply(x4), 0.2) - P.apply(F4))) < 1e-12


def test_scalene_triangle_crosses_the_three_isosceles_lines():
    normals, projections = fixed_space(triangle_group(), (Perm.identity(4),))[1:]
    expected = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        u = np.zeros(4)
        u[i], u[j] = 1.0, -1.0
        expected.append(u / np.sqrt(2.0))
    assert len(normals) == 3
    for u in normals:
        assert sum(np.allclose(u, e, rtol=0, atol=1e-15) or np.allclose(u, -e, rtol=0, atol=1e-15)
                   for e in expected) == 1
    # each projection is onto the isosceles line the normal measures the distance to
    for u, Q in zip(normals, projections):
        assert np.allclose(Q, np.eye(4) - np.outer(u, u), rtol=0, atol=1e-15)


@pytest.mark.parametrize("family", [ISOSCELES, OPPOSITE_PAIR, APEX, EQUAL_PAIR, (TETRAHEDRON, None)],
                         ids=lambda f: f[1] or "tetrahedron-identity")
def test_crossing_normals_are_unit_vectors_of_fix_s_orthogonal_to_fix_s_prime(family):
    geometry, name = family
    group = geometry.families.group()
    subgroup = family_subgroup(*family).elements if name else (Perm.identity(group.n),)
    normals, projections = fixed_space(group, subgroup)[1:]
    # each named branch has one more symmetric neighbour; a tetrahedron with no symmetry has
    # none: the largest fixed space of a non-identity element, a vertex transposition's,
    # has codimension 2, as the transposition swaps two pairs of edges
    assert len(normals) == (1 if name else 0)
    P = fixed_projection(subgroup)
    for u, Q in zip(normals, projections):
        assert abs(u @ u - 1.0) < 1e-15
        assert np.max(np.abs(Q + np.outer(u, u) - P)) < 1e-15  # P(S) = P(S') + u u^t
        assert np.max(np.abs(P @ u - u)) < 1e-15  # in Fix(S)
        assert np.max(np.abs(Q @ u)) < 1e-15  # orthogonal to Fix(S')
        assert round(float(np.trace(P) - np.trace(Q))) == 1  # Fix(S') has codimension 1
        # S' is larger than S: its fixed space lies inside Fix(S)
        assert np.max(np.abs(P @ Q - Q)) < 1e-15


def test_crossing_normals_are_read_only():
    for array in fixed_space(triangle_group(), (Perm.identity(4),)):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


def test_fixed_spaces_are_built_once_per_isotropy_type(monkeypatch):
    built = Counter()
    project = symmetry.fixed_projection

    def counting(subgroup):  # called once by each build of a fixed space
        built[subgroup[0].n, subgroup] += 1
        return project(subgroup)

    monkeypatch.setattr(symmetry, "fixed_projection", counting)
    symmetry._build_crossings.cache_clear()
    try:
        # every switched branch starts a trace, two at a time on the thread pool
        for _ in range(2):
            build_diagram("triangle", LJ, (0.3, 0.9), ContinuationSettings(h_max=0.2))
            build_diagram("tetrahedron", LJ, (0.05, 0.5), ContinuationSettings())
    finally:
        symmetry._build_crossings.cache_clear()
    triangle_types = {subgroup for n, subgroup in built if n == 4}
    assert triangle_types == {(Perm.identity(4),), family_subgroup(*ISOSCELES).elements}
    assert len(built) > len(triangle_types)
    assert set(built.values()) == {1}


def _reference_orbit(group, branch, tol=1e-9):
    """`orbit` as a loop over group elements and points, kept as the reference."""
    base_states = [np.asarray(pt.state, dtype=float) for pt in branch.points]
    images, image_states = [], []

    def same(states, other):
        return len(other) == len(states) and all(np.max(np.abs(a - b)) < tol for a, b in zip(states, other))

    for p in group:
        mapped = [p.apply(s) for s in base_states]
        if any(same(mapped, other) or same(mapped, other[::-1]) for other in image_states):
            continue
        images.append(Branch.from_points([replace(pt, state=tuple(float(x) for x in s))
                                     for s, pt in zip(mapped, branch.points)]))
        image_states.append(mapped)
    return images


def _relabeled(images, families):
    return [Branch.from_points([replace(pt, shape=families.shapes(pt.state)[0]) for pt in image.points])
            for image in images]


def _switched_branches(monkeypatch, problem, spec, window, settings):
    """The branches `build_diagram` expands to orbits, with the family table it uses."""
    calls = []

    def recording(families, branch, *args, **kwargs):
        calls.append((families, branch))
        return orbit(families, branch, *args, **kwargs)

    monkeypatch.setattr(cli, "orbit", recording)
    build_diagram(problem, spec, window, settings)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("problem, spec, window, settings", [
    ("triangle", LJ, (0.3, 0.9), ContinuationSettings(h_max=0.2)),
    ("tetrahedron", PolynomialSpring(1, -0.1), (0.5, 4.0), ContinuationSettings(h_max=0.05, max_points=400)),
], ids=["lennard-jones-triangle", "soft-spring-tetrahedron"])
def test_orbit_matches_the_per_element_reference_on_switched_branches(monkeypatch, problem, spec, window,
                                                                      settings):
    calls = _switched_branches(monkeypatch, problem, spec, window, settings)
    assert len(calls) >= 2
    self_reversed = 0
    for families, branch in calls:
        group = families.group()
        want = _reference_orbit(group, branch)
        assert orbit(families, branch) == _relabeled(want, families)
        # some element maps the branch onto its own reversal, so its orbit is smaller
        states = np.array([pt.state for pt in branch.points])
        self_reversed += len(states) > 1 and any(
            np.all(np.abs(states[::-1][:, list(p.sources)] - states) < 1e-9) for p in group)
    assert self_reversed >= 1


@pytest.mark.parametrize("geometry", [TRIANGLE, TETRAHEDRON], ids=["triangle", "tetrahedron"])
def test_orbit_of_a_short_branch_matches_the_reference(geometry):
    families = geometry.families
    group = families.group()
    empty = Branch.from_points([])
    assert orbit(families, empty) == _reference_orbit(group, empty) == [Branch.from_points([])]
    n_edges = group.n - 1
    for edges in ([1.0] * n_edges, [1.0 + 0.1 * i for i in range(n_edges)]):
        one = _branch_from_states([(-1.0, *edges)])
        want = _reference_orbit(group, one)
        assert orbit(families, one) == _relabeled(want, families)
        assert len(want) == len({img.points[0].state for img in want})
    assert len(orbit(families, _branch_from_states([(-1.0, *[1.0] * n_edges)]))) == 1


def _subgroups(group):
    """Every subgroup of `group`, as the closures of its element pairs (D3 and S4 are 2-generated)."""
    return {frozenset(symmetry._closure((p, q))) for p in group for q in group}


def _conjugates(group, subgroup):
    return {frozenset(g @ h @ g.inverse() for h in subgroup) for g in group}


@pytest.mark.parametrize("geometry, k, orders", [
    (TRIANGLE, 3, {2}), (TETRAHEDRON, 3, {4, 6}), (TETRAHEDRON, 7, {8}),
], ids=["triangle-sigma3", "tetrahedron-sigma3", "tetrahedron-sigma7"])
def test_axial_subgroups_of_each_kernel_are_the_classes_of_its_families(geometry, k, orders):
    # the equivariant branching lemma: one branch per axial subgroup, an
    # isotropy subgroup whose fixed space meets the kernel in a line
    group = geometry.families.group()
    subgroups = _subgroups(group)
    assert len(subgroups) == {6: 6, 24: 30}[len(group)]
    row = geometry.margins[k]
    kernel = np.array(row.kernel).T
    axial = set()
    for sub in subgroups:
        fixed = fixed_projection(sub) @ kernel  # spans Fix(sub) in the invariant kernel
        if np.linalg.matrix_rank(fixed, tol=1e-12) == 1:
            v = fixed[:, np.argmax(np.abs(fixed).sum(axis=0))]
            if frozenset(isotropy(group, v).elements) == sub:
                axial.add(sub)
    families = set().union(*(_conjugates(group, family_subgroup(geometry, name).elements)
                             for name in row.reductions))
    assert axial == families
    assert {len(sub) for sub in axial} == orders
