"""Golden event sets: whole diagram builds whose events must not move.

Each list is the sorted (kind, parameter) event set of the build, first
recorded with a row-at-a-time pivoted LU and a Jacobi eigensolver.  The
kernels are now `numpy.linalg.solve` and LAPACK `eigh`, and every traced
branch is projected onto its fixed-point space, so no event depends on how
a solver rounds.  A change that alters what counts as singular, or how an
eigenvector is oriented, shows here as a missing, extra or shifted event.

The two Lennard-Jones sets were recorded once traces ended at the branch
points they reach.  The triangle at h_max=0.01 has the four events that
the tracer gave before that change at h_max 0.05, 0.2 and 0.5; at 0.01 it
used to add six echoes from switched branches that ran back onto known
ones.  The tetrahedron used to report one more "secondary" at 0.186339,
the primary point itself, reached again by a switched branch.  Since
switched traces end where they cross into a larger fixed-point space, the
branch switched at 0.200348 ends on an image of the 0.276375 point, which
is then not switched again; the six branches that switch gave were arcs of
the same bridge.  The tetrahedron diagram has 14 branches at every h_max
(`test_hmax_invariance.py`).

Every branch switch is the first arclength step of its trace: both halves
start at the event point, along the bifurcating branch's tangent and its
negative.  On the Buckingham triangle the switch at the 74.2253 primary is
traced: its lower leg turns at the fold 74.000512 and comes back as the
stable isosceles state above it.  The fold, and the states on both legs,
agree with the numpy-only oracle of `test_buckingham_oracle.py`.  The
census counts the points of the halves traced from their events; it was
last recorded when they replaced the halves traced from pinned-amplitude
seeds, which put 2,102 points on the Lennard-Jones triangle and 1,478 on
the soft-spring tetrahedron, against 2,090 and 1,452 now.
"""

from collections import Counter

import pytest

from cluster_bifurc.cli import build_diagram
from cluster_bifurc.continuation import ContinuationSettings
from cluster_bifurc.potentials import Buckingham, LennardJones, PolynomialSpring

GOLDEN = {
    "buckingham-triangle": (
        ("triangle", Buckingham(1, 1, 1, 4), (1.0, 100.0), ContinuationSettings(h_max=0.2)),
        [("primary", 5.315398), ("primary", 74.225313), ("secondary", 9.840963),
         ("turning", 4.494281), ("turning", 46.04417), ("turning", 74.000512)],
    ),
    "soft-spring-tetrahedron": (
        ("tetrahedron", PolynomialSpring(1, -0.1), (0.5, 4.0),
         ContinuationSettings(h_max=0.05, max_points=400)),
        [("primary", 2.028602), ("primary", 2.666667), ("secondary", 2.276626),
         ("turning", 2.108185), ("turning", 2.704803)],
    ),
    "lennard-jones-triangle-fine": (
        ("triangle", LennardJones(1, 2, 12, 6), (0.3, 0.9), ContinuationSettings(h_max=0.01)),
        [("primary", 0.587689), ("secondary", 0.625072), ("secondary", 0.667039),
         ("turning", 0.585663)],
    ),
    "lennard-jones-tetrahedron": (
        ("tetrahedron", LennardJones(1, 2, 12, 6), (0.05, 0.5), ContinuationSettings()),
        [("primary", 0.186339), ("secondary", 0.200348), ("secondary", 0.276375),
         ("turning", 0.184010)],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_event_set(name):
    args, expected = GOLDEN[name]
    events = sorted((ev.kind, ev.parameter) for ev in build_diagram(*args).events)
    assert [kind for kind, _ in events] == [kind for kind, _ in expected]
    for (_, got), (_, want) in zip(events, expected):
        assert abs(got - want) < 1e-6


def test_lennard_jones_tetrahedron_bridge_is_traced_once():
    args, _ = GOLDEN["lennard-jones-tetrahedron"]
    diagram = build_diagram(*args)
    secondary = {round(ev.parameter, 6): ev.id for ev in diagram.events if ev.kind == "secondary"}
    parents = {b.parent_event for b in diagram.branches}
    assert secondary[0.200348] in parents and secondary[0.276375] not in parents


# Points per shape label over every branch of two builds, orbit images included.
CENSUS = {
    "lennard-jones-triangle-fine": {"equilateral": 404, "isosceles(a=b)": 452, "isosceles(a=c)": 452,
                                    "isosceles(b=c)": 452, "scalene": 330},
    "soft-spring-tetrahedron": {"apex-base": 308, "equal-pair": 246, "opposite-pair": 486, "regular": 412},
}


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_golden_shape_census(name):
    args, _ = GOLDEN[name]
    census = Counter(pt.shape for br in build_diagram(*args).branches for pt in br.points)
    assert census == CENSUS[name]
