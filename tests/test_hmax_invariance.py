"""A diagram depends on the potential and the window, not on the step size
or on the last bits of the linear solver.

For the Lennard-Jones and Buckingham triangles, every `h_max` in a sane
range must give the same event multiset (kind, parameter to 1e-6) and the
same branch count as the finest step, and no branch is stored twice.  The
Lennard-Jones tetrahedron has 14 branches at every `h_max`.  Every switched
branch of the four fixtures ends exactly on a window edge or on a group
image of an event, passes through a group image of its own event, and
keeps one isotropy type between its junction and its end points; every
Buckingham branch switched at the 5.3154 primary ends on the window top,
A = 100.
A solver whose every solution is off by a relative 1e-13 (or 1e-10) leaves
the branch counts and the events as they are.
"""

from functools import lru_cache

import numpy as np
import pytest

from cluster_bifurc import continuation
from cluster_bifurc.cli import build_diagram, make_system
from cluster_bifurc.continuation import ContinuationSettings
from cluster_bifurc.potentials import Buckingham, LennardJones, PolynomialSpring
from test_step_size_corpus import (
    assert_switched_branches_keep_one_isotropy_type,
    assert_switched_branches_pass_through_their_events,
)

CASES = {
    "lennard-jones": ("triangle", LennardJones(1, 2, 12, 6), (0.3, 0.9)),
    "buckingham": ("triangle", Buckingham(1, 1, 1, 4), (1.0, 100.0)),
    "lennard-jones-tetrahedron": ("tetrahedron", LennardJones(1, 2, 12, 6), (0.05, 0.5)),
    "soft-spring-tetrahedron": ("tetrahedron", PolynomialSpring(1, -0.1), (0.5, 4.0)),
}
SETTINGS = {"soft-spring-tetrahedron": {"max_points": 400}}
LENNARD_JONES_EVENTS = [("primary", 0.587689), ("secondary", 0.625072), ("secondary", 0.667039),
                        ("turning", 0.585663)]
FINEST = 0.01
STEPS = [(name, h) for name in ("lennard-jones", "buckingham") for h in (0.5, 0.2, 0.05, 0.02)]


@lru_cache(maxsize=None)
def _diagram(name: str, h_max: float):
    problem, spec, window = CASES[name]
    return build_diagram(problem, spec, window, ContinuationSettings(h_max=h_max, **SETTINGS.get(name, {})))


def _events(diagram):
    return sorted((ev.kind, ev.parameter) for ev in diagram.events)


@pytest.mark.parametrize("name, h_max", STEPS)
def test_events_and_branch_count_match_the_finest_step(name, h_max):
    got, want = _diagram(name, h_max), _diagram(name, FINEST)
    assert len(got.branches) == len(want.branches)
    assert [kind for kind, _ in _events(got)] == [kind for kind, _ in _events(want)]
    for (_, p_got), (_, p_want) in zip(_events(got), _events(want)):
        assert abs(p_got - p_want) < 1e-6


ALL = STEPS + [(name, FINEST) for name in ("lennard-jones", "buckingham")]
TETRAHEDRON_STEPS = [("lennard-jones-tetrahedron", h) for h in (0.5, 0.2, 0.05)]


@pytest.mark.parametrize("name, h_max", TETRAHEDRON_STEPS)
def test_lennard_jones_tetrahedron_has_fourteen_branches(name, h_max):
    # each curve is stored once, whichever h_max the halves of the bridge
    # switched at 0.200348 were traced with
    assert len(_diagram(name, h_max).branches) == 14


@pytest.mark.parametrize("name, h_max", ALL + TETRAHEDRON_STEPS)
def test_no_two_branches_coincide(name, h_max):
    states = [np.array([pt.state for pt in b.points]) for b in _diagram(name, h_max).branches]
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            if a.shape != b.shape:
                continue
            tol = 1e-6 * np.maximum(1.0, np.abs(a))
            assert not np.all(np.abs(a - b) <= tol)
            assert not np.all(np.abs(a - b[::-1]) <= tol)


BUCKINGHAM_STEPS = [h for name, h in ALL if name == "buckingham"]


@pytest.mark.parametrize("h_max", BUCKINGHAM_STEPS)
def test_buckingham_needle_branches_reach_the_window_top(h_max):
    # the isosceles branches of the 5.3154 primary are needles (a ~ 1.95,
    # b = c ~ 100 at the top), where only a cancellation-free squared area
    # lets the corrector meet its absolute tolerance all the way up
    diagram = _diagram("buckingham", h_max)
    primary = [ev.id for ev in diagram.events if ev.kind == "primary" and abs(ev.parameter - 5.3154) < 1e-3]
    assert len(primary) == 1
    branches = [b for b in diagram.branches if b.parent_event == primary[0]]
    assert branches
    assert all(b.points[-1].parameter == 100.0 for b in branches), [b.points[-1].parameter for b in branches]


LENNARD_JONES_STEPS = [h for name, h in ALL if name == "lennard-jones"]


FIXTURE_STEPS = ALL + [("soft-spring-tetrahedron", 0.2), ("soft-spring-tetrahedron", 0.05),
                       ("lennard-jones-tetrahedron", 0.5), ("lennard-jones-tetrahedron", 0.2),
                       ("lennard-jones-tetrahedron", 0.05)]


@pytest.mark.parametrize("name, h_max", FIXTURE_STEPS)
def test_switched_half_branches_end_at_an_event_image_or_the_window_edge(name, h_max):
    # a trace that leaves the window ends exactly on the edge it crossed; one
    # that meets a more symmetric branch ends on a group image of its event
    diagram = _diagram(name, h_max)
    problem, spec, (lo, hi) = CASES[name]
    system = make_system(problem, spec)
    images = [np.append(P.apply(ev.state), ev.parameter) for ev in diagram.events for P in system.group()]
    for branch in diagram.branches:
        if branch.parent_event is None:
            continue
        for end in (branch.points[0], branch.points[-1]):
            z = end.z()
            at_edge = z[-1] in (lo, hi)
            at_event = any(np.max(np.abs(z - img)) <= 1e-8 * np.max(np.abs(img)) for img in images)
            assert at_edge or at_event, (branch.id, end.parameter)


@pytest.mark.parametrize("name, h_max", FIXTURE_STEPS)
def test_switched_branches_pass_through_their_event(name, h_max):
    problem, spec, _ = CASES[name]
    assert_switched_branches_pass_through_their_events(make_system(problem, spec), _diagram(name, h_max))


@pytest.mark.parametrize("name, h_max", FIXTURE_STEPS)
def test_switched_branches_keep_one_isotropy_type(name, h_max):
    problem, spec, _ = CASES[name]
    assert_switched_branches_keep_one_isotropy_type(make_system(problem, spec), _diagram(name, h_max))


@pytest.mark.parametrize("h_max", LENNARD_JONES_STEPS)
def test_the_scalene_bridge_is_traced_once(h_max):
    # the traces from the 0.625072 secondary reach an image of the 0.667039
    # one, so that point is not switched again
    diagram = _diagram("lennard-jones", h_max)
    secondary = {round(ev.parameter, 6): ev.id for ev in diagram.events if ev.kind == "secondary"}
    assert sorted(secondary) == [0.625072, 0.667039]
    scalene = {b.parent_event for b in diagram.branches if b.label == "scalene"}
    assert scalene == {secondary[0.625072]}
    assert len(diagram.branches) == 7


def _perturbed_solver(monkeypatch, rel):
    def solve(M, b):
        x = np.linalg.solve(M, b)
        return x * (1.0 + rel * np.linspace(-1.0, 1.0, len(x)))

    monkeypatch.setattr(continuation, "solve", solve)


@pytest.mark.parametrize("h_max", [0.5, 0.2, 0.05])
def test_lennard_jones_triangle_does_not_depend_on_solver_rounding(monkeypatch, h_max):
    _perturbed_solver(monkeypatch, 1e-13)
    problem, spec, window = CASES["lennard-jones"]
    diagram = build_diagram(problem, spec, window, ContinuationSettings(h_max=h_max))
    assert len(diagram.branches) == 7
    events = sorted((ev.kind, ev.parameter) for ev in diagram.events)
    assert [kind for kind, _ in events] == [kind for kind, _ in LENNARD_JONES_EVENTS]
    for (_, got), (_, want) in zip(events, LENNARD_JONES_EVENTS):
        assert abs(got - want) < 1e-6
    # the isosceles branches keep two equal edges bit for bit, but at their junction
    junction = {ev.id: ev.parameter for ev in diagram.events}
    isosceles = [b for b in diagram.branches if b.label.startswith("isosceles")]
    assert isosceles
    for branch in isosceles:
        for pt in branch.points[1:-1]:
            _, *e = pt.state
            assert len(set(e)) == 2 or pt.parameter == junction[branch.parent_event], pt


@pytest.mark.parametrize("rel", [1e-13, 1e-10])
def test_soft_spring_tetrahedron_does_not_depend_on_solver_rounding(monkeypatch, rel):
    _perturbed_solver(monkeypatch, rel)
    diagram = build_diagram("tetrahedron", PolynomialSpring(1, -0.1), (0.5, 4.0),
                            ContinuationSettings(h_max=0.05, max_points=400))
    assert len(diagram.branches) == 14
