"""Step-size invariance over a corpus of potentials.

A diagram should depend on the potential and the window, not on the step.
Every case is built at a coarse and a fine `h_max` (each trace starts with
the step min(continuation.H0, h_max)) and `max_points` 4000, and must give the same
events (kind, parameter to 6 significant digits, `kernel_dim`) and the same
branch count at both, with every exported point inside the window.  Every
end of a switched branch must also lie exactly on a window edge or within
1e-8 of a group image of an event, and every switched branch passes
through a group image of its own event and keeps one isotropy type
between its junction and its end points.

Buckingham triangles: 10 draws from each of `numpy.random.default_rng(3)`
and `default_rng(4)`, with alpha ~ U(0.5, 2), beta ~ U(0.5, 2),
gamma ~ U(0.2, 1.5) and eta ~ U(2.5, 6) drawn in that order; a draw whose
margins have no root on (0.2, 200) is replaced by the next one.  The window
runs from half the first root to min(1.4 x the last root, 200), or to
3 x the root when there is only one, and the steps are width/100 and
width/400.  Controls: cheap Lennard-Jones and soft-spring potentials, with
windows from 0.5 x the smallest to 1.6 x the largest closed-form threshold,
at width/50 and width/200.  The specs and windows are written out in full
precision, so the corpus does not depend on the generator or on the margin
scan.

A check that fails today is a strict xfail naming its defect and the
ROADMAP item expected to fix it.
"""

from functools import lru_cache

import numpy as np
import pytest

from cluster_bifurc.cli import build_diagram, make_system
from cluster_bifurc.continuation import ContinuationSettings
from cluster_bifurc.potentials import Buckingham, LennardJones, PolynomialSpring
from cluster_bifurc.symmetry import stabilizer

BUCKINGHAM = {  # (alpha, beta, gamma, eta), window
    "buckingham-3-0": ((0.6284737507154365, 0.8552157598941496, 1.2416568047683159, 4.537567126225287),
                       (3.393139928236618, 189.49530752818774)),
    "buckingham-3-1": ((0.6411929633605988, 1.1496904103547108, 0.8227666875830844, 3.059086201229775),
                       (2.9683723098462202, 34.04171587608915)),
    "buckingham-3-2": ((1.6018657271138217, 0.6705080298821051, 0.7085966476443606, 4.308590639174772),
                       (4.4644434662527175, 26.786660797516305)),
    "buckingham-3-3": ((1.1459420306212666, 1.380197857157211, 1.1591891234798084, 5.846935391926345),
                       (1.5968645777380828, 92.56957483147897)),
    "buckingham-3-4": ((0.9263017456231872, 1.4728208106197376, 1.105080795671202, 3.5245226215437047),
                       (4.05112897895257, 11.591060125393065)),
    "buckingham-3-5": ((1.8375666056677358, 1.377744409836362, 0.8127025647363808, 5.206469533770857),
                       (1.4226050652764473, 83.77024173584135)),
    "buckingham-3-6": ((1.4907501011418423, 1.8971957821120318, 0.4693485185053016, 4.7053156992487),
                       (1.1708034133746938, 23.98876774541929)),
    "buckingham-3-7": ((1.7448303114114685, 1.486478316309865, 1.0876385802184554, 5.370265125596873),
                       (1.442951823387198, 64.80342342660471)),
    "buckingham-3-8": ((1.7746525061992307, 1.0908909989485027, 0.8235891005659575, 3.0121709941536947),
                       (2.1102974289077236, 63.63849852732232)),
    "buckingham-3-9": ((1.5476395174206403, 0.9379679239817765, 1.3324808947316658, 3.46381031931827),
                       (2.9108015496143205, 100.4225288322653)),
    "buckingham-4-0": ((1.9145841583585514, 1.2669913292215425, 1.4691168174200153, 2.7829260836346075),
                       (2.0806669964799998, 29.449470358592315)),
    "buckingham-4-1": ((1.4110337479925446, 1.0647298765659088, 1.2424715690815493, 3.1108473565040997),
                       (2.6020023428269083, 55.948240905042205)),
    "buckingham-4-2": ((1.8074529112814846, 1.3159121011452473, 1.3728796036307849, 4.170037333437222),
                       (1.9304628558887915, 49.89519445177117)),
    "buckingham-4-3": ((1.9533993039743525, 1.8935395816481293, 0.4310003614905754, 4.630980658955917),
                       (1.0169886103280228, 26.684886553450017)),
    "buckingham-4-4": ((1.2468013981780617, 1.2404297509341724, 0.8502940461533697, 5.855038001382365),
                       (1.6060904377349923, 141.22811962768182)),
    "buckingham-4-5": ((1.024906099733382, 0.835656720167324, 0.878713102874882, 4.744098233877599),
                       (3.0808271809487007, 200.0)),
    "buckingham-4-6": ((1.9086605801360133, 1.3730237009705688, 0.548183407379065, 5.754211433578234),
                       (1.2666192385392818, 116.30679010000345)),
    "buckingham-4-7": ((1.2375879269187149, 1.5137012974002888, 0.8188505836180224, 3.2594300924769826),
                       (1.9690169870740108, 18.683364632700556)),
    "buckingham-4-8": ((1.538828067065841, 1.6559457246376157, 0.44802505683609894, 4.109706044619686),
                       (1.223081492378775, 30.635127571714715)),
    "buckingham-4-9": ((1.0427225898528638, 0.7560947291694122, 0.4877571578125234, 5.868775939642324),
                       (3.4569382599789886, 20.74162955987393)),
}
CONTROLS = {  # problem, potential, window
    "lennard-jones-a": ("triangle", LennardJones(1.0750533211782773, 1.5211830135499966,
                                                 5.415133427848024, 3.1887574583357976),
                        (0.6582086631337725, 2.106267722028072)),
    "lennard-jones-b": ("triangle", LennardJones(1.998764172597607, 2.1309227789699694,
                                                 6.343202995894208, 3.1706519875450883),
                        (0.7357628815263791, 2.3544412208844134)),
    "lennard-jones-c": ("triangle", LennardJones(0.6844585623307851, 0.629323079959438,
                                                 11.630668548118013, 5.379711814074078),
                        (0.3979063590656552, 1.2733003490100967)),
    "spring-tetrahedron-a": ("tetrahedron", PolynomialSpring(1.4047222250773428, -0.1056164792699553),
                             (1.5558044842424132, 6.5445059411501605)),
    "spring-tetrahedron-b": ("tetrahedron", PolynomialSpring(1.8048447675443242, -0.2022287983652015),
                             (0.8551890819125776, 3.5973607764146074)),
    "spring-triangle": ("triangle", PolynomialSpring(1.0886069965021672, -0.17674424531706434),
                        (0.8890070810293519, 2.8448226592939263)),
    "spring-tetrahedron-c": ("tetrahedron", PolynomialSpring(1.574111944405348, -0.0711549698773731),
                             (3.337432035753733, 14.038938701742396)),
}
CASES = {name: ("triangle", Buckingham(*params), window, (100, 400))
         for name, (params, window) in BUCKINGHAM.items()}
CASES.update({name: (problem, spec, window, (50, 200)) for name, (problem, spec, window) in CONTROLS.items()})

# (check, case) -> the defect that fails it and the ROADMAP item expected to fix it
DEFECTS = {
    ("steps", "buckingham-3-3"): "a turning at 53.4913 at width/400 and none at width/100; the fold, at "
                                 "53.75998 by an h_max=2e-3 trace, lies past the end of the width/400 "
                                 "step that turns across it (item 8)",
    ("steps", "buckingham-4-5"): "a width/100 step crosses the 149.272 fold with no tangent flip, and "
                                 "the fold is localized, unrefined, as a secondary at 149.254, which is "
                                 "not switched (item 8)",
    ("steps", "buckingham-4-6"): "width/100 steps show no tangent flip over the 69.6825 fold and are "
                                 "localized as secondaries at 69.535 (unrefined), 90.224 and 99.6776; "
                                 "the switch at 90.224 gives 10 branches against 7 (items 3 and 8)",
    ("ends", "spring-triangle"): "the soft-spring solutions are not isolated, so each half of the switch "
                                 "at the 1.77801 primary stops after one traced point, near A = 1.7778: "
                                 "the 3-point branches end far from any event (item 9)",
}


def _cases(check: str, names) -> list:
    return [pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=DEFECTS[check, name]))
            if (check, name) in DEFECTS else name for name in names]


@lru_cache(maxsize=None)
def _builds(name: str):
    problem, spec, (lo, hi), divisions = CASES[name]
    builds = []
    for n in divisions:
        h = (hi - lo) / n
        builds.append(build_diagram(problem, spec, (lo, hi),
                                    ContinuationSettings(h_max=h, max_points=4000)))
    return builds


def _events(diagram) -> list:
    return sorted((ev.kind, float(f"{ev.parameter:.6g}"), ev.kernel_dim) for ev in diagram.events)


@pytest.mark.parametrize("name", _cases("steps", CASES))
def test_events_and_branch_count_do_not_depend_on_the_step(name):
    coarse, fine = _builds(name)
    assert _events(coarse) == _events(fine)
    assert len(coarse.branches) == len(fine.branches)


@pytest.mark.parametrize("name", _cases("window", CASES))
def test_every_exported_point_lies_in_the_window(name):
    lo, hi = CASES[name][2]
    for diagram in _builds(name):
        outside = [pt.parameter for b in diagram.branches for pt in b.points if not lo <= pt.parameter <= hi]
        assert outside == []


@pytest.mark.parametrize("name", _cases("ends", CASES))
def test_switched_branches_end_on_a_window_edge_or_an_event_image(name):
    problem, spec, window, _ = CASES[name]
    system = make_system(problem, spec)
    for diagram in _builds(name):
        images = [np.append(P.apply(ev.state), ev.parameter) for ev in diagram.events for P in system.group()]
        for branch in diagram.branches:
            if branch.parent_event is None:
                continue
            for end in (branch.points[0], branch.points[-1]):
                z = end.z()
                at_event = any(np.max(np.abs(z - img)) <= 1e-8 * np.max(np.abs(img)) for img in images)
                assert z[-1] in window or at_event, (branch.id, end.parameter)


def assert_switched_branches_pass_through_their_events(system, diagram):
    """Every switched branch has a group image of its event's (x, p) as a row: both halves start there."""
    events = {ev.id: ev for ev in diagram.events}
    for branch in diagram.branches:
        if branch.parent_event is None:
            continue
        ev = events[branch.parent_event]
        rows = np.column_stack([branch.states, branch.parameters])
        images = [np.append(P.apply(ev.state), ev.parameter) for P in system.group()]
        assert any((rows == img).all(axis=1).any() for img in images), (branch.id, ev.parameter)


def assert_switched_branches_keep_one_isotropy_type(system, diagram):
    """Every switched branch's rows but its two ends and its junction, the
    rows at its event's parameter, have one isotropy order (`stabilizer`)."""
    junction = {ev.id: ev.parameter for ev in diagram.events}
    for branch in diagram.branches:
        if branch.parent_event is None:
            continue
        interior = branch.parameters != junction[branch.parent_event]
        interior[[0, -1]] = False
        orders = {mask.bit_count() for mask in stabilizer(system.group(), branch.states[interior]).tolist()}
        assert len(orders) <= 1, (branch.id, orders)


@pytest.mark.parametrize("name", _cases("through", CASES))
def test_switched_branches_pass_through_their_event(name):
    problem, spec, _, _ = CASES[name]
    for diagram in _builds(name):
        assert_switched_branches_pass_through_their_events(make_system(problem, spec), diagram)


@pytest.mark.parametrize("name", _cases("isotropy", CASES))
def test_switched_branches_keep_one_isotropy_type(name):
    problem, spec, _, _ = CASES[name]
    for diagram in _builds(name):
        assert_switched_branches_keep_one_isotropy_type(make_system(problem, spec), diagram)
