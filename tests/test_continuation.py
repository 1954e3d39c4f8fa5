import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cluster_bifurc import cli, cluster, continuation, potentials
from cluster_bifurc.cli import build_diagram
from cluster_bifurc.cluster import ClusterProblem, classify_stack
from cluster_bifurc.continuation import (
    BifurcationEvent,
    ContinuationSettings,
    CorrectorFailure,
    DomainExit,
    PseudoArclength,
    branch_switch,
    branch_tangent,
    concatenate_branches,
    dedup_events,
    detect_and_localize,
    metric_weights,
    newton_correct,
    trace_branch,
)
from cluster_bifurc.potentials import Buckingham, LennardJones, PolynomialSpring
from cluster_bifurc.symmetry import stabilizer
from cluster_bifurc.tetrahedron import TETRAHEDRON
from cluster_bifurc.triangle import TRIANGLE, stability_boundaries3

LJ = LennardJones(1, 2, 12, 6)
A0 = math.sqrt(3.0) / 4.0 * 2.5 ** (1.0 / 3.0)


def lj_system():
    return ClusterProblem(TRIANGLE, LJ)


def isosceles():
    """The isosceles family's representative vector: a direction to switch along at the primary."""
    return TRIANGLE.families.families["isosceles"]


def rising_tangent(system, point):
    """The unit tangent at a converged point, oriented up in the parameter."""
    return branch_tangent(system, np.asarray(point.state), point.parameter, np.eye(system.dim + 1)[-1])


def make_primary_event(system, parameter):
    return BifurcationEvent(
        kind="primary",
        parameter=parameter,
        kernel_dim=2,
        kernel=((0.0, -1.0, 1.0, 0.0), (0.0, -1.0, 0.0, 1.0)),
        state=tuple(system.trivial_state(parameter)),
        source_branch=0,
        refined=True,
        id=0,
    )


def test_settings_validation():
    # a bool passes every bound as 0 or 1, and an infinite step passes a plain comparison
    for h_max in (0.0, 1e-7, math.inf, math.nan, True):
        with pytest.raises(ValueError, match="h_max"):
            ContinuationSettings(h_max=h_max)
    for max_points in (1, 2.5, True):
        with pytest.raises(ValueError, match="max_points"):
            ContinuationSettings(max_points=max_points)
    assert ContinuationSettings(h_max=continuation.H_MIN).h_max == continuation.H_MIN


def test_newton_correct_trivial_is_instant():
    system = lj_system()
    point, its = newton_correct(system, system.trivial_state(0.5), 0.5)
    assert its <= 1
    assert np.max(np.abs(system.evaluate(np.asarray(point.state), 0.5)[0])) < continuation.NEWTON_TOL


def test_newton_correct_recovers_perturbation():
    system = lj_system()
    x = system.trivial_state(0.4)
    x[1] += 1e-3
    point, _ = newton_correct(system, x, 0.4)
    assert np.max(np.abs(np.asarray(point.state) - system.trivial_state(0.4))) < 1e-9


def test_newton_correct_domain_error():
    system = lj_system()
    with pytest.raises(DomainExit):
        newton_correct(system, [0.0, -1.0, 1.0, 1.0], 0.5)


class FlatTriangle(ClusterProblem):
    """The Lennard-Jones triangle with every Jacobian replaced by zeros."""

    def evaluate(self, x, p):
        F, J = super().evaluate(x, p)
        return F, np.zeros_like(J)


def test_singular_corrector_matrix_is_a_corrector_failure():
    system = FlatTriangle(TRIANGLE, LJ)
    x = system.trivial_state(0.4)
    x[1] += 1e-3
    with pytest.raises(CorrectorFailure, match="singular corrector matrix"):
        newton_correct(system, x, 0.4)
    with pytest.raises(CorrectorFailure, match="singular corrector matrix"):
        newton_correct(system, x, 0.4,
                       PseudoArclength(np.eye(5)[1], np.append(x, 0.4), 0.0))


def test_newton_correct_failure_on_hopeless_guess(monkeypatch):
    system = lj_system()
    monkeypatch.setattr(continuation, "NEWTON_MAX_ITERS", 3)
    with pytest.raises((CorrectorFailure, DomainExit)):
        newton_correct(system, [50.0, 9.0, 0.01, 5.0], 0.5)


def test_arclength_constraint_holds():
    system = lj_system()
    x0 = system.trivial_state(0.5)
    z0 = np.append(x0, 0.5)
    from cluster_bifurc.continuation import metric_weights
    w = metric_weights(z0)
    t = branch_tangent(system, x0, 0.5, np.array([0, 0, 0, 0, 1.0]), w)
    h = 1e-2
    point, _ = newton_correct(system, x0, 0.5,
                              PseudoArclength(w * t, z0, h))
    z1 = point.z()
    assert abs((w * t) @ (z1 - z0) - h) < 1e-9


# ---------------------------------------------------------------------------
# references: the corrector and tangent as they stood before the in-place
# bordered step, kept verbatim except that the corrector returns a tuple,
# reads its tolerance and iteration bound from `continuation`, and takes the
# constraint's row and origin as given


def _ref_bordered_matrix(system, J: np.ndarray, x: np.ndarray, p: float, row: np.ndarray) -> np.ndarray:
    n = system.dim
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = J
    M[:n, n] = system.parameter_derivative(x, p)
    M[n, :] = row
    return M


def _ref_newton_correct(system, state, parameter, constraint=None, projection=None):
    n = system.dim
    x = np.array(state, dtype=float)
    p = float(parameter)
    h = 0.0
    if constraint is not None:
        z_prev = np.asarray(constraint.origin, dtype=float)
        row = np.asarray(constraint.row, dtype=float)
        h = constraint.h
    res_norm = math.inf
    for it in range(continuation.NEWTON_MAX_ITERS + 1):
        if projection is not None:
            x = projection @ x
        if not system.in_domain(x):
            raise DomainExit(f"iterate left the domain at {system.param_name}={p:.6g}")
        F, J = system.evaluate(x, p)
        if not np.all(np.isfinite(F)):
            raise CorrectorFailure("non-finite residual", math.inf, it)
        res_norm = float(np.max(np.abs(F)))
        gap = 0.0 if constraint is None else row @ (np.append(x, p) - z_prev) - h
        if res_norm < continuation.NEWTON_TOL and abs(gap) < 1e-10 * max(1.0, abs(h)):
            if not system.feasible(x):
                raise DomainExit(f"converged point is infeasible at {system.param_name}={p:.6g}")
            return x, p, it, J
        if it == continuation.NEWTON_MAX_ITERS:
            break
        try:
            if constraint is None:
                x = x + np.linalg.solve(J, -F)
            else:
                step = np.linalg.solve(_ref_bordered_matrix(system, J, x, p, row), np.append(-F, -gap))
                x, p = x + step[:n], p + step[n]
        except np.linalg.LinAlgError as exc:
            raise CorrectorFailure(f"singular corrector matrix ({exc})", res_norm, it) from exc
    raise CorrectorFailure(
        f"no convergence in {continuation.NEWTON_MAX_ITERS} iterations (|F|={res_norm:.3e})",
        res_norm, continuation.NEWTON_MAX_ITERS)


def _ref_branch_tangent(system, x, p, t_prev, weights=None, J=None):
    n = system.dim
    w = np.ones(n + 1) if weights is None else weights
    if J is None:
        J = system.evaluate(x, p)[1]
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    M = _ref_bordered_matrix(system, J, x, p, w * t_prev)
    try:
        t = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        # reference direction happened to be orthogonal to the curve; nudge it
        bumped = w * t_prev + 1e-8 * np.ones(n + 1)
        try:
            t = np.linalg.solve(_ref_bordered_matrix(system, J, x, p, bumped), rhs)
        except np.linalg.LinAlgError:
            t = np.asarray(t_prev, dtype=float).copy()  # singular point: keep the caller's direction
    return t / np.sqrt((w * t) @ t)


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def _outcome(fn, *args, **kwargs):
    """fn's result, or (exception type, message, residual norm, iterations) when it raises."""
    try:
        return fn(*args, **kwargs)
    except (CorrectorFailure, DomainExit) as exc:
        return (type(exc), str(exc), getattr(exc, "residual_norm", None), getattr(exc, "iterations", None))


def _assert_same_correction(args, kwargs):
    got = _outcome(newton_correct, *args, **kwargs)
    want = _outcome(_ref_newton_correct, *args, **kwargs)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return want[0]
    x, p, it, J = want
    assert _bits(got.state) == _bits(x) and _bits(got.parameter) == _bits(p)
    assert got.iterations == got[1] == it
    assert got.jacobian.shape == J.shape and _bits(got.jacobian) == _bits(J)
    return None


@pytest.mark.parametrize("problem, spec, window, settings", [
    ("triangle", LJ, (0.3, 0.9), ContinuationSettings(h_max=0.1)),
    ("triangle", Buckingham(1, 1, 1, 4), (1.0, 100.0), ContinuationSettings(h_max=0.2)),
    ("tetrahedron", PolynomialSpring(1, -0.1), (0.5, 4.0), ContinuationSettings(h_max=0.05, max_points=60)),
])
def test_corrector_and_tangent_are_bit_identical_to_the_allocating_ones(monkeypatch, problem, spec,
                                                                         window, settings):
    # every corrector and tangent call of a whole build, replayed through the
    # references: the same iterate, parameter, iteration count and Jacobian,
    # or the same exception with the same message, norm and count
    corrections, tangents = [], []

    def correct(*args, **kwargs):
        corrections.append((args, kwargs))
        return newton_correct(*args, **kwargs)

    def tangent(*args, **kwargs):
        tangents.append((args, kwargs))
        return branch_tangent(*args, **kwargs)

    monkeypatch.setattr(continuation, "newton_correct", correct)
    monkeypatch.setattr(continuation, "branch_tangent", tangent)
    build_diagram(problem, spec, window, settings)
    monkeypatch.undo()
    kinds = Counter()
    for args, kwargs in corrections:
        failure = _assert_same_correction(args, kwargs)
        bordered = (args[3] if len(args) > 3 else kwargs.get("constraint")) is not None
        kinds[failure or ("bordered" if bordered else "square")] += 1
    for args, kwargs in tangents:
        assert _bits(branch_tangent(*args, **kwargs)) == _bits(_ref_branch_tangent(*args, **kwargs))
    assert kinds["bordered"] > 50 and len(tangents) > 50
    if problem == "triangle" and spec != LJ:
        assert kinds[CorrectorFailure] > 0  # the Buckingham build's corrections that stall


class _Infeasible(ClusterProblem):
    """The Lennard-Jones triangle on which no converged point is feasible."""

    def feasible(self, x):
        return False


def test_each_corrector_failure_matches_the_allocating_corrector(monkeypatch):
    system = lj_system()
    x0 = system.trivial_state(0.5)
    z0 = np.append(x0, 0.5)
    w = metric_weights(z0)
    t = branch_tangent(system, x0, 0.5, np.array([0, 0, 0, 0, 1.0]), w)
    arclength = PseudoArclength(w * t, z0, 1e-2)
    fix = system.fixed_space(x0)[0]
    guess = z0 + 1e-2 * t
    off = x0.copy()
    off[1] += 1e-3
    nan_state = x0.copy()
    nan_state[0] = math.nan
    variants = ({}, {"constraint": arclength}, {"constraint": arclength, "projection": fix})
    cases = [
        # the projection spreads the NaN multiplier into the edges, which leave the domain
        (lj_system(), nan_state, variants[:2], CorrectorFailure, "non-finite residual"),
        (lj_system(), nan_state, variants[2:], DomainExit, "iterate left the domain"),
        (lj_system(), np.array([0.0, -1.0, 0.5, -1.0]), variants, DomainExit, "iterate left the domain"),
        (_Infeasible(TRIANGLE, LJ), x0, variants, DomainExit, "converged point is infeasible"),
        (FlatTriangle(TRIANGLE, LJ), off, variants, CorrectorFailure, "singular corrector matrix"),
    ]
    for system_i, state, kwargs_list, kind, message in cases:
        for kwargs in kwargs_list:
            assert _assert_same_correction((system_i, state, 0.5), kwargs) is kind
            with pytest.raises(kind, match=message):
                newton_correct(system_i, state, 0.5, **kwargs)
    cases = ((system, off, 0.5), (system, guess[:-1], guess[-1], arclength),
             (system, guess[:-1], guess[-1], arclength, fix))
    with monkeypatch.context() as stalled:
        stalled.setattr(continuation, "NEWTON_MAX_ITERS", 1)
        for args in cases:
            assert _assert_same_correction(args, {}) is CorrectorFailure
            with pytest.raises(CorrectorFailure, match="no convergence in 1 iterations"):
                newton_correct(*args)
    for args in cases:
        assert _assert_same_correction(args, {}) is None


def test_tangent_orientation_is_stable():
    system = lj_system()
    x0 = system.trivial_state(0.5)
    t1 = branch_tangent(system, x0, 0.5, np.array([0, 0, 0, 0, 1.0]))
    t2 = branch_tangent(system, x0, 0.5, t1)
    assert t1 @ t2 > 0.99


def test_trace_trivial_branch_stability_flip():
    system = lj_system()
    settings = ContinuationSettings(h_max=0.02)
    start, _ = newton_correct(system, system.trivial_state(0.3), 0.3)
    tangent = rising_tangent(system, start)
    branch, events = trace_branch(system, start, tangent, settings, (0.3, 0.8),
                                  bifurcation_kind="primary")
    points = branch.points  # built on each access: read once
    flips = [
        0.5 * (points[i - 1].parameter + points[i].parameter)
        for i in range(1, len(points))
        if (points[i - 1].stability == "stable") != (points[i].stability == "stable")
    ]
    assert len(flips) == 1
    assert flips[0] == pytest.approx(0.5877, abs=1e-3)
    primaries = [ev for ev in events if ev.kind == "primary"]
    assert len(primaries) == 1
    assert primaries[0].parameter == pytest.approx(A0, abs=1e-8)
    assert primaries[0].kernel_dim == 2
    # residual invariant: every accepted point solves the system
    for pt in points[:: max(1, len(points) // 20)]:
        assert np.max(np.abs(system.evaluate(np.asarray(pt.state), pt.parameter)[0])) < continuation.NEWTON_TOL
    # stability changes only across the recorded event
    for i in range(1, len(points)):
        a, b = points[i - 1], points[i]
        if (a.stability == "stable") != (b.stability == "stable"):
            assert min(a.parameter, b.parameter) <= primaries[0].parameter <= max(a.parameter, b.parameter)


def test_trace_buckingham_trivial_stable_window():
    spec = Buckingham(1, 1, 1, 4)
    system = ClusterProblem(TRIANGLE, spec)
    settings = ContinuationSettings(h_max=0.2)
    start, _ = newton_correct(system, system.trivial_state(1.0), 1.0)
    tangent = rising_tangent(system, start)
    branch, events = trace_branch(system, start, tangent, settings, (1.0, 100.0),
                                  bifurcation_kind="primary")
    lo, hi = 5.3154, 74.2253
    for pt in branch.points:
        if lo + 1e-2 < pt.parameter < hi - 1e-2:
            assert pt.stability == "stable"
        elif pt.parameter < lo - 1e-2 or pt.parameter > hi + 1e-2:
            assert pt.stability == "unstable"
    primaries = sorted(ev.parameter for ev in events if ev.kind == "primary")
    assert len(primaries) == 2
    assert primaries[0] == pytest.approx(lo, abs=1e-3)
    assert primaries[1] == pytest.approx(hi, abs=1e-3)


def test_trace_hooke_emits_no_events():
    system = ClusterProblem(TRIANGLE, PolynomialSpring(1, 0))
    settings = ContinuationSettings(h_max=0.5)
    start, _ = newton_correct(system, system.trivial_state(0.1), 0.1)
    tangent = rising_tangent(system, start)
    branch, events = trace_branch(system, start, tangent, settings, (0.1, 100.0))
    assert events == []
    assert branch.points[-1].parameter > 99.0
    assert all(pt.stability == "stable" for pt in branch.points)


def test_trace_evaluates_each_iterate_and_each_point_once(monkeypatch):
    # the quiet Hooke trace above: every Newton iterate runs the constraint
    # kernel once, plus once at the start point, and every converged
    # correction is labeled at most once
    counts = Counter()

    def terms(e):
        counts["terms"] += 1
        return TRIANGLE.terms(e)

    def stack(geometry, states, jacobians):
        counts["labels"] += len(states)
        return classify_stack(geometry, states, jacobians)

    def correct(*args, **kwargs):
        out = newton_correct(*args, **kwargs)
        counts["corrections"] += 1
        counts["iterates"] += out[1] + 1
        return out

    system = ClusterProblem(replace(TRIANGLE, terms=terms), PolynomialSpring(1, 0))
    settings = ContinuationSettings(h_max=0.5)
    start, _ = newton_correct(system, system.trivial_state(0.1), 0.1)
    counts.clear()
    monkeypatch.setattr(cluster, "classify_stack", stack)
    monkeypatch.setattr(continuation, "newton_correct", correct)
    tangent = rising_tangent(system, start)
    branch, events = trace_branch(system, start, tangent, settings, (0.1, 100.0))
    assert events == [] and branch.points[-1].parameter > 99.0
    assert counts["corrections"] >= len(branch.points) - 1 > 25
    assert counts["corrections"] <= counts["terms"] <= counts["iterates"] + 1
    assert counts["labels"] <= counts["corrections"]


def test_trace_labels_only_the_points_it_keeps(monkeypatch):
    # the same quiet Hooke trace: the one correction past the A = 100 edge is
    # rejected unlabeled, a fixed-parameter correction puts the last point on
    # the edge, and the kept points are labeled in one stacked pass
    rows, calls = [], []

    def stack(geometry, states, jacobians):
        rows.append(len(states))
        return classify_stack(geometry, states, jacobians)

    def correct(*args, **kwargs):
        out = newton_correct(*args, **kwargs)
        calls.append((kwargs.get("constraint", args[3] if len(args) > 3 else None), out))
        return out

    system = ClusterProblem(TRIANGLE, PolynomialSpring(1, 0))
    settings = ContinuationSettings(h_max=0.5)
    start, _ = newton_correct(system, system.trivial_state(0.1), 0.1)
    monkeypatch.setattr(cluster, "classify_stack", stack)
    monkeypatch.setattr(continuation, "newton_correct", correct)
    corrected = newton_correct(system, system.trivial_state(0.2), 0.2)
    assert corrected[1] == corrected.iterations and rows == []
    assert corrected[0] is corrected.point and rows == [1]
    rows.clear()
    tangent = rising_tangent(system, start)
    branch, _ = trace_branch(system, start, tangent, settings, (0.1, 100.0))
    past = [i for i, (_, c) in enumerate(calls) if c.parameter > 100.0]
    assert len(past) == 1 and "point" not in vars(calls[past[0]][1])
    assert calls[past[0] + 1][0] is None and calls[past[0] + 1][1].parameter == 100.0
    assert past[0] + 2 == len(calls) and branch.points[-1].parameter == 100.0
    # one row for every point kept after the start point, which comes labeled
    assert rows == [len(branch.points) - 1]


@pytest.mark.parametrize("failures", [1, math.inf])
def test_a_failed_edge_correction_falls_back_to_a_shorter_step(monkeypatch, failures):
    # the fixed-parameter correction on the A = 100 edge raises once (or
    # always): the trace shrinks its step, retries, and ends in the window
    raised = Counter()

    def correct(system, state, parameter, *args, **kwargs):
        if parameter == 100.0 and raised["edge"] < failures:
            raised["edge"] += 1
            raise CorrectorFailure("refused at the edge")
        return newton_correct(system, state, parameter, *args, **kwargs)

    system = ClusterProblem(TRIANGLE, PolynomialSpring(1, 0))
    settings = ContinuationSettings(h_max=0.5)
    start, _ = newton_correct(system, system.trivial_state(0.1), 0.1)
    monkeypatch.setattr(continuation, "newton_correct", correct)
    tangent = rising_tangent(system, start)
    branch, events = trace_branch(system, start, tangent, settings, (0.1, 100.0))
    end = branch.points[-1].parameter
    assert events == [] and raised["edge"] >= 1 and 99.0 < end <= 100.0
    assert (end == 100.0) == (failures == 1)
    assert np.all(np.diff(branch.parameters) > 0.0)


def _switch_starts(system, ev, direction):
    """(start, tangent) of both halves of the switch at `ev`: the event point along t and -t."""
    start = continuation.classified_point(system, np.asarray(ev.state), ev.parameter)
    return [(start, t) for t in branch_switch(system, ev, direction)[0]]


def test_stacked_trace_labels_equal_the_per_point_ones():
    # both halves of the Lennard-Jones isosceles branch, through its fold and
    # its two secondary points, where the index changes between 0 and 1
    system = lj_system()
    settings = ContinuationSettings(h_max=0.2)
    ev = make_primary_event(system, A0)
    kinds, indices = [], set()
    for start, tangent in _switch_starts(system, ev, isosceles()):
        branch, events = trace_branch(system, start, tangent, settings, (0.3, 0.9), targets=(ev,))
        kinds += [e.kind for e in events]
        for pt in branch.points[1:]:
            want = continuation.classified_point(system, np.array(pt.state), pt.parameter)
            assert (pt.stability, pt.shape, pt.index) == (want.stability, want.shape, want.index)
            indices.add(pt.index)
    assert sorted(kinds) == ["secondary", "secondary", "turning"] and indices == {0, 1}


def _lennard_jones_secondaries():
    """The Lennard-Jones triangle system and its two secondary events at h_max = 0.2."""
    diagram = build_diagram("triangle", LJ, (0.3, 0.9), ContinuationSettings(h_max=0.2))
    low, high = sorted((ev for ev in diagram.events if ev.kind == "secondary"),
                       key=lambda ev: ev.parameter)
    return lj_system(), low, high


def test_crossing_ends_the_trace_exactly_on_the_image_of_a_target():
    system, low, high = _lennard_jones_secondaries()
    settings = ContinuationSettings(h_max=0.2)
    for start, tangent in _switch_starts(system, low, low.kernel[0]):
        branch, events = trace_branch(system, start, tangent, settings, (0.3, 0.9), targets=(low, high))
        assert events == [] and branch.reached_event == high.id
        end = branch.points[-1]
        assert end.parameter == high.parameter
        assert any(np.array_equal(end.state, P.apply(high.state)) for P in system.group())
        assert all(pt.shape == "scalene" for pt in branch.points[1:-1])


def test_crossing_without_a_target_is_localized_on_the_symmetric_branch():
    # with nothing known to end at but its own start, the scalene trace from the
    # lower secondary finds the upper one as the point where u^t J u vanishes on
    # the isosceles branch
    system, low, high = _lennard_jones_secondaries()
    settings = ContinuationSettings(h_max=0.05)
    for start, tangent in _switch_starts(system, low, low.kernel[0]):
        branch, events = trace_branch(system, start, tangent, settings, (0.3, 0.9), targets=(low,))
        assert len(events) == 1 and branch.reached_event is None
        ev = events[0]
        assert ev.kind == "secondary" and ev.kernel_dim == 1 and ev.refined
        assert ev.parameter == pytest.approx(high.parameter, rel=1e-9)
        assert branch.points[-1].state == ev.state and branch.points[-1].shape.startswith("isosceles")
        x = np.asarray(ev.state)
        assert np.max(np.abs(system.evaluate(x, ev.parameter)[0])) < continuation.NEWTON_TOL
        # the kernel is the direction e_i - e_j across the isosceles line
        kernel = np.asarray(ev.kernel[0])
        assert kernel[0] == pytest.approx(0.0, abs=1e-6)
        assert sorted(np.round(np.abs(kernel[1:]) * math.sqrt(2.0), 6)) == [0.0, 1.0, 1.0]


def test_a_step_onto_the_mirror_branch_is_a_jump():
    # from the last scalene point before the upper secondary to the mirror
    # image of the one before it: both ends correct onto the isosceles branch
    # on one side of the secondary, so they bracket no index change
    system, low, high = _lennard_jones_secondaries()
    settings = ContinuationSettings(h_max=0.2)
    start, tangent = _switch_starts(system, low, low.kernel[0])[0]
    branch, _ = trace_branch(system, start, tangent, settings, (0.3, 0.9), targets=(low, high))
    end = np.asarray(branch.points[-1].state)
    x_a, x_b = (np.asarray(pt.state) for pt in branch.points[-2:-4:-1])
    mirror = next(P for P in system.group()
                  if np.array_equal(P.apply(end), end) and not np.array_equal(P.apply(x_b), x_b))
    z_a, z_b = np.append(x_a, branch.points[-2].parameter), np.append(mirror.apply(x_b), branch.points[-3].parameter)
    _, normals, projections = system.fixed_space(x_a)
    ks = np.flatnonzero((normals @ z_a[:-1]) * (normals @ z_b[:-1]) < 0.0)
    assert ks.size and max(z_a[-1], z_b[-1]) < high.parameter
    assert continuation._crossing_end(system, normals, projections, ks, z_a, z_b, 0.2, (), "secondary") is None


def test_index_monitor_jumps_by_two_across_the_double_crossing():
    # two eigenvalues cross together at the primary A0, which leaves the
    # determinant sign as it was; the tangent-space index moves by 2
    system = lj_system()
    below, _ = newton_correct(system, system.trivial_state(A0 - 0.01), A0 - 0.01)
    above, _ = newton_correct(system, system.trivial_state(A0 + 0.01), A0 + 0.01)
    assert abs(below.index - above.index) == 2


def test_detect_no_event_on_quiet_segment():
    system = lj_system()
    a, _ = newton_correct(system, system.trivial_state(0.40), 0.40)
    b, _ = newton_correct(system, system.trivial_state(0.41), 0.41)
    assert detect_and_localize(system, a.z(), b.z(), (a.index, b.index)) is None


def test_detect_primary_between_trivial_points():
    system = lj_system()
    a, _ = newton_correct(system, system.trivial_state(A0 - 0.01), A0 - 0.01)
    b, _ = newton_correct(system, system.trivial_state(A0 + 0.01), A0 + 0.01)
    ev = detect_and_localize(system, a.z(), b.z(), (a.index, b.index), bifurcation_kind="primary")
    assert ev is not None
    assert ev.kind == "primary"
    assert ev.parameter == pytest.approx(A0, abs=1e-8)
    assert ev.kernel_dim == 2
    assert ev.refined


def test_a_localization_whose_probes_all_fail_reports_the_converged_end(monkeypatch):
    # with no probe converging, the event is reported unrefined from the
    # segment's start, a point on the solution curve, not from its chord
    system = lj_system()
    a, _ = newton_correct(system, system.trivial_state(A0 - 0.01), A0 - 0.01)
    b, _ = newton_correct(system, system.trivial_state(A0 + 0.01), A0 + 0.01)
    monkeypatch.setattr(continuation, "_try_correct", lambda *args, **kwargs: None)
    ev = detect_and_localize(system, a.z(), b.z(), (a.index, b.index), bifurcation_kind="primary")
    assert ev.state == a.state and ev.parameter == a.parameter and not ev.refined
    assert np.max(np.abs(system.evaluate(np.asarray(ev.state), ev.parameter)[0])) < continuation.NEWTON_TOL


def test_branch_switch_transcritical_isosceles():
    # at the Lennard-Jones primary the isosceles branch crosses the symmetric
    # one: t and -t are unit vectors of the kernel of [J F_p] in Fix(S) x R,
    # away from the parent's direction (0 along v), and t rises in the parameter
    system = lj_system()
    ev = make_primary_event(system, A0)
    (t, back), P = branch_switch(system, ev, isosceles())
    assert _bits(back) == _bits(-t) and t @ t == pytest.approx(1.0, abs=1e-14) and t[-1] > 0.0
    x0 = np.asarray(ev.state)
    A = np.column_stack([system.evaluate(x0, A0)[1], system.parameter_derivative(x0, A0)])
    assert np.max(np.abs(A @ t)) < 1e-9 * np.max(np.abs(A))
    assert np.max(np.abs(P @ t[:-1] - t[:-1])) < 1e-12
    v = np.asarray(isosceles()) / math.sqrt(6.0)
    assert abs(v @ t[:-1]) > 0.1


def test_branch_switch_halves_straddle_the_parameter():
    # trans-criticality: traced from the event, the two halves leave to
    # opposite sides of A0, as isosceles states off the equilateral one
    system = lj_system()
    ev = make_primary_event(system, A0)
    settings = ContinuationSettings(h_max=0.01, max_points=3)
    sides = set()
    for start, tangent in _switch_starts(system, ev, isosceles()):
        branch, _ = trace_branch(system, start, tangent, settings, (0.3, 0.9), targets=(ev,))
        assert len(branch.parameters) == 3 and set(branch.shape[1:]) == {"isosceles(b=c)"}
        assert abs(branch.states[1][1] - branch.states[1][2]) > 1e-4
        sides.add(int(np.sign(branch.parameters[1] - A0)))
    assert sides == {-1, 1}


def test_branch_switch_buckingham_second_root():
    spec = Buckingham(1, 1, 1, 4)
    system = ClusterProblem(TRIANGLE, spec)
    roots = stability_boundaries3(spec, (1.0, 100.0))
    ev = make_primary_event(system, roots[1].parameter)
    settings = ContinuationSettings(h_max=0.2, max_points=4)
    for start, tangent in _switch_starts(system, ev, isosceles()):
        branch, _ = trace_branch(system, start, tangent, settings, (1.0, 100.0), targets=(ev,))
        assert len(branch.parameters) == 4
        assert all(shape.startswith("isosceles") for shape in branch.shape[1:])


def test_the_switch_at_a_pitchfork_leaves_along_the_kernel_vector_bit_for_bit():
    # the reflection that fixes the isosceles state at the 0.625072 secondary
    # maps its kernel vector v to -v, so the scalene branch leaves along (v, 0)
    system, low, _ = _lennard_jones_secondaries()
    assert round(low.parameter, 6) == 0.625072
    v = np.asarray(low.kernel[0])
    v = v / np.sqrt(v @ v)
    (t, back), _ = branch_switch(system, low, low.kernel[0])
    assert _bits(t) == _bits(np.append(v, 0.0)) and _bits(back) == _bits(-np.append(v, 0.0))


# the Buckingham potential of the buckingham-3-4 case of `test_step_size_corpus.py`
BUCKINGHAM_3_4 = Buckingham(0.9263017456231872, 1.4728208106197376, 1.105080795671202, 3.5245226215437047)


def test_the_transcritical_tangent_slope_matches_the_chord_of_pinned_corrections():
    # at the 8.10226 primary of buckingham-3-4, the corrections with the
    # amplitude v.(x - x0) pinned at +-delta and the parameter free lie on the
    # isosceles branch; their chord's parameter slope is the tangent's.  The
    # branch is steep (dA/d(v.x) = 152) and strongly curved: the one-sided
    # slopes at delta = 1e-4 are 168 and 141, so delta is small
    system = ClusterProblem(TRIANGLE, BUCKINGHAM_3_4)
    root = stability_boundaries3(BUCKINGHAM_3_4, (4.05112897895257, 11.591060125393065))[0]
    assert round(root.parameter, 5) == 8.10226
    ev = make_primary_event(system, root.parameter)
    (t, _), P = branch_switch(system, ev, isosceles())
    v = np.asarray(isosceles()) / math.sqrt(6.0)
    z0 = np.append(ev.state, ev.parameter)
    slope = t[-1] / (v @ t[:-1])
    assert slope == pytest.approx(152.14, rel=1e-4)
    delta = 3e-6
    ends = []
    for amp in (delta, -delta):
        guess = z0 + amp * t / (v @ t[:-1])
        ends.append(newton_correct(system, guess[:-1], guess[-1], PseudoArclength(np.append(v, 0.0), z0, amp), P))
    assert (ends[0].parameter - ends[1].parameter) / (2.0 * delta) == pytest.approx(slope, rel=1e-4)
    for end, amp in zip(ends, (delta, -delta)):
        assert (end.parameter - ev.parameter) / amp == pytest.approx(slope, rel=1e-2)


def test_a_switch_corrects_and_classifies_nothing(monkeypatch):
    # the transcritical tangent reads the Jacobian at the event and at four
    # central-difference points of [J F_p]; the pitchfork's, the group alone
    system = lj_system()
    evaluated, corrected, classified = [], [], []
    evaluate = system.evaluate

    def counting(*args):
        evaluated.append(args)
        return evaluate(*args)

    def correct(*args, **kwargs):
        corrected.append(args)
        return newton_correct(*args, **kwargs)

    def stack(geometry, states, jacobians):
        classified.append(len(states))
        return classify_stack(geometry, states, jacobians)

    monkeypatch.setattr(system, "evaluate", counting)
    monkeypatch.setattr(continuation, "newton_correct", correct)
    monkeypatch.setattr(cluster, "classify_stack", stack)
    branch_switch(system, make_primary_event(system, A0), isosceles())
    assert len(evaluated) == 5 and corrected == [] and classified == []
    evaluated.clear()
    pitchfork = BifurcationEvent("secondary", 0.6, 1, ((0.0, 0.0, 1.0, -1.0),), (-1.0, 1.2, 1.1, 1.1))
    branch_switch(system, pitchfork, pitchfork.kernel[0])
    assert evaluated == [] and corrected == [] and classified == []


def test_a_switch_classifies_its_event_once_and_each_half_in_one_pass(monkeypatch):
    # both halves start at the event point, labeled once before they run; each
    # half labels the points after it in one stacked call
    system = lj_system()
    ev = make_primary_event(system, A0)
    rows = []

    def stack(geometry, states, jacobians):
        rows.append(len(states))
        return classify_stack(geometry, states, jacobians)

    monkeypatch.setattr(cluster, "classify_stack", stack)
    monkeypatch.setattr(continuation, "detect_and_localize", lambda *args, **kwargs: None)  # no probes
    branch, events, _ = cli._switch_and_trace(system, ev, isosceles(), ContinuationSettings(h_max=0.05),
                                              (0.3, 0.9), (ev,))
    assert events == [] and rows[0] == 1 and len(rows) == 3 and sum(rows) == len(branch.parameters)


class _DocumentedInterface:
    """A system with only the members the `continuation` docstring lists, each
    delegated to a `ClusterProblem`."""

    def __init__(self, problem: ClusterProblem):
        self.dim, self.param_name = problem.dim, problem.param_name
        for name in ("evaluate", "parameter_derivative", "in_domain", "feasible", "classify_stack",
                     "group", "fixed_space"):
            setattr(self, name, getattr(problem, name))


def test_continuation_needs_only_the_documented_interface():
    # the trivial trace across A0 localizes the primary by index bisection,
    # and the switch there and both halves traced from it need nothing more
    problem = lj_system()
    system = _DocumentedInterface(problem)
    settings = ContinuationSettings(h_max=0.02)
    start, _ = newton_correct(problem, problem.trivial_state(0.55), 0.55)
    assert newton_correct(system, problem.trivial_state(0.55), 0.55).point == start
    tangent = rising_tangent(problem, start)
    want = trace_branch(problem, start, tangent, settings, (0.55, 0.62), bifurcation_kind="primary")
    got = trace_branch(system, start, tangent, settings, (0.55, 0.62), bifurcation_kind="primary")
    assert got == want and [ev.kind for ev in got[1]] == ["primary"]
    ev = make_primary_event(problem, A0)
    (t, back), P = branch_switch(system, ev, isosceles())
    (want_t, want_back), want_P = branch_switch(problem, ev, isosceles())
    assert _bits(t) == _bits(want_t) and _bits(back) == _bits(want_back) and _bits(P) == _bits(want_P)
    for (start, tangent), (_, want_tangent) in zip(_switch_starts(system, ev, isosceles()),
                                                   _switch_starts(problem, ev, isosceles())):
        want = trace_branch(problem, start, want_tangent, settings, (0.55, 0.62), targets=(ev,))
        got = trace_branch(system, start, tangent, settings, (0.55, 0.62), targets=(ev,))
        assert got == want and len(got[0].parameters) > 1


def _corrector_runs(problem, x0, p0):
    """A correction at fixed parameter 2 % above p0 from the symmetric state x0
    at p0, and a 20-point trace of the symmetric branch up from x0, as bits."""
    got = newton_correct(problem, x0, 1.02 * p0)
    start = continuation.classified_point(problem, x0, p0)
    branch, events = trace_branch(problem, start, rising_tangent(problem, start),
                                  ContinuationSettings(h_max=0.05, max_points=20))
    assert len(branch.parameters) == 20
    return (_bits(got.state), _bits(got.parameter), got.iterations, _bits(got.jacobian), _bits(branch.states),
            _bits(branch.parameters), _bits(branch.arclengths), branch.index.tolist(), branch.stability, events)


@pytest.mark.parametrize("geometry, spec, p0", [(TRIANGLE, LJ, 0.5), (TETRAHEDRON, PolynomialSpring(1, -0.1), 1.0)])
def test_the_corrector_never_dispatches_on_the_spec(monkeypatch, geometry, spec, p0):
    # a problem binds its potential's kernel once, when it is built: with every
    # dispatch on the spec raising, corrections and traces run as before, bit for bit
    problem = ClusterProblem(geometry, spec)
    x0 = problem.trivial_state(p0)
    want = _corrector_runs(problem, x0, p0)

    def dispatch(*args):
        raise AssertionError("dispatched on the potential spec")

    for module in (potentials, cluster):
        monkeypatch.setattr(module, "derivatives", dispatch)
        monkeypatch.setattr(module, "kernel", dispatch)
    assert _corrector_runs(problem, x0, p0) == want
    with pytest.raises(AssertionError, match="dispatched"):
        problem.trivial_state(p0)  # the patch is live: the symmetric state does dispatch


# (problem, potential, window)
SWITCH_BUILDS = {
    "lennard-jones-triangle": ("triangle", LJ, (0.3, 0.9)),
    "buckingham-triangle": ("triangle", Buckingham(1, 1, 1, 4), (1.0, 100.0)),
    "soft-spring-tetrahedron": ("tetrahedron", PolynomialSpring(1, -0.1), (0.5, 4.0)),
    "lennard-jones-tetrahedron": ("tetrahedron", LJ, (0.05, 0.5)),
}


@pytest.mark.parametrize("rel", [0.0, 1e-10])
@pytest.mark.parametrize("name", sorted(SWITCH_BUILDS))
def test_every_switched_half_lies_in_its_directions_fixed_space(monkeypatch, name, rel):
    # primaries switch along a family's vector, secondaries along their own
    # kernel vector; both halves start at the event along the switch's two
    # tangents, and each of their points is fixed by every element fixing
    # the direction
    problem, spec, window = SWITCH_BUILDS[name]
    switches, by_tangent, halves = [], {}, []

    # rel > 0: a solver off by up to rel, unequally across entries, so only the
    # projection keeps equal edges equal
    def perturbed(M, b):
        x = np.linalg.solve(M, b)
        return x * (1.0 + rel * np.linspace(-1.0, 1.0, len(x)))

    def recording(system, event, direction):
        tangents, P = branch_switch(system, event, direction)
        switches.append((system, event, direction))
        by_tangent.update({id(t): (switches[-1], t, P) for t in tangents})
        return tangents, P

    def tracing(system, start, tangent, *args, **kwargs):
        out = trace_branch(system, start, tangent, *args, **kwargs)
        halves.append((by_tangent[id(tangent)], start, out[0]))
        return out

    monkeypatch.setattr(cli, "branch_switch", recording)
    monkeypatch.setattr(cli, "trace_branch", tracing)
    monkeypatch.setattr(continuation, "solve", perturbed)
    build_diagram(problem, spec, window, ContinuationSettings(max_points=20))
    assert {event.kind for _, event, _ in switches} == {"primary", "secondary"}
    assert len(halves) == 2 * len(switches)
    for _, t, P in by_tangent.values():
        assert np.max(np.abs(P @ t[:-1] - t[:-1])) < 1e-12
    for ((system, event, direction), _, _), start, branch in halves:
        assert (start.state, start.parameter) == (event.state, event.parameter)
        group = system.group()
        fixing = group.members(int(stabilizer(group, direction)[0]))
        assert len(branch.parameters) > 1
        for x, p in zip(branch.states, branch.parameters):
            assert all(np.array_equal(g.apply(x), x) for g in fixing)
            assert np.max(np.abs(system.evaluate(x, p)[0])) < continuation.NEWTON_TOL
    # only the Lennard-Jones tetrahedron's 0.200348 secondary has a direction
    # that more than the identity fixes
    secondary_orders = [int(stabilizer(system.group(), direction)[0]).bit_count()
                        for system, event, direction in switches if event.kind == "secondary"]
    assert secondary_orders == ([2] if name == "lennard-jones-tetrahedron" else [1])


def test_dedup_events():
    ev = BifurcationEvent("secondary", 0.5, 1, ((0.0,),), (0.0,))
    close = BifurcationEvent("secondary", 0.5 + 1e-12, 1, ((0.0,),), (0.0,))
    other = BifurcationEvent("turning", 0.5, 1, ((0.0,),), (0.0,))
    far = BifurcationEvent("secondary", 0.6, 1, ((0.0,),), (0.0,))
    out = dedup_events([ev, close, other, far])
    assert len(out) == 3


@pytest.mark.parametrize("order", [1, -1])
def test_dedup_events_keeps_the_first_event_found(order):
    # two images of one event, 1e-11 apart: the earlier one in the input
    # survives, whichever has the smaller parameter, and the output is sorted
    low = BifurcationEvent("secondary", 0.2, 1, ((0.0,),), (1.0, 2.0))
    high = BifurcationEvent("secondary", 0.2 + 1e-11, 1, ((0.0,),), (2.0, 1.0))
    far = BifurcationEvent("secondary", 0.1, 1, ((0.0,),), (0.0, 0.0))
    pair = [low, high][::order]
    assert dedup_events(pair + [far]) == [far, pair[0]]
    unrefined = BifurcationEvent("secondary", 0.2, 1, ((0.0,),), (3.0, 3.0), refined=False)
    assert dedup_events([unrefined] + pair) == [pair[0]]


def test_concatenate_rebuilds_arclength():
    system = lj_system()
    settings = ContinuationSettings(max_points=8)
    start, _ = newton_correct(system, system.trivial_state(0.4), 0.4)
    tangent = rising_tangent(system, start)
    up, _ = trace_branch(system, start, tangent, settings, (0.3, 0.8))
    down, _ = trace_branch(system, start, -tangent, settings, (0.3, 0.8))
    merged = concatenate_branches(down, up)
    s = [pt.arclength for pt in merged.points]
    assert s[0] == 0.0
    assert all(b > a for a, b in zip(s, s[1:]))
    # the two halves share their start point, which is collapsed on merge
    assert len(merged.points) == len(up.points) + len(down.points) - 1


def _joined_point_by_point(first, second):
    """The join as a loop over point records: each point is dropped within
    1e-12 relative of the last one kept, and its arclength adds its chord
    to that point."""
    out, s = [], 0.0
    for pt in list(reversed(first.points)) + list(second.points):
        if out:
            dz = pt.z() - out[-1].z()
            step = float(np.sqrt(dz @ dz))
            if step < 1e-12 * max(1.0, float(np.max(np.abs(pt.z())))):
                continue
            s += step
        out.append(replace(pt, arclength=s))
    return tuple(out)


def test_the_array_join_equals_the_point_by_point_one():
    # bit for bit, with the coincident start points of the halves: of a
    # regular point, and of a switch's event
    system = lj_system()
    settings = ContinuationSettings(max_points=8)
    start, _ = newton_correct(system, system.trivial_state(0.4), 0.4)
    tangent = rising_tangent(system, start)
    up, _ = trace_branch(system, start, tangent, settings, (0.3, 0.8))
    down, _ = trace_branch(system, start, -tangent, settings, (0.3, 0.8))
    ev = make_primary_event(system, A0)
    halves = [trace_branch(system, start, tangent, settings, (0.3, 0.9), targets=(ev,))[0]
              for start, tangent in _switch_starts(system, ev, isosceles())]
    for first, second in ((down, up), tuple(halves)):
        want = _joined_point_by_point(first, second)
        assert concatenate_branches(first, second).points == want
