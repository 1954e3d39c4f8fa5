import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cluster_bifurc import cli, cluster, continuation
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
from cluster_bifurc.symmetry import Perm, PermGroup, Reduction
from cluster_bifurc.triangle import TRIANGLE, heron, stability_boundaries3

LJ = LennardJones(1, 2, 12, 6)
A0 = math.sqrt(3.0) / 4.0 * 2.5 ** (1.0 / 3.0)


def lj_system():
    return ClusterProblem(TRIANGLE, LJ)


def isosceles():
    return TRIANGLE.families.reduction("isosceles")


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
    ("triangle", LJ, (0.3, 0.9), ContinuationSettings(h_max=0.2)),
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
    hint = np.zeros(5)
    hint[-1] = 1.0
    branch, events = trace_branch(system, start, hint, settings, (0.3, 0.8),
                                  bifurcation_kind="primary")
    flips = [
        0.5 * (branch.points[i - 1].parameter + branch.points[i].parameter)
        for i in range(1, len(branch.points))
        if (branch.points[i - 1].stability == "stable") != (branch.points[i].stability == "stable")
    ]
    assert len(flips) == 1
    assert flips[0] == pytest.approx(0.5877, abs=1e-3)
    primaries = [ev for ev in events if ev.kind == "primary"]
    assert len(primaries) == 1
    assert primaries[0].parameter == pytest.approx(A0, abs=1e-8)
    assert primaries[0].kernel_dim == 2
    # residual invariant: every accepted point solves the system
    for pt in branch.points[:: max(1, len(branch.points) // 20)]:
        assert np.max(np.abs(system.evaluate(np.asarray(pt.state), pt.parameter)[0])) < continuation.NEWTON_TOL
    # stability changes only across the recorded event
    for i in range(1, len(branch.points)):
        a, b = branch.points[i - 1], branch.points[i]
        if (a.stability == "stable") != (b.stability == "stable"):
            assert min(a.parameter, b.parameter) <= primaries[0].parameter <= max(a.parameter, b.parameter)


def test_trace_buckingham_trivial_stable_window():
    spec = Buckingham(1, 1, 1, 4)
    system = ClusterProblem(TRIANGLE, spec)
    settings = ContinuationSettings(h_max=0.2)
    start, _ = newton_correct(system, system.trivial_state(1.0), 1.0)
    hint = np.zeros(5)
    hint[-1] = 1.0
    branch, events = trace_branch(system, start, hint, settings, (1.0, 100.0),
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
    hint = np.zeros(5)
    hint[-1] = 1.0
    branch, events = trace_branch(system, start, hint, settings, (0.1, 100.0))
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
    hint = np.zeros(5)
    hint[-1] = 1.0
    branch, events = trace_branch(system, start, hint, settings, (0.1, 100.0))
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
    hint = np.zeros(5)
    hint[-1] = 1.0
    branch, _ = trace_branch(system, start, hint, settings, (0.1, 100.0))
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
    hint = np.zeros(5)
    hint[-1] = 1.0
    branch, events = trace_branch(system, start, hint, settings, (0.1, 100.0))
    end = branch.points[-1].parameter
    assert events == [] and raised["edge"] >= 1 and 99.0 < end <= 100.0
    assert (end == 100.0) == (failures == 1)
    assert np.all(np.diff(branch.parameters()) > 0.0)


def test_stacked_trace_labels_equal_the_per_point_ones():
    # both halves of the Lennard-Jones isosceles branch, through its fold and
    # its two secondary points, where the index changes between 0 and 1
    system = lj_system()
    settings = ContinuationSettings(h_max=0.2)
    ev = make_primary_event(system, A0)
    seeds, _ = branch_switch(system, ev, isosceles())
    center = np.append(ev.state, ev.parameter)
    kinds, indices = [], set()
    for seed in seeds:
        branch, events = trace_branch(system, seed, seed.z() - center, settings, (0.3, 0.9))
        kinds += [e.kind for e in events]
        for pt in branch.points:
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


def _scalene_seeds(system, ev):
    reduction = Reduction(PermGroup((Perm.identity(4),)), ev.kernel[0])
    seeds, _ = branch_switch(system, ev, reduction)
    return [(seed, seed.z() - np.append(ev.state, ev.parameter)) for seed in seeds]


def test_crossing_ends_the_trace_exactly_on_the_image_of_a_target():
    system, low, high = _lennard_jones_secondaries()
    settings = ContinuationSettings(h_max=0.2)
    for seed, hint in _scalene_seeds(system, low):
        branch, events = trace_branch(system, seed, hint, settings, (0.3, 0.9), targets=(low, high))
        assert events == [] and branch.reached_event == high.id
        end = branch.points[-1]
        assert end.parameter == high.parameter
        assert any(np.array_equal(end.state, P.apply(high.state)) for P in system.group())
        assert all(pt.shape == "scalene" for pt in branch.points[:-1])


def test_crossing_without_a_target_is_localized_on_the_symmetric_branch():
    # with nothing known to end at, the scalene trace from the lower secondary
    # finds the upper one as the point where u^t J u vanishes on the isosceles branch
    system, low, high = _lennard_jones_secondaries()
    settings = ContinuationSettings(h_max=0.05)
    for seed, hint in _scalene_seeds(system, low):
        branch, events = trace_branch(system, seed, hint, settings, (0.3, 0.9))
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
    seed, hint = _scalene_seeds(system, low)[0]
    branch, _ = trace_branch(system, seed, hint, settings, (0.3, 0.9), targets=(low, high))
    end = np.asarray(branch.points[-1].state)
    x_a, x_b = (np.asarray(pt.state) for pt in branch.points[-2:-4:-1])
    mirror = next(P for P in system.group()
                  if np.array_equal(P.apply(end), end) and not np.array_equal(P.apply(x_b), x_b))
    z_a, z_b = np.append(x_a, branch.points[-2].parameter), np.append(mirror.apply(x_b), branch.points[-3].parameter)
    _, normals, projections = system.fixed_space(x_a)
    ks = np.flatnonzero((normals @ z_a[:-1]) * (normals @ z_b[:-1]) < 0.0)
    assert ks.size and max(z_a[-1], z_b[-1]) < high.parameter
    assert continuation._crossing_end(system, normals, projections, ks, z_a, z_b, 0.2, (), "secondary") is None


class _LandsPast(ClusterProblem):
    """The Lennard-Jones triangle, on which every state of area beyond `area`
    reads as isosceles with isotropy order 2: more symmetric than scalene."""

    def __init__(self, area):
        super().__init__(TRIANGLE, LJ)
        self.area = area

    def _past(self, x):
        return math.sqrt(heron(*np.asarray(x)[1:])) > self.area

    def shape_of(self, x):
        return "isosceles(a=b)" if self._past(x) else TRIANGLE.families.shapes(x)[0]

    def classify_stack(self, states, jacobians):
        return [replace(c, shape="isosceles(a=b)") if self._past(x) else c
                for x, c in zip(states, super().classify_stack(states, jacobians))]

    def isotropy_order(self, x):
        return 2 if self._past(x) else super().isotropy_order(x)


@pytest.mark.parametrize("with_targets", [True, False])
def test_landing_on_a_more_symmetric_point_ends_the_trace_before_it(with_targets):
    # the scalene trace from the lower secondary runs up in area and ends on
    # the upper one (a crossing); landing at A = 0.645, short of it, cuts
    # the crossing end, the reached target and the crossing event
    system, low, high = _lennard_jones_secondaries()
    settings = ContinuationSettings(h_max=0.2)
    targets = (low, high) if with_targets else ()
    for seed, hint in _scalene_seeds(system, low):
        full, full_events = trace_branch(system, seed, hint, settings, (0.3, 0.9), targets=targets)
        assert full_events or full.reached_event is not None
        kept = [pt for pt in full.points if pt.parameter < 0.645]
        assert 1 < len(kept) < len(full.points) - 1
        branch, events = trace_branch(_LandsPast(0.645), seed, hint, settings, (0.3, 0.9), targets=targets)
        assert branch.points == kept and branch.points == full.points[:len(kept)]
        assert branch.reached_event is None and events == []


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
    assert detect_and_localize(system, a, b) is None


def test_detect_primary_between_trivial_points():
    system = lj_system()
    a, _ = newton_correct(system, system.trivial_state(A0 - 0.01), A0 - 0.01)
    b, _ = newton_correct(system, system.trivial_state(A0 + 0.01), A0 + 0.01)
    ev = detect_and_localize(system, a, b, bifurcation_kind="primary")
    assert ev is not None
    assert ev.kind == "primary"
    assert ev.parameter == pytest.approx(A0, abs=1e-8)
    assert ev.kernel_dim == 2
    assert ev.refined


def test_branch_switch_transcritical_isosceles():
    # the pinned walk seeds both halves of the transcritical isosceles branch,
    # each isolated, the one above the primary first
    system = lj_system()
    ev = make_primary_event(system, A0)
    seeds, v = branch_switch(system, ev, isosceles())
    assert len(seeds) == 2 and v == tuple(isosceles().kernel_unit())
    assert seeds[0].parameter > A0 > seeds[1].parameter
    for pt in seeds:
        x = np.asarray(pt.state)
        assert np.max(np.abs(system.evaluate(x, pt.parameter)[0])) < 10 * continuation.NEWTON_TOL
        assert pt.shape == "isosceles(b=c)"
        assert abs(x[1] - x[2]) > 1e-4  # genuinely nontrivial
        assert continuation.is_isolated(system, x, pt.parameter)


def test_branch_switch_seeds_straddle_the_parameter():
    # trans-criticality: the two seeds continue to opposite sides of A0
    system = lj_system()
    ev = make_primary_event(system, A0)
    seeds, _ = branch_switch(system, ev, isosceles())
    sides = {int(np.sign(pt.parameter - A0)) for pt in seeds}
    assert sides == {-1, 1}


def test_branch_switch_buckingham_second_root():
    spec = Buckingham(1, 1, 1, 4)
    system = ClusterProblem(TRIANGLE, spec)
    roots = stability_boundaries3(spec, (1.0, 100.0))
    ev = make_primary_event(system, roots[1].parameter)
    seeds, _ = branch_switch(system, ev, isosceles())
    assert len(seeds) == 2
    for pt in seeds:
        assert pt.shape.startswith("isosceles")


def test_each_seed_is_labeled_from_its_corrector_jacobian(monkeypatch):
    system = lj_system()
    outside, correcting = [], []
    evaluate = system.evaluate

    def counting(*args):
        if not correcting:
            outside.append(args)
        return evaluate(*args)

    def correct(*args, **kwargs):
        correcting.append(True)
        try:
            return newton_correct(*args, **kwargs)
        finally:
            correcting.pop()

    isolated, judge = [], continuation.is_isolated

    def judging(*args):
        isolated.append(args)
        return judge(*args)

    monkeypatch.setattr(system, "evaluate", counting)
    monkeypatch.setattr(continuation, "newton_correct", correct)
    monkeypatch.setattr(continuation, "is_isolated", judging)
    seeds, _ = branch_switch(system, make_primary_event(system, A0), isosceles())
    # one evaluation per isolation test of a walk point; no seed evaluates
    # its own Jacobian outside its correction
    assert len(seeds) == 2 and isolated and len(outside) == len(isolated)
    for pt in seeds:
        assert pt == continuation.classified_point(system, np.asarray(pt.state), pt.parameter)


class _DocumentedInterface:
    """A system with only the members the `continuation` docstring lists, each
    delegated to a `ClusterProblem`."""

    def __init__(self, problem: ClusterProblem):
        self.dim, self.param_name = problem.dim, problem.param_name
        for name in ("evaluate", "parameter_derivative", "in_domain", "feasible", "classify_stack",
                     "group", "isotropy_order", "fixed_space"):
            setattr(self, name, getattr(problem, name))


def test_continuation_needs_only_the_documented_interface():
    # the trivial trace across A0 localizes the primary by index bisection,
    # and the switch there walks its two seeds out along the branch
    problem = lj_system()
    system = _DocumentedInterface(problem)
    settings = ContinuationSettings(h_max=0.02)
    start, _ = newton_correct(problem, problem.trivial_state(0.55), 0.55)
    assert newton_correct(system, problem.trivial_state(0.55), 0.55).point == start
    hint = np.zeros(5)
    hint[-1] = 1.0
    want = trace_branch(problem, start, hint, settings, (0.55, 0.62), bifurcation_kind="primary")
    got = trace_branch(system, start, hint, settings, (0.55, 0.62), bifurcation_kind="primary")
    assert got == want and [ev.kind for ev in got[1]] == ["primary"]
    ev = make_primary_event(problem, A0)
    want = branch_switch(problem, ev, isosceles())
    got = branch_switch(system, ev, isosceles())
    assert got == want and len(got[0]) == 2


# (problem, potential, window)
SWITCH_BUILDS = {
    "lennard-jones-triangle": ("triangle", LJ, (0.3, 0.9)),
    "buckingham-triangle": ("triangle", Buckingham(1, 1, 1, 4), (1.0, 100.0)),
    "soft-spring-tetrahedron": ("tetrahedron", PolynomialSpring(1, -0.1), (0.5, 4.0)),
    "lennard-jones-tetrahedron": ("tetrahedron", LJ, (0.05, 0.5)),
}


@pytest.mark.parametrize("rel", [0.0, 1e-10])
@pytest.mark.parametrize("name", sorted(SWITCH_BUILDS))
def test_every_primary_seed_lies_exactly_in_its_fixed_space(monkeypatch, name, rel):
    problem, spec, window = SWITCH_BUILDS[name]
    switches = []

    # rel > 0: a solver off by up to rel, unequally across entries, so only the
    # projection keeps equal edges equal
    def perturbed(M, b):
        x = np.linalg.solve(M, b)
        return x * (1.0 + rel * np.linspace(-1.0, 1.0, len(x)))

    def recording(system, event, reduction):
        seeds, v = branch_switch(system, event, reduction)
        if event.kind == "primary":  # a switch off the symmetric branch
            switches.append((system, reduction, seeds))
        return seeds, v

    monkeypatch.setattr(cli, "branch_switch", recording)
    monkeypatch.setattr(continuation, "solve", perturbed)
    build_diagram(problem, spec, window, ContinuationSettings(max_points=20))
    assert switches
    for system, reduction, seeds in switches:
        assert len(seeds) == 2
        for pt in seeds:
            x = np.asarray(pt.state)
            assert all(np.array_equal(P.apply(x), x) for P in reduction.subgroup)
            assert np.max(np.abs(system.evaluate(x, pt.parameter)[0])) < continuation.NEWTON_TOL


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
    hint = np.zeros(5)
    hint[-1] = 1.0
    up, _ = trace_branch(system, start, hint, settings, (0.3, 0.8))
    down, _ = trace_branch(system, start, -hint, settings, (0.3, 0.8))
    merged = concatenate_branches(down, None, up)
    s = [pt.arclength for pt in merged.points]
    assert s[0] == 0.0
    assert all(b > a for a, b in zip(s, s[1:]))
    # the two halves share their start point, which is collapsed on merge
    assert len(merged.points) == len(up.points) + len(down.points) - 1
