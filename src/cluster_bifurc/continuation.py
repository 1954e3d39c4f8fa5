"""Pseudo-arclength predictor-corrector continuation with event handling.

A `system` is any object with the small interface that
`cluster.ClusterProblem` implements for both cluster problems:

    dim                       number of unknowns (multiplier + edges)
    param_name                the parameter's name, as `DomainExit` messages print it
    evaluate(x, p)            (KKT residual, symmetric bordered Jacobian) from one pass
    parameter_derivative(x, p) d(residual)/dp
    in_domain(x)              iterates allowed here (edge positivity)
    feasible(x)               converged states allowed here (realizability)
    classify_stack(xs, Js)    the `cluster.Classification` of each solution, from its Jacobian
    group()                   the permutation group the system is equivariant under
    isotropy_order(x)         number of group elements in the `symmetry.stabilizer` of x
    fixed_space(x)            `symmetry.fixed_space` of the stabilizer of x

There is one corrector, Keller's bordered Newton iteration, in a
relative-scale arclength metric: the predictor tangent is frozen as the
extra (weighted) row during correction.  Event localization uses the same
corrector with a zero step along the segment chord, which keeps each probe
on the hyperplane through it normal to the chord; branch-switch seeds use
it with the extra row pinning an amplitude, and window-edge and
crossing-end probes at fixed parameter.  Such a probe or seed goes through
`_try_correct`, the one place where its failed correction becomes None;
only a trace's own step reads why it failed.  A branch of isotropy S
lies in the fixed-point space Fix(S), and the corrector projects every
iterate onto it with the exact group-average projector of the start point's
stabilizer, so a trace keeps its symmetry by construction, whatever the
linear solver rounds.  Each Newton iterate evaluates the residual and
Jacobian in one pass and refills the correction's one bordered matrix and
right-hand side in place; an accepted point reuses its last Jacobian for the
tangent, and keeps it until the trace ends, when all of the trace's points
are classified in one stacked pass (`classify_stack`).  A step that leaves
the parameter window ends the trace on the edge it crossed: the edge is a
special point p - edge = 0 of the solution curve (Allgower & Georg 1990,
ch. 9), computed by one correction at that fixed parameter from the
step's chord.

Event detection then compares one monitor between neighbouring points, as
an array over the whole trace: the tangent-space (Morse) index, the number
of negative eigenvalues of the Lagrangian's Hessian restricted to the
constraint tangent space, Z^t H Z, which classification computes anyway.
Since In(J) = In(Z^t H Z) + (1, 1, 0) where grad g != 0 (Gould 1985, Math.
Programming 32), the index changes exactly where eigenvalues of J cross
zero, and by their number.  `detect_and_localize` localizes every event,
fold or bifurcation, with one bracketing loop on the crossing eigenvalue,
reads the kernel dimension from the index jump, and calls the event a fold
where the tangent's parameter component flips.

A trace ends where it meets a more symmetric branch, inside a larger
fixed-point space Fix(S') (Golubitsky, Stewart & Schaeffer, ch. XIII); where
Fix(S') has codimension 1 the crossing monitor is the signed distance u.x
from it, a symmetry-adapted test function as in Dellnitz & Werner (1989,
J. Comput. Appl. Math. 26), and landing on a point of larger isotropy order
is the fallback elsewhere.  The crossing step's two ends, corrected into
Fix(S') at fixed parameter, bracket the bifurcation of the symmetric branch
for the same localizer; where they bracket no index change, the step
jumped across Fix(S') and is shrunk and retried.
`branch_switch` seeds the bifurcating branches in the fixed-point space
Fix(S) of the kernel's isotropy subgroup by one rule, whether the branch
leaves transcritically or as a pitchfork: a correction with the amplitude
along the kernel pinned to +-PITCHFORK_DELTA and the parameter free, walked
outward along the branch until the seed is isolated (Golubitsky, Stewart &
Schaeffer, ch. XIII); every seed is corrected on the full residual and
projected onto Fix(S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .linalg import solve, sym_eigen

__all__ = [
    "ContinuationSettings",
    "BranchPoint",
    "Branch",
    "BifurcationEvent",
    "PseudoArclength",
    "Correction",
    "CorrectorFailure",
    "DomainExit",
    "TraceAbort",
    "newton_correct",
    "branch_tangent",
    "trace_branch",
    "detect_and_localize",
    "dedup_events",
    "branch_switch",
    "concatenate_branches",
    "classified_point",
    "metric_weights",
    "is_isolated",
]


# The corrector's and the step control's constants, and branch switching's
# first amplitude.  Every function reads them when it is called, so a test
# can patch one (a stalled corrector, say) with monkeypatch.
H0 = 1e-2  # the first step of a trace, unless h_max is shorter
H_MIN = 1e-6  # the shortest step; a step that fails at it ends the trace
NEWTON_TOL = 1e-10  # the residual infinity norm a converged iterate stays below
NEWTON_MAX_ITERS = 20
STEP_GROWTH = 1.5  # the step grows by this after a correction of at most CONTRACTION_TARGET iterations
STEP_SHRINK = 0.5  # and shrinks by this after a failed or rejected step
CONTRACTION_TARGET = 4
PITCHFORK_DELTA = 1e-3  # the first pinned amplitude of both seeds of a switch


@dataclass(frozen=True)
class ContinuationSettings:
    """The largest step of a trace and its most points; the first step is min(H0, h_max)."""

    h_max: float = 0.5
    max_points: int = 5000

    def __post_init__(self):
        # an infinite step passes a plain comparison, True passes it as 1, and
        # a float count stops range() mid-build
        if isinstance(self.h_max, bool) or not H_MIN <= self.h_max < math.inf:
            raise ValueError(f"h_max must be a number with {H_MIN:g} <= h_max < inf, got {self.h_max!r}")
        if type(self.max_points) is not int or not self.max_points >= 2:
            raise ValueError("max_points must be an integer of at least 2")


@dataclass(frozen=True)
class BranchPoint:
    state: tuple[float, ...]
    parameter: float
    arclength: float
    stability: str
    shape: str
    index: int  # tangent-space (Morse) index: the number of negative eigenvalues of Z^t H Z

    def z(self) -> np.ndarray:
        return np.array(self.state + (self.parameter,), dtype=float)


@dataclass
class Branch:
    points: list[BranchPoint] = field(default_factory=list)
    id: int | None = None
    parent_event: int | None = None
    label: str = ""
    reached_event: int | None = None  # id of the known event the trace ended at; not exported

    def parameters(self) -> np.ndarray:
        return np.array([pt.parameter for pt in self.points])


@dataclass(frozen=True)
class BifurcationEvent:
    kind: str  # "primary" | "secondary" | "turning"
    parameter: float
    kernel_dim: int
    kernel: tuple[tuple[float, ...], ...]
    state: tuple[float, ...]
    source_branch: int | None = None
    refined: bool = True
    id: int | None = None


@dataclass(frozen=True)
class PseudoArclength:
    """Corrector constraint row . (z - origin) = h on z = (x, p), Keller's extra row.

    A trace's step freezes the row as the previous tangent times the
    relative-scale weights of the previous accepted point (see
    `metric_weights`), so branches whose multiplier is orders of magnitude
    larger than the edge lengths still advance in the parameter at a
    sensible rate.
    """

    row: np.ndarray
    origin: np.ndarray
    h: float


def metric_weights(z: np.ndarray) -> np.ndarray:
    """Diagonal arclength metric 1/max(1, |z_i|)^2: steps measure relative change."""
    return 1.0 / np.maximum(1.0, np.abs(z)) ** 2


class CorrectorFailure(RuntimeError):
    def __init__(self, message: str, residual_norm: float = math.inf, iterations: int = 0):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


class DomainExit(RuntimeError):
    pass


class TraceAbort(RuntimeError):
    pass


def classified_point(system, x: np.ndarray, p: float, J: np.ndarray | None = None) -> BranchPoint:
    """A solution point with its labels and index, from its Jacobian `J` (built here when not given)."""
    cls = system.classify_stack([x], [system.evaluate(x, p)[1] if J is None else J])[0]
    return BranchPoint(
        state=tuple(float(v) for v in x),
        parameter=float(p),
        arclength=0.0,
        stability=cls.stability,
        shape=cls.shape,
        index=cls.index,
    )


@dataclass(eq=False)
class Correction:
    """A converged corrector iterate, unpacking as `(point, iterations)`; the
    labeled `point` is built on first use, so a rejected correction costs no
    eigen-decomposition."""

    system: object
    state: np.ndarray
    parameter: float
    iterations: int
    jacobian: np.ndarray

    @cached_property
    def point(self) -> BranchPoint:
        return classified_point(self.system, self.state, self.parameter, self.jacobian)

    def __getitem__(self, i: int):
        return self.iterations if i in (1, -1) else (self.point, self.iterations)[i]


def newton_correct(system, state, parameter: float,
                   constraint: PseudoArclength | None = None,
                   projection: np.ndarray | None = None) -> Correction:
    """Correct a guess onto the solution set; returns (point, iterations used).

    With `constraint=None` the parameter stays fixed and Newton runs on the
    square KKT system; with a PseudoArclength constraint both the state and
    the parameter move, bordered by its row (a zero step with the row a unit
    normal keeps them on a hyperplane).
    The bordered matrix [[J, F_p], [row]], its right-hand side and the (x, p)
    buffer of the gap are allocated once per correction and refilled in
    place on every iterate.  `projection`, the projector onto a fixed-point
    space Fix(S), is applied to every iterate, so the converged state lies
    in Fix(S) exactly.  Convergence is declared when the residual infinity
    norm drops below NEWTON_TOL and the constraint holds; the `Correction`
    carries that iterate's Jacobian and labels the point only when asked.
    Raises CorrectorFailure on a non-finite residual, a singular corrector
    matrix or no convergence within NEWTON_MAX_ITERS iterations, and
    DomainExit when an iterate leaves the domain or the converged point is
    infeasible.
    """
    n = system.dim
    x = np.array(state, dtype=float)
    p = float(parameter)
    h = 0.0
    if constraint is not None:
        row, origin, h = constraint.row, constraint.origin, constraint.h
        M, rhs, z = np.empty((n + 1, n + 1)), np.empty(n + 1), np.empty(n + 1)
        M[n] = row
    res_norm = math.inf
    for it in range(NEWTON_MAX_ITERS + 1):
        if projection is not None:
            x = projection @ x
        if not system.in_domain(x):
            raise DomainExit(f"iterate left the domain at {system.param_name}={p:.6g}")
        F, J = system.evaluate(x, p)
        res_norm = float(np.abs(F).max())  # NaN when F holds one: max propagates it
        if not math.isfinite(res_norm):
            raise CorrectorFailure("non-finite residual", math.inf, it)
        gap = 0.0
        if constraint is not None:
            z[:n], z[n] = x, p
            gap = row @ (z - origin) - h
        if res_norm < NEWTON_TOL and abs(gap) < 1e-10 * max(1.0, abs(h)):
            if not system.feasible(x):
                raise DomainExit(f"converged point is infeasible at {system.param_name}={p:.6g}")
            return Correction(system, x, p, it, J)
        if it == NEWTON_MAX_ITERS:
            break
        try:
            if constraint is None:
                x = x + solve(J, -F)
            else:
                M[:n, :n], M[:n, n] = J, system.parameter_derivative(x, p)
                rhs[:n], rhs[n] = -F, -gap
                step = solve(M, rhs)
                x, p = x + step[:n], p + step[n]
        except LinAlgError as exc:
            raise CorrectorFailure(f"singular corrector matrix ({exc})", res_norm, it) from exc
    raise CorrectorFailure(
        f"no convergence in {NEWTON_MAX_ITERS} iterations (|F|={res_norm:.3e})",
        res_norm, NEWTON_MAX_ITERS)


def _try_correct(system, state, parameter: float,
                 constraint: PseudoArclength | None = None,
                 projection: np.ndarray | None = None) -> Correction | None:
    """`newton_correct`, or None where it raises `CorrectorFailure` or
    `DomainExit`: the one place a probe's or a seed's failed correction is
    decided."""
    try:
        return newton_correct(system, state, parameter, constraint, projection)
    except (CorrectorFailure, DomainExit):
        return None


def branch_tangent(system, x: np.ndarray, p: float, t_prev: np.ndarray,
                   weights: np.ndarray | None = None, J: np.ndarray | None = None) -> np.ndarray:
    """Unit tangent of the solution curve, oriented along t_prev.

    Solves [J, F_p; w*t_prev] t = e_{n+1} and normalizes in the weighted
    metric: the construction keeps <t_prev, t>_w positive, so consecutive
    tangents never flip orientation spuriously.  `J`: the point's Jacobian, if known.
    """
    n = system.dim
    w = np.ones(n + 1) if weights is None else weights
    if J is None:
        J = system.evaluate(x, p)[1]
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    M = np.empty((n + 1, n + 1))
    M[:n, :n], M[:n, n], M[n] = J, system.parameter_derivative(x, p), w * t_prev
    try:
        t = solve(M, rhs)
    except LinAlgError:
        # reference direction happened to be orthogonal to the curve; nudge it
        M[n] = w * t_prev + 1e-8 * np.ones(n + 1)
        try:
            t = solve(M, rhs)
        except LinAlgError:
            t = np.asarray(t_prev, dtype=float).copy()  # singular point: keep the caller's direction
    return t / np.sqrt((w * t) @ t)


def trace_branch(system, start: BranchPoint, direction, settings: ContinuationSettings,
                 window: tuple[float, float] = (0.0, math.inf),
                 bifurcation_kind: str = "secondary",
                 targets: Sequence[BifurcationEvent] = ()) -> tuple[Branch, list[BifurcationEvent]]:
    """Trace one branch from a converged start point.

    `direction` seeds the tangent orientation (only its sign content
    matters).  The trace stops at max_points, on the parameter window's
    edge, when the corrector keeps failing/leaving the domain at the
    minimum step, or where the branch meets a more symmetric one.  A
    converged correction farther than h/2 from its predictor z + h t, in
    the step's metric, has jumped onto another part of the solution curve
    (past a fold the corrector's hyperplane can meet its other leg; Allgower
    & Georg 1990, ch. 6) and counts as a corrector failure.

    * window edge: a correction past the window is dropped unlabeled, and
      one `newton_correct` at the crossed edge's parameter, from the state
      interpolated along the step's chord, gives the trace's last point,
      exactly on the edge; the point passes the crossing and landing rules
      below like any other.  If that correction fails, or lies farther
      from the last point than the dropped one in the arclength metric,
      the step is shrunk and retried as after a corrector failure;
    * crossing: the monitor u.x (`symmetry.crossing_functionals`) of a Fix(S')
      of codimension 1 in the start point's Fix(S) changes sign over a step
      or ends it within the stabilizer's 1e-6 relative of zero; the trace
      ends exactly on a group image of one of `targets` in Fix(S') within
      that step, kept as the branch's `reached_event`, or else on the
      bifurcation of the symmetric branch there, reported as an event.
      Where the step's ends bracket no such bifurcation, the step jumped
      across Fix(S') and is shrunk and retried as after a corrector failure;
    * landing, the fallback where the larger fixed space has codimension
      above 1: a kept point has another shape label and a larger isotropy
      order than the start point; the trace ends before the first such
      point, and whatever came after it, a crossing end too, is dropped.

    Every correction and localization probe is projected onto Fix(S), S the
    start point's stabilizer.  The loop keeps each accepted point's state,
    parameter, arclength, Jacobian and tangent slope; after it, the points
    are labeled in one `classify_stack` call (corrections that the window
    or crossing rules reject are never labeled), the landing rule cuts
    them, and `detect_and_localize` runs on each segment before the cut
    whose index changed.  The crossing end point is labeled on its own and
    its event comes last.
    Detected events are classified as `bifurcation_kind` ("primary" when
    the caller is tracing the fully symmetric branch) or "turning".
    """
    x0 = np.array(start.state, dtype=float)
    p0 = float(start.parameter)
    d = np.asarray(direction, dtype=float)
    d = d / np.sqrt(d @ d)
    z = np.append(x0, p0)
    w = metric_weights(z)
    t = branch_tangent(system, x0, p0, d, w)
    # the accepted corrections after the start point, labeled after the loop
    states, params, arclengths, jacobians = [], [], [], []
    slopes = [float(t[-1])]  # the tangents' parameter components
    fix, normals, projections = system.fixed_space(x0)
    phi = normals @ x0
    reached = end = end_point = None
    h = min(H0, settings.h_max)
    s = 0.0
    while 1 + len(states) < settings.max_points:
        z_pred = z + h * t
        try:
            corrected = newton_correct(system, z_pred[:-1], z_pred[-1], PseudoArclength(w * t, z, h), fix)
            jump = np.append(corrected.state, corrected.parameter) - z_pred
            if (w * jump) @ jump > 0.25 * h * h:  # converged onto another part of the curve
                raise CorrectorFailure("correction farther than h/2 from its predictor")
        except (CorrectorFailure, DomainExit) as err:
            if h <= H_MIN and not states and isinstance(err, CorrectorFailure):
                raise TraceAbort(f"corrector failed at the start point with minimum step: {err}") from err
            corrected = None
        at_edge = corrected is not None and not (window[0] <= corrected.parameter <= window[1])
        if at_edge:
            # the step left the window: end it on the edge it crossed instead
            corrected = _edge_correction(system, z, corrected, window, w, fix)
        crossing = None
        if corrected is not None:
            x_new, z_new = corrected.state, np.append(corrected.state, corrected.parameter)
            phi_new = normals @ x_new
            crossed = np.flatnonzero((phi * phi_new < 0.0)
                                     | (np.abs(phi_new) <= 1e-6 * np.max(np.abs(x_new[1:]))))
            if crossed.size:
                crossing = _crossing_end(system, normals, projections, crossed, z, z_new, h,
                                         targets, bifurcation_kind)
                corrected = None if crossing is None else corrected  # it jumped across Fix(S')
        if corrected is None:  # a failed step or a jump is shrunk and retried, or ends the trace at H_MIN
            if h > H_MIN:
                h = max(h * STEP_SHRINK, H_MIN)
                continue
            break
        if crossing is not None:
            z_end, reached, end = crossing
            end_point = replace(classified_point(system, z_end[:-1], z_end[-1]),
                                arclength=s + float(np.sqrt((z_end - z) @ (z_end - z))))
            break
        w_new = metric_weights(z_new)
        t_new = branch_tangent(system, x_new, z_new[-1], t, w_new, corrected.jacobian)
        s += float(np.sqrt((z_new - z) @ (z_new - z)))
        states.append(x_new)
        params.append(float(corrected.parameter))
        arclengths.append(s)
        jacobians.append(corrected.jacobian)
        slopes.append(float(t_new[-1]))
        z, t, w, phi = z_new, t_new, w_new, phi_new
        if at_edge:
            break
        if corrected.iterations <= CONTRACTION_TARGET:
            h = min(h * STEP_GROWTH, settings.h_max)

    labels = system.classify_stack(states, jacobians)
    start_order = system.isotropy_order(x0)
    cut = next((i for i, (x, c) in enumerate(zip(states, labels))
                if c.shape != start.shape and system.isotropy_order(x) > start_order), None)
    if cut is not None:  # landed on a more symmetric point
        states, params, arclengths, labels, slopes = (
            states[:cut], params[:cut], arclengths[:cut], labels[:cut], slopes[:cut + 1])
        reached = end = end_point = None
    points = [replace(start, arclength=0.0)] + [
        BranchPoint(tuple(x), p, sk, c.stability, c.shape, c.index) for x, p, sk, c in
        zip(np.array(states).tolist(), params, arclengths, labels)]
    events: list[BifurcationEvent] = []
    index = np.array([pt.index for pt in points])
    for i in np.flatnonzero(index[:-1] != index[1:]).tolist():
        ev = detect_and_localize(system, points[i], points[i + 1],
                                 bifurcation_kind=bifurcation_kind,
                                 monitors=(index[i], index[i + 1], slopes[i], slopes[i + 1]),
                                 projection=fix)
        if ev is not None:
            events.append(ev)
    events += [end] if end is not None else []
    points += [end_point] if end_point is not None else []
    return (Branch(points=points, reached_event=None if reached is None else reached.id),
            dedup_events(events))


def _edge_correction(system, z: np.ndarray, over: Correction, window: tuple[float, float],
                     w: np.ndarray, fix: np.ndarray) -> Correction | None:
    """The branch point on the window edge that the step z -> `over` crossed,
    corrected at that fixed parameter in Fix(S) from the step's chord; None
    when z is not strictly inside the window, when the correction raises, or
    when it lies farther from z in the metric `w` than `over` (it converged
    onto another part of the solution set)."""
    if not window[0] < z[-1] < window[1]:
        return None
    p = over.parameter
    edge = window[0] if p < window[0] else window[1]
    z_over = np.append(over.state, p)
    guess = z + (edge - z[-1]) / (p - z[-1]) * (z_over - z)
    got = _try_correct(system, guess[:-1], edge, projection=fix)
    if got is None:
        return None
    dz, dz_over = np.append(got.state, edge) - z, z_over - z
    return got if (w * dz) @ dz <= (w * dz_over) @ dz_over else None


def _crossing_end(system, normals, projections, ks, z_a: np.ndarray, z_b: np.ndarray, h: float,
                  targets: Sequence[BifurcationEvent], kind: str):
    """(end point, reached target, new event) of a step z_a -> z_b across Fix(S'_k), k in `ks`, or None.

    It ends on a target's group image in a crossed Fix(S'_k) within the
    step h of the step's midpoint, in the metric at z_a (at a pitchfork
    both ends of the step lie on one side of it), or else on the
    bifurcation of the symmetric branch: both ends of the step are
    corrected at their fixed parameters within Fix(S'_k), and
    `detect_and_localize` localizes the index change between them, with
    every probe in Fix(S'_k) (near a pitchfork the step's own chord is
    nearly normal to Fix(S'_k)).  None when a correction fails or the ends
    bracket no index change: the step crossed Fix(S'_k) at no bifurcation,
    a jump.
    """
    w = metric_weights(z_a)
    z_mid = 0.5 * (z_a + z_b)
    for tg, P in ((tg, P) for tg in targets for P in system.group()):
        z_img = np.append(P.apply(tg.state), tg.parameter)
        x = z_img[:-1]
        if float((w * (z_img - z_mid)) @ (z_img - z_mid)) <= h * h and any(
                np.max(np.abs(projections[k] @ x - x)) <= 1e-6 * np.max(np.abs(x[1:])) for k in ks):
            return z_img, tg, None
    Q = projections[ks[0]]
    ends = [_try_correct(system, Q @ z[:-1], z[-1], projection=Q) for z in (z_a, z_b)]
    ev = None if None in ends else detect_and_localize(system, ends[0].point, ends[1].point, kind,
                                                       projection=Q)
    return None if ev is None else (np.append(ev.state, ev.parameter), None, ev)


def dedup_events(events: list[BifurcationEvent]) -> list[BifurcationEvent]:
    """Merge events of one kind closer than 1e-8 relative in the parameter.

    Of merged events the first one found is kept, a refined one before an
    unrefined one, so the order of discovery, not rounding, decides which
    group image of an event survives; the kept events come sorted by
    parameter.
    """
    kept: list[BifurcationEvent] = []
    for ev in sorted(events, key=lambda e: not e.refined):
        if any(ev.kind == k.kind and abs(ev.parameter - k.parameter) <= 1e-8 * max(1.0, abs(k.parameter))
               for k in kept):
            continue
        kept.append(ev)
    return sorted(kept, key=lambda e: e.parameter)


def detect_and_localize(system, a: BranchPoint, b: BranchPoint,
                        bifurcation_kind: str = "secondary",
                        monitors: tuple[int, int, float, float] | None = None,
                        projection: np.ndarray | None = None) -> BifurcationEvent | None:
    """Examine one traced segment for a bifurcation or turning point.

    The monitor is the tangent-space (Morse) index, the number of negative
    eigenvalues of Z^t H Z that the classification computes.  By
    In(J) = In(Z^t H Z) + (1, 1, 0) (Gould 1985, Math. Programming 32) it
    changes exactly where an eigenvalue of the Jacobian of any multiplicity
    crosses zero, including the double and triple crossings on the fully
    symmetric branch that leave every determinant sign unchanged; a segment
    whose index does not change holds no event.  `monitors` gives the
    indices and the tangents' parameter components at both ends; when it is
    None the indices are the points' own and the tangents are built here.
    The event is a fold ("turning") where the tangent component flips, and
    `bifurcation_kind` otherwise.

    One bracketing loop localizes every event on the crossing eigenvalue:
    the tangent eigenvalue at ascending position min(index_a, index_b),
    which each probe's classification returns.  Each trial point is the
    secant root of the last two probes, or the bracket midpoint while there
    are fewer or the root leaves the bracket; the probe's index decides
    which side it replaces.  Every probe corrects back onto the branch on
    the hyperplane orthogonal to the segment chord, so folds pose no
    difficulty; `newton_correct` does this with a zero arclength step along
    the chord, projecting onto the branch's fixed-point space with
    `projection`.  Localization targets relative parameter accuracy 1e-10;
    if a probe correction fails the event is reported from the best point
    found, flagged `refined=False`.  The kernel dimension m is the index
    jump across the final bracket, and the kernel is the m eigenvectors of
    the Jacobian nearest zero at the reported point.
    """
    za, zb = a.z(), b.z()
    chord = zb - za
    chord_len = float(np.sqrt(chord @ chord))
    neg_a, neg_b = (a.index, b.index) if monitors is None else monitors[:2]
    if chord_len == 0.0 or neg_a == neg_b:
        return None
    d = chord / chord_len
    if monitors is None:  # the tangents, oriented along the chord
        ta = branch_tangent(system, za[:-1], za[-1], d)
        monitors = (neg_a, neg_b, float(ta[-1]), float(branch_tangent(system, zb[:-1], zb[-1], ta)[-1]))
    kind = "turning" if monitors[2] * monitors[3] < 0 else bifurcation_kind

    def corrected(theta: float) -> tuple[np.ndarray, np.ndarray] | None:
        q = za + theta * chord
        got = _try_correct(system, q[:-1], q[-1], PseudoArclength(d, q, 0.0), projection)
        return None if got is None else (np.append(got.state, got.parameter), got.jacobian)

    def corrected_near(lo: float, hi: float, theta: float):
        """Probe theta, falling back to offsets inside (lo, hi).

        Exactly at a crossing the hyperplane Newton matrix is singular (the
        kernel is not controlled by the chord row), so a probe can land on a
        sliver where correction fails; nearby offsets stay on the branch.
        """
        span = hi - lo
        for frac in (0.0, 0.09, -0.09, 0.23, -0.23):
            cand = theta + frac * span
            if not (lo < cand < hi) and frac != 0.0:
                continue
            got = corrected(cand)
            if got is not None:
                return cand, got
        return theta, None

    p_tol = 1e-10 * max(1.0, abs(a.parameter), abs(b.parameter))

    def tight(lo: float, hi: float) -> bool:
        return (hi - lo) * abs(chord[-1]) < p_tol and (hi - lo) * chord_len < 1e-9 * max(1.0, chord_len)

    k = min(neg_a, neg_b)  # ascending position of the crossing tangent eigenvalue
    best, refined = None, True
    lo, hi, neg_lo, neg_hi = 0.0, 1.0, neg_a, neg_b
    probes = []  # (theta, monitor) of each probe
    for _ in range(80):
        if tight(lo, hi):
            break
        theta = 0.5 * (lo + hi)
        if len(probes) > 1 and probes[-1][1] != probes[-2][1]:
            (t0, f0), (t1, f1) = probes[-2:]
            secant = t1 - f1 * (t1 - t0) / (f1 - f0)
            theta = secant if lo < secant < hi else theta
        theta, mid = corrected_near(lo, hi, theta)
        if mid is None:
            refined = False
            break
        best, cls = mid, system.classify_stack([mid[0][:-1]], [mid[1]])[0]
        probes.append((theta, cls.tangent_eigenvalues[k]))
        if cls.index == neg_lo:
            lo = theta
        else:
            hi, neg_hi = theta, cls.index

    if best is None:
        best = corrected(0.5 * (lo + hi))
        if best is None:
            # bracket lost entirely: report the midpoint at reduced precision
            z_mid = za + 0.5 * chord
            best = z_mid, system.evaluate(z_mid[:-1], z_mid[-1])[1]
            refined = False

    z_best, J_best = best
    # the kernel: as many eigenvectors of J, nearest zero first, as eigenvalues crossed
    w, V = sym_eigen(J_best)
    near = np.sort(np.argsort(np.abs(w), kind="stable")[:abs(neg_hi - neg_lo)])
    return BifurcationEvent(
        kind=kind,
        parameter=float(z_best[-1]),
        kernel_dim=len(near),
        kernel=tuple(tuple(float(v) for v in V[:, i]) for i in near),
        state=tuple(float(v) for v in z_best[:-1]),
        refined=refined,
    )


def is_isolated(system, x: np.ndarray, p: float) -> bool:
    """True once no tangent eigenvalue is trapped near zero.

    The tangent eigenvalues are those of Z^t H Z that `classify_stack`
    computes, H = J[1:, 1:] the Hessian of the Lagrangian; they are judged
    against max|H|, the scale stability is decided on, not against the
    bordered Jacobian J, whose constraint row can outweigh H by many orders
    of magnitude.  Near a bifurcation the critical eigenvalue is O(amplitude),
    or O(amplitude^2) on a pitchfork, so a seed too close to it leaves every
    bordered matrix nearly singular; the tracer needs the spectrum clear of
    zero before taking over.  A state that stays non-isolated at any
    amplitude signals a degenerate solution family (the soft-spring cluster
    equations, for example, admit a whole surface of nontrivial critical
    points), where branch tracing is ill posed.
    """
    J = system.evaluate(x, p)[1]
    w = np.abs(system.classify_stack([x], [J])[0].tangent_eigenvalues)
    scale = float(np.max(np.abs(J[1:, 1:])))
    return scale > 0 and float(np.min(w)) > 1e-7 * scale


def _pinned_walk(system, P: np.ndarray, v: np.ndarray, x0: np.ndarray, p0: float,
                 delta: float) -> Correction | None:
    """Walk out along a bifurcating branch by doubling the pinned amplitude.

    Each step is a `newton_correct` in Fix(S), projected with `P`, with the
    parameter free and the amplitude v.(x - x0) pinned by the constraint
    row (v, 0); inside Fix(S) the kernel is simple and the pinned Newton is
    well posed arbitrarily close to the bifurcation.  The walk stops at the
    first amplitude whose point `is_isolated`, returning the last good
    point of the branch.
    """
    def pinned(guess: np.ndarray, p: float, amp: float) -> Correction | None:
        return _try_correct(system, guess, p, PseudoArclength(np.append(v, 0.0), np.append(x0, p0), amp), P)

    got = pinned(x0 + delta * v, p0, delta)
    amp = delta
    for _ in range(16):
        if got is None or is_isolated(system, got.state, got.parameter):
            break
        amp *= 2.0
        wider = pinned(got.state + 0.5 * amp * v, got.parameter, amp)
        if wider is None:
            break
        got = wider
    return got


def branch_switch(system, event: BifurcationEvent, reduction) -> tuple[list[BranchPoint], tuple[float, ...]]:
    """Seed the branches emanating from a bifurcation event; (seeds, kernel vector v).

    In Fix(S), S the reduction's isotropy subgroup, the critical eigenvalue
    is simple with unit kernel vector v.  Whether the branch crosses the
    parameter of the event (transcritical) or lies on one side of it
    (pitchfork), it is parametrized near the event by the amplitude
    v.(x - x0): each seed pins that amplitude at +-PITCHFORK_DELTA with the
    parameter free, and doubles it along the branch until the seed
    `is_isolated`, so the returned seeds are traceable.  The seeds come
    with the one above the event's parameter first, in a stable order, so
    a pitchfork pair keeps its +-delta order.

    Every seed is a `newton_correct` projected onto Fix(S) with the
    reduction's projector, so it converges on the full residual, lies in
    Fix(S) exactly and is labeled from the corrector's last Jacobian; a
    seed whose correction fails is left out.
    """
    P = reduction.projection
    v = reduction.kernel_unit()
    x0 = np.array(event.state, dtype=float)
    p0 = float(event.parameter)
    tries = [_pinned_walk(system, P, v, x0, p0, delta) for delta in (PITCHFORK_DELTA, -PITCHFORK_DELTA)]
    seeds = [got.point for got in tries if got is not None]  # a seed that does not converge is left out
    return sorted(seeds, key=lambda pt: pt.parameter <= p0), tuple(float(t) for t in v)


def concatenate_branches(first: Branch, junction: BranchPoint | None, second: Branch) -> Branch:
    """Join two half-traces into one branch (first reversed), rebuilding arclength.

    Coincident points at the junction (the halves usually share their seed or
    start state) are collapsed so arclength stays strictly increasing.
    """
    pts = list(reversed(first.points))
    if junction is not None:
        pts.append(junction)
    pts.extend(second.points)
    out: list[BranchPoint] = []
    s = 0.0
    prev = None
    for pt in pts:
        if prev is not None:
            dz = pt.z() - prev.z()
            step = float(np.sqrt(dz @ dz))
            if step < 1e-12 * max(1.0, float(np.max(np.abs(pt.z())))):
                continue
            s += step
        out.append(replace(pt, arclength=s))
        prev = pt
    return Branch(points=out, label=second.label or first.label)
