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
    fixed_space(x)            `symmetry.fixed_space` of the stabilizer of x

There is one corrector, Keller's bordered Newton iteration, in a
relative-scale arclength metric: the predictor tangent is frozen as the
extra (weighted) row during correction.  Event localization uses the same
corrector with a zero step along the segment chord, which keeps each probe
on the hyperplane through it normal to the chord, and window-edge and
crossing-end probes correct at fixed parameter.  Such a probe goes through
`_try_correct`, the one place where its failed correction becomes None;
only a trace's own step reads why it failed.  A branch of isotropy S
lies in the fixed-point space Fix(S), and the corrector projects every
iterate onto it with the exact group-average projector of the stabilizer
of a point just off the start along its tangent, so a trace keeps its
symmetry by construction, whatever the linear solver rounds.  Each Newton
iterate evaluates the residual and Jacobian in one pass and refills the
correction's one bordered matrix and right-hand side in place; an accepted
point reuses its last Jacobian for the tangent, and keeps it until the
trace ends, when all of the trace's points are classified in one stacked
pass (`classify_stack`).  A step that leaves the parameter window ends the
trace on the edge it crossed: the edge is a special point p - edge = 0 of
the solution curve (Allgower & Georg 1990, ch. 9), computed by one
correction at that fixed parameter from the step's chord.

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

A trace ends where it meets a more symmetric branch, which it can do only
inside a larger fixed-point space Fix(S') (Golubitsky, Stewart & Schaeffer,
ch. XIII).  The crossing monitor is the signed distance u.x from each
Fix(S') of codimension 1 in the branch's Fix(S), a symmetry-adapted test
function as in Dellnitz & Werner (1989, J. Comput. Appl. Math. 26).  Every
larger fixed space that a triangle branch, or a tetrahedron branch of
isotropy order 3 or more, can meet lies in such a Fix(S').  A tetrahedron
branch of order 2 can also meet a Fix(S') of order 6 and codimension 2,
and one of order 1 has no monitor at all; a trace would go on through
such a point.  The crossing step's two ends, corrected into Fix(S') at
fixed parameter, bracket the bifurcation of the symmetric branch for the
same localizer; where they bracket no index change, the step jumped
across Fix(S') and is shrunk and retried.
A branch switch is the first arclength step of its trace (Keller 1977, in
Rabinowitz (ed.), Applications of Bifurcation Theory; Allgower & Georg
1990, ch. 8): `branch_switch` gives the bifurcating branch's tangent at the
event, in the fixed-point space Fix(S) of its isotropy subgroup, and both
halves are traced from the event point itself, along t and -t.  At a
pitchfork, where a symmetry of the event maps the critical direction v to
-v, the tangent is (v, 0); elsewhere it is the root of the algebraic
bifurcation equation on the 2-D kernel of [J F_p] in Fix(S) x R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .linalg import solve, squared_norms, sym_eigen

__all__ = [
    "ContinuationSettings",
    "BranchPoint",
    "Branch",
    "BifurcationEvent",
    "PseudoArclength",
    "Correction",
    "CorrectorFailure",
    "DomainExit",
    "newton_correct",
    "branch_tangent",
    "trace_branch",
    "detect_and_localize",
    "dedup_events",
    "branch_switch",
    "concatenate_branches",
    "cumulative_arclengths",
    "classified_point",
    "metric_weights",
    "is_isolated",
]


# The corrector's and the step control's constants.  Every function reads
# them when it is called, so a test can patch one (a stalled corrector, say)
# with monkeypatch.
H0 = 1e-2  # the first step of a trace, unless h_max is shorter
H_MIN = 1e-6  # the shortest step; a step that fails at it ends the trace
NEWTON_TOL = 1e-10  # the residual infinity norm a converged iterate stays below
NEWTON_MAX_ITERS = 20
STEP_GROWTH = 1.5  # the step grows by this after a correction of at most CONTRACTION_TARGET iterations
STEP_SHRINK = 0.5  # and shrinks by this after a failed or rejected step
CONTRACTION_TARGET = 4


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


@dataclass(eq=False)
class Branch:
    """A branch as columns: point i is row i of `states` (N, n) and entry i of
    each other column, `index` its tangent-space (Morse) index.  Branches are
    equal when every field is, compared as arrays (two empty ones are equal)."""

    states: np.ndarray
    parameters: np.ndarray
    arclengths: np.ndarray
    index: np.ndarray
    stability: Sequence[str]
    shape: Sequence[str]
    id: int | None = None
    parent_event: int | None = None
    label: str = ""
    reached_event: int | None = None  # id of the known event the trace ended at; not exported

    def __post_init__(self):
        # the CSV writer zips the columns, so a short one would drop rows silently
        if len({len(self.states), len(self.parameters), len(self.arclengths), len(self.index),
                len(self.stability), len(self.shape)}) > 1:
            raise ValueError(f"branch {self.id}: the columns of a branch must be all of one length")

    @classmethod
    def from_points(cls, points: Sequence[BranchPoint], **kwargs) -> Branch:
        return cls(np.array([pt.state for pt in points], dtype=float), np.array([pt.parameter for pt in points]),
                   np.array([pt.arclength for pt in points]), np.array([pt.index for pt in points], dtype=int),
                   [pt.stability for pt in points], [pt.shape for pt in points], **kwargs)

    @property
    def points(self) -> tuple[BranchPoint, ...]:
        """The rows as `BranchPoint` records, built anew on each access."""
        return tuple(map(BranchPoint, map(tuple, self.states.tolist()), self.parameters.tolist(),
                         self.arclengths.tolist(), self.stability, self.shape, self.index.tolist()))

    def __eq__(self, other):
        if not isinstance(other, Branch):
            return NotImplemented
        return all(np.array_equal(a, b) or np.size(a) == np.size(b) == 0 for a, b in
                   ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self)))


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


def classified_point(system, x: np.ndarray, p: float) -> BranchPoint:
    """A solution point with its labels and index, from its Jacobian."""
    return Correction(system, x, p, 0, system.evaluate(x, p)[1]).point


@dataclass(eq=False)
class Correction:
    """A converged corrector iterate, unpacking as `(point, iterations)`; its
    `classification`, which the labeled `point` and `is_isolated` read, is
    computed once on first use, so a rejected correction costs no eigensolve."""

    system: object
    state: np.ndarray
    parameter: float
    iterations: int
    jacobian: np.ndarray

    @cached_property
    def classification(self):  # the converged point's `cluster.Classification`
        return self.system.classify_stack([self.state], [self.jacobian])[0]

    @cached_property
    def point(self) -> BranchPoint:
        c = self.classification
        return BranchPoint(tuple(float(v) for v in self.state), float(self.parameter), 0.0,
                           c.stability, c.shape, c.index)

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
    `DomainExit`: the one place a probe's failed correction is decided."""
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


def trace_branch(system, start: BranchPoint, tangent, settings: ContinuationSettings,
                 window: tuple[float, float] = (0.0, math.inf),
                 bifurcation_kind: str = "secondary",
                 targets: Sequence[BifurcationEvent] = ()) -> tuple[Branch, list[BifurcationEvent]]:
    """Trace one branch from a converged start point along its `tangent`.

    `tangent` is the branch's tangent (x, p) at the start, in any scale:
    `branch_tangent` at a regular point, one of `branch_switch`'s at a
    bifurcation event; the first step goes along it.  The trace stops at
    max_points, on the parameter window's edge, when the corrector keeps
    failing/leaving the domain at the minimum step (at the first step this
    leaves the start point alone), or where the branch crosses into a more
    symmetric fixed-point space.  A converged correction farther than h/2
    from its predictor z + h t, in the step's metric, has jumped onto
    another part of the solution curve (past a fold the corrector's
    hyperplane can meet its other leg; Allgower & Georg 1990, ch. 6) and
    counts as a corrector failure.

    * window edge: a correction past the window is dropped unlabeled, and
      one `newton_correct` at the crossed edge's parameter, from the state
      interpolated along the step's chord, gives the trace's last point,
      exactly on the edge; the point passes the crossing rule below like
      any other.  If that correction fails, or lies farther from the last
      point than the dropped one in the arclength metric, the step is
      shrunk and retried as after a corrector failure;
    * crossing: the monitor u.x (`symmetry.fixed_space`) of a Fix(S')
      of codimension 1 in the branch's Fix(S) changes sign over a step
      or ends it within the stabilizer's 1e-6 relative of zero; a start on
      Fix(S') takes its side from u.t.  The trace ends exactly on a group
      image of one of `targets` in Fix(S') within that step, kept as the
      branch's `reached_event`, or else on the bifurcation of the symmetric
      branch there, reported as an event.  Where the step's ends bracket no
      such bifurcation, the step jumped across Fix(S') and is shrunk and
      retried as after a corrector failure.  The module docstring says
      which more symmetric spaces these monitors leave unwatched;
    * degenerate family: the first accepted point is not `is_isolated`
      (its solutions form a continuum off Fix(S)), so the trace ends there.

    S is the stabilizer of a point just off the start along the tangent,
    and every correction and localization probe is projected onto Fix(S).
    The loop keeps each accepted point's state, parameter, arclength,
    Jacobian and tangent slope, and the crossing end's state, parameter,
    arclength and Jacobian; after it, the points are labeled in one
    `classify_stack` call (corrections that the window or crossing rules
    reject are never labeled), the branch's columns are filled from these
    lists, and `detect_and_localize` runs, from its two rows, on each
    segment before the crossing end whose index changed, but the first one
    when the start is one of `targets`: that event is known.  The crossing
    end's event comes last.
    Detected events are classified as `bifurcation_kind` ("primary" when
    the caller is tracing the fully symmetric branch) or "turning".
    """
    x0 = np.array(start.state, dtype=float)
    p0 = float(start.parameter)
    z = np.append(x0, p0)
    w = metric_weights(z)
    t = np.asarray(tangent, dtype=float)
    t = t / np.sqrt((w * t) @ t)
    # the accepted corrections after the start point, labeled after the loop
    states, params, arclengths, jacobians = [], [], [], []
    slopes = [float(t[-1])]  # the tangents' parameter components
    off = _off(x0, t[:-1])
    fix, normals, projections = system.fixed_space(off)
    phi = normals @ x0
    phi = np.where(np.abs(phi) <= 1e-6 * np.max(np.abs(x0[1:])), normals @ t[:-1], phi)
    at_target = any(tg.parameter == start.parameter and tg.state == start.state for tg in targets)
    reached = end = None
    h = min(H0, settings.h_max)
    s = 0.0
    while 1 + len(states) < settings.max_points:
        z_pred = z + h * t
        try:
            corrected = newton_correct(system, z_pred[:-1], z_pred[-1], PseudoArclength(w * t, z, h), fix)
            jump = np.append(corrected.state, corrected.parameter) - z_pred
            if (w * jump) @ jump > 0.25 * h * h:  # converged onto another part of the curve
                raise CorrectorFailure("correction farther than h/2 from its predictor")
        except (CorrectorFailure, DomainExit):
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
            # the end point, labeled with the loop's points; event detection
            # looks only at the points before it
            z_end, reached, end = crossing
            states.append(z_end[:-1])
            params.append(float(z_end[-1]))
            arclengths.append(s + float(np.sqrt((z_end - z) @ (z_end - z))))
            jacobians.append(system.evaluate(z_end[:-1], z_end[-1])[1])
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
        if at_edge or (len(states) == 1 and not is_isolated(corrected.jacobian, fix)):
            break
        if corrected.iterations <= CONTRACTION_TARGET:
            h = min(h * STEP_GROWTH, settings.h_max)

    labels = system.classify_stack(states, jacobians)
    n_kept = 1 + len(states) - (reached is not None or end is not None)  # the points before a crossing end
    branch = Branch(np.array([x0] + states), np.array([p0] + params), np.array([0.0] + arclengths),
                    np.array([start.index] + [c.index for c in labels]),
                    [start.stability] + [c.stability for c in labels], [start.shape] + [c.shape for c in labels],
                    reached_event=None if reached is None else reached.id)
    z_rows = np.column_stack([branch.states, branch.parameters])
    index = branch.index[:n_kept]
    events: list[BifurcationEvent] = []
    for i in np.flatnonzero(index[:-1] != index[1:]).tolist():
        if i == 0 and at_target:
            continue  # the start's own event, known already
        ev = detect_and_localize(system, z_rows[i], z_rows[i + 1], (index[i], index[i + 1]),
                                 bifurcation_kind, (slopes[i], slopes[i + 1]), fix)
        if ev is not None:
            events.append(ev)
    events += [end] if end is not None else []
    return branch, dedup_events(events)


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
    ev = None if None in ends else detect_and_localize(
        system, *(np.append(e.state, e.parameter) for e in ends),
        tuple(e.classification.index for e in ends), kind, projection=Q)
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


def detect_and_localize(system, za: np.ndarray, zb: np.ndarray, indices: tuple[int, int],
                        bifurcation_kind: str = "secondary",
                        slopes: tuple[float, float] | None = None,
                        projection: np.ndarray | None = None) -> BifurcationEvent | None:
    """Examine one traced segment, z_a = (x_a, p_a) to z_b, for a bifurcation or turning point.

    The monitor is the tangent-space (Morse) index, the number of negative
    eigenvalues of Z^t H Z that the classification computes, `indices` at
    the ends.  By In(J) = In(Z^t H Z) + (1, 1, 0) (Gould 1985, Math.
    Programming 32) it changes exactly where an eigenvalue of the Jacobian of any multiplicity
    crosses zero, including the double and triple crossings on the fully
    symmetric branch that leave every determinant sign unchanged; a segment
    whose index does not change holds no event.  `slopes` gives the
    tangents' parameter components at both ends; when it is None the
    tangents are built here.
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
    if a probe correction fails the event is reported from the last probe
    that converged, or from z_a when none did, flagged `refined=False`.
    The kernel dimension m is the index jump across the final bracket, and
    the kernel is the m eigenvectors of the Jacobian nearest zero at the
    reported point.
    """
    chord = zb - za
    chord_len = float(np.sqrt(chord @ chord))
    neg_a, neg_b = indices
    if chord_len == 0.0 or neg_a == neg_b:
        return None
    d = chord / chord_len
    if slopes is None:  # the tangents, oriented along the chord
        ta = branch_tangent(system, za[:-1], za[-1], d)
        slopes = (float(ta[-1]), float(branch_tangent(system, zb[:-1], zb[-1], ta)[-1]))
    kind = "turning" if slopes[0] * slopes[1] < 0 else bifurcation_kind

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

    p_tol = 1e-10 * max(1.0, abs(float(za[-1])), abs(float(zb[-1])))

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

    if best is None:  # no probe converged: report the segment's converged end
        best = za, system.evaluate(za[:-1], za[-1])[1]

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


def is_isolated(jacobian: np.ndarray, fix: np.ndarray) -> bool:
    """False where the solution with this Jacobian lies on a continuum off its
    fixed-point space: the Hessian of the Lagrangian H = J[1:, 1:],
    restricted to the complement of Fix(S) (`fix` its projector), has an
    eigenvalue within 1e-10 of max|H|.

    Away from a symmetry-breaking bifurcation no such eigenvalue of an
    isolated solution vanishes; on a degenerate family one vanishes
    everywhere.  The soft-spring cluster equations, for example, admit a
    whole surface of nontrivial critical points, where branch tracing is ill
    posed: there the ratio to max|H| is round-off, 3e-14 or less, against
    4e-4 or more on every other potential tried.  The complement lies in
    the constraint's tangent space, since grad g is fixed by S.
    """
    H = jacobian[1:, 1:]
    w, V = np.linalg.eigh(np.eye(len(H)) - fix[1:, 1:])
    C = V[:, w > 0.5]  # an orthonormal basis of the complement of Fix(S) in the edges
    mu = np.abs(np.linalg.eigvalsh(C.T @ H @ C))
    return not (mu.size and float(mu.min()) <= 1e-10 * float(np.abs(H).max()))


def _off(x0: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """x0 moved along dx by 1e-2 of max|x0|: a point with the isotropy of a
    branch leaving x0 along dx (x0 itself where dx is zero)."""
    scale = float(np.max(np.abs(dx)))
    return x0 if scale == 0.0 else x0 + 1e-2 * float(np.max(np.abs(x0))) / scale * dx


def branch_switch(system, event: BifurcationEvent, direction) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """((t, -t), P): the unit tangents (x, p) of the branch leaving a
    bifurcation event along a critical direction, and the projector P onto
    its fixed-point space Fix(S).

    `direction` is a vector of the event's kernel (multiplier slot first),
    such as a family's representative vector at a primary event or the
    event's own kernel vector at a secondary; v is its unit vector, and S
    the stabilizer of the event state moved along v, in whose Fix(S) the
    critical eigenvalue is simple.  Where a symmetry of the event state
    maps v to -v (a pitchfork), the branch leaves along t = (v, 0) exactly.
    Elsewhere the kernel of A = [J F_p] in Fix(S) x R is 2-D, spanned by
    (v, 0) and the parent branch's direction, the smallest right singular
    vector of A on the rest of Fix(S) x R, and the branch's tangent is a
    root of the algebraic bifurcation equation, v . D^2F[t, t] = 0 (Keller
    1977; Allgower & Georg 1990, ch. 8), with v the left kernel vector of
    the symmetric J; of its two roots t is the one with the larger component
    along (v, 0), the other being the parent branch, and it points up in the
    parameter.  The second derivatives are central differences of the
    analytic A along the kernel basis.  Both halves of the branch are traced
    from the event, along t first.
    """
    v = np.asarray(direction, dtype=float)
    v = v / np.sqrt(v @ v)
    x0 = np.array(event.state, dtype=float)
    n = system.dim
    P = system.fixed_space(_off(x0, v))[0]
    t = np.append(v, 0.0)
    sources = system.group().sources  # row k: the coordinate permutation of group element k
    images = x0[sources]
    fixes = (np.abs(images - x0) <= 1e-6 * np.maximum(np.abs(images), np.abs(x0))).all(axis=1)
    flips = (np.abs(v[sources] + v) <= 1e-6).all(axis=1)
    if not (fixes & flips).any():  # no symmetry of the event state maps v to -v: not a pitchfork
        z0 = np.append(x0, event.parameter)

        def A(z):
            return np.column_stack([system.evaluate(z[:n], z[n])[1], system.parameter_derivative(z[:n], z[n])])

        # an orthonormal basis of Fix(S) x R orthogonal to (v, 0), and on it the parent's direction
        rest = np.zeros((n + 1, n + 1))
        rest[:n, :n], rest[n, n] = P, 1.0
        mu, V = np.linalg.eigh(rest - np.outer(t, t))
        B = V[:, mu > 0.5]
        kernel = np.column_stack([t, B @ np.linalg.svd(A(z0) @ B)[2][-1]])
        eps = 1e-4 * max(1.0, float(np.max(np.abs(z0))))
        dA = [(A(z0 + eps * k) - A(z0 - eps * k)) / (2.0 * eps) for k in kernel.T]
        Q = np.array([[v @ dA[j] @ kernel[:, i] for j in range(2)] for i in range(2)])
        lam, E = np.linalg.eigh(0.5 * (Q + Q.T))
        # the null directions of the quadratic form: sqrt(lam2) e1 +- sqrt(-lam1) e2
        a = max((np.sqrt(max(lam[1], 0.0)) * E[:, 0] + sign * np.sqrt(max(-lam[0], 0.0)) * E[:, 1]
                 for sign in (1.0, -1.0)), key=lambda r: abs(r[0]))
        t = kernel @ a
        t = t / (np.sqrt(t @ t) * (1.0 if t[-1] > 0.0 else -1.0))
    return (t, -t), P


def cumulative_arclengths(z_rows: np.ndarray) -> np.ndarray:
    """0, then the running sum in order of the chords between the rows (N, n+1), each from its own `dz @ dz`."""
    return np.concatenate([[0.0], np.cumsum(np.sqrt(squared_norms(np.diff(z_rows, axis=0))))])


def concatenate_branches(first: Branch, second: Branch) -> Branch:
    """Join two half-traces from one start into one branch (first reversed), rebuilding arclength.

    A row within 1e-12 relative of the row before it (the halves' shared
    start point) is dropped, so arclength stays strictly increasing.
    """
    parts = [Branch(first.states[::-1], first.parameters[::-1], first.arclengths[::-1],
                    first.index[::-1], first.stability[::-1], first.shape[::-1]), second]
    z_rows = np.concatenate([np.column_stack([b.states, b.parameters]) for b in parts])
    step = np.sqrt(squared_norms(np.diff(z_rows, axis=0)))
    keep = np.flatnonzero(np.append(True, ~(step < 1e-12 * np.maximum(1.0, np.abs(z_rows[1:]).max(axis=1)))))
    z_rows = z_rows[keep]
    stability, shape = ([v for b in parts for v in getattr(b, name)] for name in ("stability", "shape"))
    return Branch(z_rows[:, :-1], z_rows[:, -1], cumulative_arclengths(z_rows),
                  np.concatenate([b.index for b in parts])[keep], [stability[k] for k in keep],
                  [shape[k] for k in keep], label=second.label or first.label)
