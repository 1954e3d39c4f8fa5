"""Command-line interface and the end-to-end diagram pipeline.

Subcommands:

    trivial     print the fully symmetric state and its spectrum at given
                parameter values
    stability   scan the stability margins for their zeros and cross-check
                closed forms
    trace       continue a single branch from a start point
    diagram     full pipeline: symmetric branch -> primary events -> branch
                switching -> secondary detection -> orbit expansion -> export
    verify      run the finite-difference / equivariance self-checks

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 verification failure.  Runs are reproducible: identical configs produce
byte-identical JSON/CSV; timestamps only appear in the run_meta.json sidecar.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .continuation import (
    BifurcationEvent,
    Branch,
    BranchPoint,
    ContinuationSettings,
    CorrectorFailure,
    DomainExit,
    TraceAbort,
    TransversalityError,
    dedup_events,
    branch_switch,
    concatenate_branches,
    is_isolated,
    newton_correct,
    trace_branch,
)
from .diagram import Abc3d, Diagram, ParamVsComponent, export, render_svg
from .linalg import SingularSystemError, det_sign, sym_eigen
from .potentials import (
    Buckingham,
    ConfigError,
    LennardJones,
    NormalizedBuckingham,
    PolynomialSpring,
    closed_form_thresholds,
    derivatives,
    potential_from_json,
    potential_to_json,
)
from .symmetry import (
    Perm,
    PermGroup,
    Reduction,
    fixed_projection_exact,
    orbit,
    tetra_apex_reduction,
    tetra_equal_pair_reduction,
    tetra_group,
    tetra_opposite_pair_reduction,
    triangle_group,
    triangle_isosceles_reduction,
)
from .tetrahedron import (
    RESTRICTION_COLUMNS,
    TetraProblem,
    cayley_menger,
    grad_g4,
    hess_g4,
    jacobian4,
    mu_tetra,
    residual4,
    stability_boundaries4,
    trivial4,
    trivial_spectrum4,
)
from .triangle import (
    TriangleProblem,
    grad_heron,
    heron,
    hess_heron,
    jacobian3,
    mu3,
    residual3,
    stability_boundaries3,
    trivial3,
    trivial_spectrum3,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

TRIANGLE_KERNEL = ((0.0, -1.0, 1.0, 0.0), (0.0, -1.0, 0.0, 1.0))
TETRA_KERNEL_3 = (
    (0.0, -1.0, 0.0, 0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, -1.0, 0.0, 0.0, 1.0, 0.0),
    (0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0),
)
TETRA_KERNEL_7 = (
    (0.0, -1.0, 1.0, 0.0, -1.0, 1.0, 0.0),
    (0.0, -1.0, 0.0, 1.0, -1.0, 0.0, 1.0),
)


def make_system(problem: str, spec):
    if problem == "triangle":
        return TriangleProblem(spec)
    if problem == "tetrahedron":
        return TetraProblem(spec)
    raise ConfigError(f"unknown problem kind {problem!r}", key="problem")


def _scan_boundaries(problem: str, spec, window, grid_n: int):
    if problem == "triangle":
        return stability_boundaries3(spec, window, grid_n)
    return stability_boundaries4(spec, window, grid_n)


def _primary_kernel(problem: str, margin_coefficient: int):
    if problem == "triangle":
        return TRIANGLE_KERNEL
    return TETRA_KERNEL_3 if margin_coefficient == 3 else TETRA_KERNEL_7


def _reductions_for(problem: str, margin_coefficient: int) -> list[Reduction]:
    if problem == "triangle":
        return [triangle_isosceles_reduction()]
    if margin_coefficient == 3:
        return [tetra_opposite_pair_reduction(), tetra_apex_reduction()]
    return [tetra_equal_pair_reduction()]


def _symmetry_group(problem: str):
    return triangle_group() if problem == "triangle" else tetra_group()


def _trivial_branch(system, window, samples: int, extra_params) -> Branch:
    params = sorted(set(np.linspace(window[0], window[1], samples).tolist()) | set(extra_params))
    points: list[BranchPoint] = []
    s = 0.0
    prev = None
    for p in params:
        x = system.trivial_state(p)
        stability, shape = system.classify(x, p)
        pt = BranchPoint(
            state=tuple(float(v) for v in x),
            parameter=float(p),
            arclength=0.0,
            stability=stability,
            shape=shape,
            det_sign=det_sign(system.jacobian(x, p)),
        )
        if prev is not None:
            dz = pt.z() - prev.z()
            s += float(np.sqrt(dz @ dz))
        points.append(replace(pt, arclength=s))
        prev = pt
    return Branch(points=points, id=0, label="trivial")


def _junction_point(system, ev: BifurcationEvent) -> BranchPoint:
    x = np.asarray(ev.state, dtype=float)
    stability, shape = system.classify(x, ev.parameter)
    return BranchPoint(
        state=tuple(ev.state),
        parameter=ev.parameter,
        arclength=0.0,
        stability=stability,
        shape=shape,
        det_sign=det_sign(system.jacobian(x, ev.parameter)),
    )


def _relabel_shapes(system, branch: Branch) -> Branch:
    branch.points = [replace(pt, shape=system.shape_of(np.asarray(pt.state))) for pt in branch.points]
    return branch


@dataclass
class _Entry:
    branch: Branch
    events: list[BifurcationEvent]
    parent_event_id: int
    label: str


def _identity_reduction(ev: BifurcationEvent, n: int) -> Reduction:
    return Reduction(PermGroup((Perm.identity(n),)), tuple(ev.kernel[0]))


def _thread_count(n_jobs: int) -> int:
    raw = os.environ.get("CLUSTER_BIFURC_THREADS")
    if raw:
        try:
            return max(1, min(int(raw), n_jobs))
        except ValueError as exc:
            raise ConfigError(f"CLUSTER_BIFURC_THREADS must be an integer, got {raw!r}",
                              key="CLUSTER_BIFURC_THREADS") from exc
    return max(1, n_jobs)


def _run_traces(system, jobs, settings, window):
    """Trace every (seed, center) job; deterministic result order.

    A seed whose trace aborts immediately (non-isolated solutions make every
    bordered corrector singular, e.g. the soft-spring solution sphere) is
    kept as a single verified point rather than dropped.
    """
    def one(job):
        seed, center_z = job
        hint = seed.z() - center_z
        try:
            return trace_branch(system, seed, hint, settings, window, bifurcation_kind="secondary")
        except TraceAbort:
            return Branch(points=[replace(seed, arclength=0.0)]), []

    if len(jobs) <= 1:
        return [one(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=_thread_count(len(jobs))) as pool:
        return list(pool.map(one, jobs))


def _switch_and_trace(system, ev: BifurcationEvent, reduction: Reduction, settings,
                      window, trivial_curve, label: str) -> _Entry | None:
    try:
        seeds, _ = branch_switch(system, ev, reduction, settings, trivial_curve=trivial_curve)
    except (TransversalityError, CorrectorFailure, DomainExit):
        return None
    if not seeds:
        return None
    if not all(is_isolated(system, np.asarray(s.state), s.parameter) for s in seeds):
        # degenerate family: the switched solutions are not isolated, so a
        # branch trace is ill posed; report the verified seed points alone
        merged = concatenate_branches(Branch(points=[seeds[0]]), _junction_point(system, ev),
                                      Branch(points=list(seeds[1:])))
        merged.label = label or system.shape_of(np.asarray(seeds[0].state))
        return _Entry(branch=merged, events=[], parent_event_id=ev.id, label=merged.label)
    center_z = np.append(np.asarray(ev.state, dtype=float), ev.parameter)
    results = _run_traces(system, [(seed, center_z) for seed in seeds], settings, window)
    halves = [r[0] for r in results]
    events = dedup_events([e for r in results for e in r[1]])
    if len(halves) == 2:
        merged = concatenate_branches(halves[0], _junction_point(system, ev), halves[1])
    else:
        merged = halves[0]
    merged.label = label or system.shape_of(np.asarray(seeds[0].state))
    # events within the small seeding gap around the source bifurcation are echoes of it
    events = [e for e in events
              if abs(e.parameter - ev.parameter) > 2e-3 * max(1.0, abs(ev.parameter))
              or e.kind == "turning"]
    return _Entry(branch=merged, events=events, parent_event_id=ev.id, label=merged.label)


def build_diagram(problem: str, spec, window: tuple[float, float],
                  settings: ContinuationSettings | None = None, *, scan_n: int = 2000,
                  trivial_samples: int = 400, deep: bool = False) -> Diagram:
    """Run the full pipeline and assemble a Diagram.

    Primary bifurcation parameters come from the closed-form margin scan on
    the symmetric branch; each transversal root is switched through the
    isotropy reductions appropriate to its kernel, the switched branches are
    traced through the window (detecting secondary and turning events), and
    secondary bifurcations are switched once more (depth 2 unless `deep`).
    Finally every nontrivial branch is expanded to its full symmetry orbit.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (0 < lo < hi):
        raise ConfigError(f"window must satisfy 0 < lo < hi, got [{lo}, {hi}]", key="window")
    window = (lo, hi)
    settings = settings or ContinuationSettings()
    system = make_system(problem, spec)
    group = _symmetry_group(problem)

    roots = _scan_boundaries(problem, spec, window, scan_n)
    event_counter = 0
    primary_events: list[BifurcationEvent] = []
    switch_jobs: list[tuple[BifurcationEvent, list[Reduction]]] = []
    for root in roots:
        kernel = _primary_kernel(problem, root.margin_coefficient)
        ev = BifurcationEvent(
            kind="primary",
            parameter=root.parameter,
            kernel_dim=len(kernel),
            kernel=kernel,
            state=tuple(float(v) for v in system.trivial_state(root.parameter)),
            source_branch=0,
            refined=True,
            id=event_counter,
        )
        event_counter += 1
        primary_events.append(ev)
        if root.transversal:
            switch_jobs.append((ev, _reductions_for(problem, root.margin_coefficient)))

    trivial = _trivial_branch(system, window, trivial_samples, [ev.parameter for ev in primary_events])

    entries: list[_Entry] = []
    frontier: list[_Entry] = []
    for ev, reductions in switch_jobs:
        for red in reductions:
            entry = _switch_and_trace(system, ev, red, settings, window,
                                      system.trivial_state, label="")
            if entry is not None:
                frontier.append(entry)
    for entry in frontier:
        for i, e in enumerate(entry.events):
            entry.events[i] = replace(e, id=event_counter)
            event_counter += 1
    entries.extend(frontier)

    depth = 1
    max_depth = 4 if deep else 2
    while frontier and depth < max_depth:
        next_frontier: list[_Entry] = []
        for entry in frontier:
            for ev in entry.events:
                if ev.kind != "secondary" or ev.kernel_dim < 1:
                    continue
                child = _switch_and_trace(system, ev, _identity_reduction(ev, system.dim),
                                          settings, window, None, label="")
                if child is not None:
                    next_frontier.append(child)
        for entry in next_frontier:
            for i, e in enumerate(entry.events):
                entry.events[i] = replace(e, id=event_counter)
                event_counter += 1
        entries.extend(next_frontier)
        frontier = next_frontier
        depth += 1

    branches: list[Branch] = [trivial]
    events: list[BifurcationEvent] = list(primary_events)
    next_branch_id = 1
    for entry in entries:
        images = orbit(group, entry.branch)
        rep_id = next_branch_id
        for image in images:
            image.id = next_branch_id
            image.parent_event = entry.parent_event_id
            image.label = entry.label
            _relabel_shapes(system, image)
            branches.append(image)
            next_branch_id += 1
        events.extend(replace(e, source_branch=rep_id) for e in entry.events)

    diagram = Diagram(
        problem=problem,
        potential=potential_to_json(spec),
        window=window,
        settings=settings,
        branches=branches,
        events=events,
        version=__version__,
    )
    diagram.validate()
    return diagram


# ---------------------------------------------------------------------------
# self checks


def _check(name, passed, detail=""):
    return (name, bool(passed), detail)


def _random_spec(rng) -> object:
    kind = rng.integers(0, 4)
    if kind == 0:
        d2 = rng.uniform(3.0, 6.5)
        return LennardJones(rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0),
                            d2 + rng.uniform(2.0, 7.0), d2)
    if kind == 1:
        return Buckingham(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                          rng.uniform(0.2, 1.5), rng.uniform(2.5, 6.0))
    if kind == 2:
        eta = rng.uniform(2.5, 6.0)
        return NormalizedBuckingham(rng.uniform(0.5, 2.0), rng.uniform(0.7, 1.5),
                                    eta + rng.uniform(2.0, 9.0), eta)
    return PolynomialSpring(rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.5))


def _fd_relative_error(fn, d_fn, x, h) -> float:
    num = (fn(x + h) - fn(x - h)) / (2.0 * h)
    ana = d_fn(x)
    return abs(num - ana) / max(1.0, abs(ana))


def run_verification() -> list[tuple[str, bool, str]]:
    """The self-check battery behind `cluster-bifurc verify` (all deterministic)."""
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(20240811)

    # potential derivatives against central differences
    worst = 0.0
    specs = [LennardJones(1, 2, 12, 6), Buckingham(1, 1, 1, 4),
             NormalizedBuckingham(1.0, 1.0, 14.3863, 5.6518), PolynomialSpring(1, -0.1),
             PolynomialSpring(2, 0.3)]
    for spec in specs:
        for _ in range(25):
            r = float(rng.uniform(0.5, 10.0))
            h = 1e-5 * r
            e1 = _fd_relative_error(lambda t: derivatives(spec, t)[0],
                                    lambda t: derivatives(spec, t)[1], r, h)
            e2 = _fd_relative_error(lambda t: derivatives(spec, t)[1],
                                    lambda t: derivatives(spec, t)[2], r, h)
            worst = max(worst, e1, e2)
    checks.append(_check("potential-derivatives-fd", worst < 1e-6, f"max rel err {worst:.2e}"))

    # triangle constraint derivatives
    worst = 0.0
    count = 0
    while count < 100:
        a, b, c = rng.uniform(0.5, 2.0, 3)
        if heron(a, b, c) <= 1e-3:
            continue
        count += 1
        g = grad_heron(a, b, c)
        H = hess_heron(a, b, c)
        for i, e in enumerate((a, b, c)):
            h = 1e-6 * e
            args_p = [a, b, c]
            args_m = [a, b, c]
            args_p[i] += h
            args_m[i] -= h
            fd_g = (heron(*args_p) - heron(*args_m)) / (2 * h)
            worst = max(worst, abs(fd_g - g[i]) / max(1.0, abs(g[i])))
            fd_h = (grad_heron(*args_p) - grad_heron(*args_m)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(fd_h - H[:, i]) / np.maximum(1.0, np.abs(H[:, i])))))
    checks.append(_check("triangle-constraint-fd", worst < 1e-6, f"max rel err {worst:.2e}"))

    # tetrahedron constraint derivatives
    worst = 0.0
    for _ in range(100):
        e = 1.0 + 0.25 * rng.uniform(-1.0, 1.0, 6)
        g = grad_g4(e)
        H = hess_g4(e)
        for i in range(6):
            h = 1e-6 * e[i]
            ep, em = e.copy(), e.copy()
            ep[i] += h
            em[i] -= h
            fd_g = (cayley_menger(ep) - cayley_menger(em)) / (2 * h)
            worst = max(worst, abs(fd_g - g[i]) / max(1.0, abs(g[i])))
            fd_h = (grad_g4(ep) - grad_g4(em)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(fd_h - H[:, i]) / np.maximum(1.0, np.abs(H[:, i])))))
    checks.append(_check("tetra-constraint-fd", worst < 1e-6, f"max rel err {worst:.2e}"))

    # equivariance of both residuals
    worst = 0.0
    spec = LennardJones(1, 2, 12, 6)
    for _ in range(100):
        x = np.concatenate([[rng.uniform(-2, 2)], rng.uniform(0.6, 1.6, 3)])
        A = float(rng.uniform(0.2, 2.0))
        Fx = residual3(spec, x, A)
        for P in triangle_group():
            diff = float(np.max(np.abs(residual3(spec, P.apply(x), A) - P.apply(Fx))))
            worst = max(worst, diff)
    checks.append(_check("triangle-equivariance", worst < 1e-12, f"max |F(Px)-PF(x)| {worst:.2e}"))

    worst = 0.0
    for _ in range(100):
        x = np.concatenate([[rng.uniform(-2, 2)], 1.0 + 0.15 * rng.uniform(-1, 1, 6)])
        V = float(rng.uniform(0.1, 0.3))
        Fx = residual4(spec, x, V)
        for P in tetra_group():
            diff = float(np.max(np.abs(residual4(spec, P.apply(x), V) - P.apply(Fx))))
            worst = max(worst, diff)
    checks.append(_check("tetra-equivariance", worst < 1e-12, f"max |F(Qx)-QF(x)| {worst:.2e}"))

    # Cayley-Menger invariance under all 24 permutations
    worst = 0.0
    for _ in range(100):
        e = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, 6)
        g0 = cayley_menger(e)
        for P in tetra_group():
            ge = cayley_menger(P.apply(np.concatenate([[0.0], e]))[1:])
            worst = max(worst, abs(ge - g0) / max(1.0, abs(g0)))
    checks.append(_check("cm-invariance", worst < 1e-12, f"max rel diff {worst:.2e}"))

    # trivial-state spectra against closed forms
    worst = 0.0
    for _ in range(20):
        spec_i = _random_spec(rng)
        A = float(rng.uniform(0.3, 3.0))
        sp = trivial_spectrum3(spec_i, A)
        w, _ = sym_eigen(jacobian3(spec_i, trivial3(spec_i, A).as_array()))
        expect = np.sort([sp.mu, sp.mu, sp.simple_pair[0], sp.simple_pair[1]])
        scale = max(1.0, float(np.max(np.abs(expect))))
        worst = max(worst, float(np.max(np.abs(np.sort(w) - expect))) / scale)
    checks.append(_check("triangle-trivial-spectrum", worst < 1e-9, f"max rel dev {worst:.2e}"))

    worst = 0.0
    prod_worst = 0.0
    M = RESTRICTION_COLUMNS
    for _ in range(20):
        spec_i = _random_spec(rng)
        V = float(rng.uniform(0.3, 3.0))
        sp = trivial_spectrum4(spec_i, V)
        st = trivial4(spec_i, V)
        J = jacobian4(spec_i, st.as_array())
        U = M.T @ J[1:, 1:] @ M
        w, _ = sym_eigen(0.5 * (U + U.T))
        expect = np.asarray(sp.u_eigs)
        scale = max(1.0, float(np.max(np.abs(expect))))
        worst = max(worst, float(np.max(np.abs(np.sort(w) - expect))) / scale)
        disc = math.sqrt(16.0 * sp.alpha ** 2 + 9.0 * (sp.alpha - 2.0 * sp.beta) ** 2)
        prod = 0.25 * ((7.0 * sp.alpha - 6.0 * sp.beta) ** 2 - disc ** 2)
        target = 6.0 * sp.alpha * (sp.alpha - 2.0 * sp.beta)
        prod_worst = max(prod_worst, abs(prod - target) / max(1.0, abs(target)))
    checks.append(_check("tetra-trivial-spectrum", worst < 1e-9, f"max rel dev {worst:.2e}"))
    checks.append(_check("tetra-spectrum-product", prod_worst < 1e-9, f"max rel dev {prod_worst:.2e}"))

    # eigenvector identities on the trivial branches
    worst = 0.0
    for _ in range(10):
        spec_i = _random_spec(rng)
        A = float(rng.uniform(0.3, 3.0))
        J = jacobian3(spec_i, trivial3(spec_i, A).as_array())
        mu = mu3(spec_i, A)
        scale = max(1.0, float(np.max(np.abs(J))))
        for v in ((0.0, -1.0, 1.0, 0.0), (0.0, -1.0, 0.0, 1.0)):
            v = np.asarray(v)
            worst = max(worst, float(np.max(np.abs(J @ v - mu * v))) / scale)
        V = float(rng.uniform(0.3, 3.0))
        J4 = jacobian4(spec_i, trivial4(spec_i, V).as_array())
        m1, m2 = mu_tetra(spec_i, V)
        scale = max(1.0, float(np.max(np.abs(J4))))
        for v in TETRA_KERNEL_3:
            v = np.asarray(v)
            worst = max(worst, float(np.max(np.abs(J4 @ v - m1 * v))) / scale)
        for v in TETRA_KERNEL_7:
            v = np.asarray(v)
            worst = max(worst, float(np.max(np.abs(J4 @ v - m2 * v))) / scale)
    checks.append(_check("trivial-eigenvectors", worst < 1e-12, f"max rel dev {worst:.2e}"))

    # projections match their reference matrices entry for entry
    ok = True
    F = Fraction
    tri = fixed_projection_exact(triangle_isosceles_reduction().subgroup)
    ok &= tri == (
        (F(1), F(0), F(0), F(0)),
        (F(0), F(1), F(0), F(0)),
        (F(0), F(0), F(1, 2), F(1, 2)),
        (F(0), F(0), F(1, 2), F(1, 2)),
    )
    pair = fixed_projection_exact(tetra_opposite_pair_reduction().subgroup)
    q = F(1, 4)
    ok &= pair == (
        (F(1), F(0), F(0), F(0), F(0), F(0), F(0)),
        (F(0), q, q, F(0), q, q, F(0)),
        (F(0), q, q, F(0), q, q, F(0)),
        (F(0), F(0), F(0), F(1), F(0), F(0), F(0)),
        (F(0), q, q, F(0), q, q, F(0)),
        (F(0), q, q, F(0), q, q, F(0)),
        (F(0), F(0), F(0), F(0), F(0), F(0), F(1)),
    )
    apex = fixed_projection_exact(tetra_apex_reduction().subgroup)
    t = F(1, 3)
    ok &= apex == (
        (F(1), F(0), F(0), F(0), F(0), F(0), F(0)),
        (F(0), t, t, t, F(0), F(0), F(0)),
        (F(0), t, t, t, F(0), F(0), F(0)),
        (F(0), t, t, t, F(0), F(0), F(0)),
        (F(0), F(0), F(0), F(0), t, t, t),
        (F(0), F(0), F(0), F(0), t, t, t),
        (F(0), F(0), F(0), F(0), t, t, t),
    )
    eqp = fixed_projection_exact(tetra_equal_pair_reduction().subgroup)
    hh = F(1, 2)
    ok &= eqp == (
        (F(1), F(0), F(0), F(0), F(0), F(0), F(0)),
        (F(0), hh, F(0), F(0), hh, F(0), F(0)),
        (F(0), F(0), q, q, F(0), q, q),
        (F(0), F(0), q, q, F(0), q, q),
        (F(0), hh, F(0), F(0), hh, F(0), F(0)),
        (F(0), F(0), q, q, F(0), q, q),
        (F(0), F(0), q, q, F(0), q, q),
    )
    checks.append(_check("fixed-projections", ok, "exact rational comparison"))

    g_reg = cayley_menger(np.ones(6))
    checks.append(_check("cm-regular-value", abs(g_reg - 4.0) < 1e-12, f"g(1,..,1) = {g_reg!r}"))
    return checks


# ---------------------------------------------------------------------------
# configuration plumbing


def _set_path(obj: dict, dotted: str, value):
    keys = dotted.split(".")
    cur = obj
    for k in keys[:-1]:
        if isinstance(cur, list):
            cur = cur[int(k)]
        else:
            cur = cur.setdefault(k, {})
    last = keys[-1]
    if isinstance(cur, list):
        cur[int(last)] = value
    else:
        cur[last] = value


def load_config(path: str | None, sets: list[str]) -> dict:
    cfg: dict = {}
    if path is not None:
        try:
            cfg = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}", key="config") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}", key="config") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object", key="config")
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}", key="--set")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        try:
            _set_path(cfg, key, value)
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            raise ConfigError(f"cannot apply --set {item!r}: {exc}", key=key) from exc
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required field {key!r}", key=key)
    return cfg[key]


def _config_int(cfg: dict, key: str, default: int) -> int:
    val = cfg.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)) or int(val) != val:
        raise ConfigError(f"{key} must be an integer, got {val!r}", key=key)
    return int(val)


def _config_problem_spec(cfg: dict):
    problem = _require(cfg, "problem")
    if problem not in ("triangle", "tetrahedron"):
        raise ConfigError(f"problem must be 'triangle' or 'tetrahedron', got {problem!r}", key="problem")
    spec = potential_from_json(_require(cfg, "potential"))
    return problem, spec


def _config_window(cfg: dict) -> tuple[float, float]:
    window = _require(cfg, "window")
    if (not isinstance(window, (list, tuple)) or len(window) != 2
            or not all(isinstance(v, (int, float)) for v in window)):
        raise ConfigError("window must be [lo, hi]", key="window")
    lo, hi = float(window[0]), float(window[1])
    if not (0 < lo < hi):
        raise ConfigError(f"window must satisfy 0 < lo < hi, got [{lo}, {hi}]", key="window")
    return lo, hi


def _config_settings(cfg: dict) -> ContinuationSettings:
    overrides = cfg.get("continuation", {})
    if not isinstance(overrides, dict):
        raise ConfigError("continuation settings must be an object", key="continuation")
    base = ContinuationSettings()
    known = set(base.__dataclass_fields__)
    for key in overrides:
        if key not in known:
            raise ConfigError(f"unknown continuation setting {key!r}", key=key)
    try:
        return ContinuationSettings(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad continuation settings: {exc}", key="continuation") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_trivial(cfg: dict, out_dir: Path | None) -> int:
    problem, spec = _config_problem_spec(cfg)
    values = _require(cfg, "values")
    if not isinstance(values, list) or not values:
        raise ConfigError("values must be a non-empty list of parameter values", key="values")
    for p in values:
        p = float(p)
        if problem == "triangle":
            st = trivial3(spec, p)
            sp = trivial_spectrum3(spec, p)
            print(f"A={p:.12g}  lambda={st.lam:.12g}  edge={st.a:.12g}  mu={sp.mu:.12g}  "
                  f"pair=({sp.simple_pair[0]:.12g}, {sp.simple_pair[1]:.12g})")
        else:
            st = trivial4(spec, p)
            sp = trivial_spectrum4(spec, p)
            print(f"V={p:.12g}  lambda={st.lam:.12g}  edge={st.edges[0]:.12g}  "
                  f"mu1={sp.mu1:.12g}  mu2={sp.mu2:.12g}  restricted={tuple(round(v, 9) for v in sp.u_eigs)}")
    return EXIT_OK


def cmd_stability(cfg: dict, out_dir: Path | None) -> int:
    problem, spec = _config_problem_spec(cfg)
    window = _config_window(cfg)
    grid_n = _config_int(cfg, "grid_n", 2000)
    roots = _scan_boundaries(problem, spec, window, grid_n)
    closed = closed_form_thresholds(spec, problem)
    if not roots:
        print("no stability boundaries in the window")
    for r in roots:
        line = (f"margin[{r.margin_coefficient}] root at {r.parameter:.10g} "
                f"(slope {r.slope:.4g}, kernel dim {r.kernel_dim}"
                f"{'' if r.transversal else ', NON-TRANSVERSAL'})")
        match = [t for t in closed if t.margin_coefficient == r.margin_coefficient
                 and abs(t.value - r.parameter) < 1e-6 * max(1.0, abs(t.value))]
        if match:
            line += f"  closed-form {match[0].value:.10g} agrees"
        print(line)
    for t in closed:
        if window[0] <= t.value <= window[1] and not any(
                abs(t.value - r.parameter) < 1e-6 * max(1.0, abs(t.value)) for r in roots):
            print(f"closed-form margin[{t.margin_coefficient}] value {t.value:.10g} "
                  "was NOT found by the scan")
            return EXIT_NUMERICAL
    return EXIT_OK


def cmd_trace(cfg: dict, out_dir: Path | None) -> int:
    problem, spec = _config_problem_spec(cfg)
    system = make_system(problem, spec)
    settings = _config_settings(cfg)
    window = _config_window(cfg)
    tr = cfg.get("trace", {})
    if not isinstance(tr, dict):
        raise ConfigError("trace options must be an object", key="trace")
    p0 = float(tr.get("parameter", 0.5 * (window[0] + window[1])))
    direction = float(tr.get("direction", 1.0))
    if tr.get("start", "trivial") == "trivial":
        x0 = system.trivial_state(p0)
    else:
        x0 = np.asarray(tr["start"], dtype=float)
        if x0.shape != (system.dim,):
            raise ConfigError(f"trace.start must have {system.dim} components", key="trace.start")
    try:
        start, _ = newton_correct(system, x0, p0, settings)
        hint = np.zeros(system.dim + 1)
        hint[-1] = math.copysign(1.0, direction)
        branch, events = trace_branch(system, start, hint, settings, window,
                                      bifurcation_kind="primary" if tr.get("start", "trivial") == "trivial"
                                      else "secondary")
    except (TraceAbort, CorrectorFailure, DomainExit, SingularSystemError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    branch.id = 0
    branch.label = "traced"
    params = branch.parameters()
    print(f"traced {len(branch.points)} points, {system.param_name} in "
          f"[{params.min():.6g}, {params.max():.6g}]")
    for ev in events:
        print(f"event {ev.kind} at {system.param_name}={ev.parameter:.8g} (kernel dim {ev.kernel_dim})")
    if out_dir is not None:
        diagram = Diagram(problem=problem, potential=potential_to_json(spec), window=window,
                          settings=settings, branches=[branch],
                          events=[replace(e, id=i, source_branch=0) for i, e in enumerate(events)])
        _write_outputs(diagram, out_dir, cfg)
    return EXIT_OK


def _svg_projection(cfg: dict, problem: str):
    svg = cfg.get("svg", {})
    if not isinstance(svg, dict):
        raise ConfigError("svg options must be an object", key="svg")
    kind = svg.get("projection", "param_vs_component")
    if kind == "param_vs_component":
        return ParamVsComponent(svg.get("component", "a"))
    if kind == "abc_3d":
        if "azimuth_deg" in svg or "tilt_deg" in svg:
            return Abc3d(float(svg.get("azimuth_deg", -60.0)), float(svg.get("tilt_deg", 30.0)))
        return Abc3d.trivial_axis_view()
    raise ConfigError(f"unknown svg projection {kind!r}", key="svg.projection")


def _write_outputs(diagram: Diagram, out_dir: Path, cfg: dict) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        formats = cfg.get("outputs", ["json", "csv", "svg"])
        if "json" in formats:
            (out_dir / "diagram.json").write_bytes(export(diagram, "json"))
        if "csv" in formats:
            (out_dir / "diagram.csv").write_bytes(export(diagram, "csv"))
        if "svg" in formats:
            svg = render_svg(diagram, _svg_projection(cfg, diagram.problem))
            (out_dir / "diagram.svg").write_text(svg)
        meta = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "tool_version": __version__}
        (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write outputs under {out_dir}: {exc}", key="--out") from exc


def cmd_diagram(cfg: dict, out_dir: Path | None) -> int:
    problem, spec = _config_problem_spec(cfg)
    window = _config_window(cfg)
    settings = _config_settings(cfg)
    try:
        diagram = build_diagram(
            problem, spec, window, settings,
            scan_n=_config_int(cfg, "grid_n", 2000),
            trivial_samples=_config_int(cfg, "trivial_samples", 400),
            deep=bool(cfg.get("deep", False)),
        )
    except (TraceAbort, CorrectorFailure, DomainExit, SingularSystemError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"{len(diagram.branches)} branches, {len(diagram.events)} events")
    for ev in diagram.events:
        print(f"event[{ev.id}] {ev.kind} at {ev.parameter:.8g} "
              f"(kernel dim {ev.kernel_dim}, branch {ev.source_branch})")
    if out_dir is not None:
        _write_outputs(diagram, out_dir, cfg)
    return EXIT_OK


def cmd_verify(cfg: dict, out_dir: Path | None) -> int:
    checks = run_verification()
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name:28s} {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed", file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


_COMMANDS = {
    "trivial": cmd_trivial,
    "stability": cmd_stability,
    "trace": cmd_trace,
    "diagram": cmd_diagram,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cluster-bifurc",
        description="Constrained minimizers and bifurcation diagrams of particle clusters")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config entry (dotted path)")
    parser.add_argument("--out", help="output directory for exported files")
    parser.add_argument("--deep", action="store_true",
                        help="switch bifurcations found beyond the secondary level too")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.sets)
        if args.deep:
            cfg["deep"] = True
        out_dir = Path(args.out) if args.out else None
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        key = f" (field: {exc.key})" if exc.key else ""
        print(f"config error: {exc}{key}", file=sys.stderr)
        return EXIT_CONFIG
    except (TraceAbort, CorrectorFailure, DomainExit, SingularSystemError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
