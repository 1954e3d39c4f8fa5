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
import itertools
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

from . import __version__
from .cluster import ClusterProblem, Geometry, jacobian, margin, residual, stability_boundaries, trivial_point
from .continuation import (
    BifurcationEvent,
    Branch,
    BranchPoint,
    ContinuationSettings,
    CorrectorFailure,
    DomainExit,
    TraceAbort,
    dedup_events,
    branch_switch,
    classified_point,
    concatenate_branches,
    is_isolated,
    newton_correct,
    trace_branch,
)
from .diagram import Abc3d, Diagram, ParamVsComponent, check_projection, export, render_svg
from .linalg import squared_norms, sym_eigen
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
    crossing_functionals,
    fixed_projection,
    fixed_projection_exact,
    orbit,
)
from .tetrahedron import RESTRICTION_COLUMNS, TETRAHEDRON, cayley_menger, jacobian4, trivial_spectrum4
from .triangle import TRIANGLE, jacobian3, trivial_spectrum3

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

GEOMETRIES = {geometry.name: geometry for geometry in (TRIANGLE, TETRAHEDRON)}
# every top-level config key some subcommand reads; one config serves them all
CONFIG_KEYS = frozenset({"problem", "potential", "window", "values", "continuation", "trace", "outputs", "svg"})
# the keys each object-valued config key may hold
OBJECT_KEYS = {
    "continuation": frozenset(f.name for f in fields(ContinuationSettings)),
    "trace": frozenset({"parameter", "direction", "start"}),
    "svg": frozenset({"projection", "component", "azimuth_deg", "tilt_deg"}),
}


def _geometry(problem: str) -> Geometry:
    if not isinstance(problem, str) or problem not in GEOMETRIES:
        raise ConfigError(f"problem must be 'triangle' or 'tetrahedron', got {problem!r}", key="problem")
    return GEOMETRIES[problem]


def make_system(problem: str, spec) -> ClusterProblem:
    return ClusterProblem(_geometry(problem), spec)


def _trivial_branch(system, window, extra_params) -> Branch:
    """The symmetric branch at 400 even steps over the window and at `extra_params`,
    classified in one stacked pass."""
    params = sorted(set(np.linspace(window[0], window[1], 400).tolist()) | set(extra_params))
    states = np.array([system.trivial_state(p) for p in params]).reshape(-1, system.dim)
    jacobians = [system.evaluate(x, p)[1] for x, p in zip(states, params)]
    dz = np.diff(np.column_stack([states, params]), axis=0)
    steps = np.sqrt(squared_norms(dz))
    arclengths = itertools.accumulate(steps.tolist(), initial=0.0)
    points = [BranchPoint(tuple(x), p, s, c.stability, c.shape, c.index) for x, p, s, c in
              zip(states.tolist(), params, arclengths, system.classify_stack(states, jacobians))]
    return Branch(points=points, id=0, label="trivial")


def _run_traces(system, jobs, settings, window, targets):
    """Trace every (seed, center) job, each ending at any of `targets`; deterministic result order.

    A seed whose trace aborts immediately (non-isolated solutions make every
    bordered corrector singular, e.g. the soft-spring solution sphere) is
    kept as a single converged point rather than dropped.
    """
    def one(job):
        seed, center_z = job
        hint = seed.z() - center_z
        try:
            return trace_branch(system, seed, hint, settings, window, bifurcation_kind="secondary",
                                targets=targets)
        except TraceAbort:
            return Branch(points=[replace(seed, arclength=0.0)]), []

    if len(jobs) <= 1:
        return [one(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        return list(pool.map(one, jobs))


def _switch_and_trace(system, ev: BifurcationEvent, reduction: Reduction, settings, window,
                      targets) -> tuple[Branch, list[BifurcationEvent], set[int]] | None:
    """(branch, events its traces localized, ids of the targets they ended at) of one switch at `ev`,
    the branch's `parent_event` and `label` set, from the switch's seeds inside the window; None
    where the switch fails or gives no such seed."""
    try:
        seeds, _ = branch_switch(system, ev, reduction)
    except (CorrectorFailure, DomainExit):
        return None
    seeds = [s for s in seeds if window[0] <= s.parameter <= window[1]]
    if not seeds:
        return None
    x_ev = np.asarray(ev.state, dtype=float)
    if all(is_isolated(system, np.asarray(s.state), s.parameter) for s in seeds):
        center_z = np.append(x_ev, ev.parameter)
        results = _run_traces(system, [(seed, center_z) for seed in seeds], settings, window, targets)
        halves = [r[0] for r in results]
        events = dedup_events([e for r in results for e in r[1]])
    else:
        # degenerate family: the switched solutions are not isolated, so a
        # branch trace is ill posed; report the converged seed points alone
        halves, events = [Branch(points=[seeds[0]]), Branch(points=list(seeds[1:]))], []
    if len(halves) == 2:
        branch = concatenate_branches(halves[0], classified_point(system, x_ev, ev.parameter), halves[1])
    else:
        branch = halves[0]
    branch.parent_event, branch.label = ev.id, seeds[0].shape
    return branch, events, {h.reached_event for h in halves} - {None}


def build_diagram(problem: str, spec, window: tuple[float, float],
                  settings: ContinuationSettings | None = None) -> Diagram:
    """Run the full pipeline and assemble a Diagram.

    Primary bifurcation parameters come from the closed-form margin scan on
    the symmetric branch; each transversal root is switched through the
    reductions of the families its margins-table row names, the switched
    branches are traced through the window (detecting secondary and turning
    events), and the refined secondary bifurcations those traces localize
    are switched once more, with no further level.  A switch keeps only the
    seeds inside the window.  Every trace ends where it
    reaches a primary event or an event of a branch traced before it, or
    where it crosses into a larger fixed-point space at a bifurcation it
    localizes itself; a simple secondary event that some trace reached is
    not switched again: the branches it would seed are images of that
    trace.  Each switched branch is expanded to its full symmetry orbit:
    each image a column permutation of the branch's stacked states, the
    shapes of all images' points read from the geometry's `FamilyTable` in
    one stacked call.  An event's id is its position in the diagram's
    events, a branch's its position in the branches.
    """
    window = _window(window)
    settings = settings or ContinuationSettings()
    system = make_system(problem, spec)
    geometry = system.geometry

    known: list[BifurcationEvent] = []  # every event so far, the ones a trace may end at
    jobs = []  # (event, reduction) to switch at
    for root in stability_boundaries(geometry, spec, window):
        row = geometry.margins[root.margin_coefficient]
        ev = BifurcationEvent(
            kind="primary",
            parameter=root.parameter,
            kernel_dim=len(row.kernel),
            kernel=row.kernel,
            state=tuple(float(v) for v in system.trivial_state(root.parameter)),
            source_branch=0,
            refined=True,
            id=len(known),
        )
        known.append(ev)
        if root.transversal:
            jobs += [(ev, geometry.families.reduction(name)) for name in row.reductions]

    branches = [_trivial_branch(system, window, [ev.parameter for ev in known])]
    reached: set[int] = set()
    identity = PermGroup((Perm.identity(system.dim),))
    for _ in range(2):  # the primaries, then the secondaries their traces localized
        first_new = len(known)
        for ev, red in jobs:
            if ev.kernel_dim == 1 and ev.id in reached:
                continue  # a trace already ran into this point; its branches are images of that one
            switched = _switch_and_trace(system, ev, red, settings, window, tuple(known))
            if switched is None:
                continue
            branch, events, ended_at = switched
            ends = {branch.points[0].state, branch.points[-1].state}
            for e in events:
                if e.state in ends:
                    reached.add(len(known))  # a trace ended at this crossing it localized
                known.append(replace(e, id=len(known), source_branch=len(branches)))
            reached |= ended_at
            for image in orbit(geometry.families, branch):
                branches.append(replace(image, id=len(branches), parent_event=branch.parent_event,
                                        label=branch.label))
        # refined secondary bifurcations are switched; one whose localization
        # lost its bracket is no trustworthy branch point
        jobs = [(ev, Reduction(identity, tuple(ev.kernel[0]))) for ev in known[first_new:]
                if ev.kind == "secondary" and ev.refined]

    diagram = Diagram(
        problem=problem,
        potential=potential_to_json(spec),
        window=window,
        settings=settings,
        branches=branches,
        events=known,
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

    # per geometry: check-name prefix, random edges for the constraint
    # derivatives, random edges and parameter range for the equivariance
    cases = (
        (TRIANGLE, "triangle", lambda: rng.uniform(0.5, 2.0, 3),
         lambda: rng.uniform(0.6, 1.6, 3), (0.2, 2.0)),
        (TETRAHEDRON, "tetra", lambda: 1.0 + 0.25 * rng.uniform(-1.0, 1.0, 6),
         lambda: 1.0 + 0.15 * rng.uniform(-1, 1, 6), (0.1, 0.3)),
    )

    # constraint derivatives against central differences
    for geometry, prefix, draw_edges, _, _ in cases:
        worst = 0.0
        count = 0
        while count < 100:
            e = draw_edges()
            g0, g, H = geometry.terms(e)
            if g0 <= 1e-3:
                continue
            count += 1
            H = np.array(H)
            for i in range(geometry.n_edges):
                h = 1e-6 * e[i]
                ep, em = e.copy(), e.copy()
                ep[i] += h
                em[i] -= h
                (gp, grad_p, _), (gm, grad_m, _) = geometry.terms(ep), geometry.terms(em)
                fd_g = (gp - gm) / (2 * h)
                worst = max(worst, abs(fd_g - g[i]) / max(1.0, abs(g[i])))
                fd_h = (np.array(grad_p) - np.array(grad_m)) / (2 * h)
                worst = max(worst, float(np.max(np.abs(fd_h - H[:, i]) / np.maximum(1.0, np.abs(H[:, i])))))
        checks.append(_check(f"{prefix}-constraint-fd", worst < 1e-6, f"max rel err {worst:.2e}"))

    # equivariance of the residual under the symmetry group
    spec = LennardJones(1, 2, 12, 6)
    for geometry, prefix, _, draw_edges, (p_lo, p_hi) in cases:
        worst = 0.0
        for _ in range(100):
            x = np.concatenate([[rng.uniform(-2, 2)], draw_edges()])
            p = float(rng.uniform(p_lo, p_hi))
            Fx = residual(geometry, spec, x, p)
            for P in geometry.families.group():
                diff = float(np.max(np.abs(residual(geometry, spec, P.apply(x), p) - P.apply(Fx))))
                worst = max(worst, diff)
        checks.append(_check(f"{prefix}-equivariance", worst < 1e-12, f"max |F(Px)-PF(x)| {worst:.2e}"))

    # Cayley-Menger invariance under all 24 permutations
    worst = 0.0
    for _ in range(100):
        e = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, 6)
        g0 = cayley_menger(e)
        for P in TETRAHEDRON.families.group():
            ge = cayley_menger(P.apply(np.concatenate([[0.0], e]))[1:])
            worst = max(worst, abs(ge - g0) / max(1.0, abs(g0)))
    checks.append(_check("cm-invariance", worst < 1e-12, f"max rel diff {worst:.2e}"))

    # trivial-state spectra against closed forms
    worst = 0.0
    for _ in range(20):
        spec_i = _random_spec(rng)
        A = float(rng.uniform(0.3, 3.0))
        sp = trivial_spectrum3(spec_i, A)
        w, _ = sym_eigen(jacobian3(spec_i, ClusterProblem(TRIANGLE, spec_i).trivial_state(A)))
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
        J = jacobian4(spec_i, ClusterProblem(TETRAHEDRON, spec_i).trivial_state(V))
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
        for geometry in (TRIANGLE, TETRAHEDRON):
            p = float(rng.uniform(0.3, 3.0))
            J = jacobian(geometry, spec_i, ClusterProblem(geometry, spec_i).trivial_state(p))
            scale = max(1.0, float(np.max(np.abs(J))))
            for k, row in geometry.margins.items():
                mu = margin(geometry, spec_i, p, k)
                for v in row.kernel:
                    v = np.asarray(v)
                    worst = max(worst, float(np.max(np.abs(J @ v - mu * v))) / scale)
    checks.append(_check("trivial-eigenvectors", worst < 1e-12, f"max rel dev {worst:.2e}"))

    # projections match their reference matrices entry for entry: the
    # average 1/|B| over each block B of coordinates the subgroup permutes
    def block_average(n, blocks):
        return tuple(tuple(next((Fraction(1, len(B)) for B in blocks if i in B and j in B), Fraction(0))
                           for j in range(n)) for i in range(n))

    ok = all(fixed_projection_exact(geometry.families.reduction(name).subgroup)
             == block_average(geometry.n_edges + 1, blocks) for geometry, name, blocks in (
        (TRIANGLE, "isosceles", ((0,), (1,), (2, 3))),
        (TETRAHEDRON, "opposite-pair", ((0,), (1, 2, 4, 5), (3,), (6,))),
        (TETRAHEDRON, "apex-base", ((0,), (1, 2, 3), (4, 5, 6))),
        (TETRAHEDRON, "equal-pair", ((0,), (1, 4), (2, 3, 5, 6)))))
    checks.append(_check("fixed-projections", ok, "exact rational comparison"))

    g_reg = cayley_menger(np.ones(6))
    checks.append(_check("cm-regular-value", abs(g_reg - 4.0) < 1e-12, f"g(1,..,1) = {g_reg!r}"))

    # the Cayley-Menger cubic against the 5x5 determinant it expands
    worst = 0.0
    for _ in range(100):
        a, b, c, A, B, C = u = (1.0 + 0.2 * rng.uniform(-1.0, 1.0, 6)) ** 2
        M = [[0, a, b, c, 1], [a, 0, C, B, 1], [b, C, 0, A, 1], [c, B, A, 0, 1], [1, 1, 1, 1, 0]]
        g = cayley_menger(np.sqrt(u))
        worst = max(worst, abs(g - float(np.linalg.det(M))) / abs(g))
    checks.append(_check("cm-cubic-vs-determinant", worst < 1e-12, f"max rel diff {worst:.2e}"))

    # the crossing monitor's functionals for the trivial isotropy and each
    # named family: P(S) = P(S'_k) + u_k u_k^t, u_k a unit vector
    worst, counts = 0.0, []
    for geometry in (TRIANGLE, TETRAHEDRON):
        group = geometry.families.group()
        for sub in [PermGroup((Perm.identity(group.n),))] + [
                geometry.families.reduction(name).subgroup for name in geometry.families.families]:
            normals, projections = crossing_functionals(group, sub.elements)
            counts.append(len(normals))
            for u, Q in zip(normals, projections):
                worst = max(worst, float(np.max(np.abs(Q + np.outer(u, u) - fixed_projection(sub)))))
    checks.append(_check("crossing-functionals", worst < 1e-15 and counts == [3, 1, 0, 1, 1, 1],
                         f"counts {counts}, max dev {worst:.1e}"))
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


def _config_float(value, key: str, positive: bool = False) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):  # an integer too large for a float overflows
        out = math.nan
    if not math.isfinite(out) or (positive and not out > 0):
        kind = "a positive number" if positive else "a finite number"
        raise ConfigError(f"{key} must be {kind}, got {value!r}", key=key)
    return out


def _config_problem_spec(cfg: dict):
    problem = _require(cfg, "problem")
    _geometry(problem)
    spec = potential_from_json(_require(cfg, "potential"))
    return problem, spec


def _window(window) -> tuple[float, float]:
    """`window` as (lo, hi): a list or tuple of two finite real numbers, not bools, with 0 < lo < hi."""
    # comparing an int with a float is exact, so an int too large for a float fails the last bound
    if not (isinstance(window, (list, tuple)) and len(window) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in window)
            and 0 < window[0] < window[1] <= sys.float_info.max):
        raise ConfigError(f"window must be [lo, hi], finite numbers with 0 < lo < hi, got {window!r}",
                          key="window")
    return float(window[0]), float(window[1])


def _config_settings(cfg: dict) -> ContinuationSettings:
    try:
        return ContinuationSettings(**cfg.get("continuation", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad continuation settings: {exc}", key="continuation") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_trivial(cfg: dict, out_dir: Path | None) -> int:
    problem, spec = _config_problem_spec(cfg)
    values = _require(cfg, "values")
    if not isinstance(values, list) or not values:
        raise ConfigError("values must be a non-empty list of parameter values", key="values")
    values = [_config_float(p, "values", positive=True) for p in values]
    for p in values:
        lam, a = trivial_point(GEOMETRIES[problem], spec, p)
        if problem == "triangle":
            sp = trivial_spectrum3(spec, p)
            print(f"A={p:.12g}  lambda={lam:.12g}  edge={a:.12g}  mu={sp.mu:.12g}  "
                  f"pair=({sp.simple_pair[0]:.12g}, {sp.simple_pair[1]:.12g})")
        else:
            sp = trivial_spectrum4(spec, p)
            print(f"V={p:.12g}  lambda={lam:.12g}  edge={a:.12g}  "
                  f"mu1={sp.mu1:.12g}  mu2={sp.mu2:.12g}  restricted={tuple(round(v, 9) for v in sp.u_eigs)}")
    return EXIT_OK


def cmd_stability(cfg: dict, out_dir: Path | None) -> int:
    problem, spec = _config_problem_spec(cfg)
    window = _window(_require(cfg, "window"))
    roots = stability_boundaries(GEOMETRIES[problem], spec, window)
    closed = closed_form_thresholds(spec, problem)
    if not roots:
        print("no stability boundaries in the window")
    for r in roots:
        line = (f"margin[{r.margin_coefficient}] root at {r.parameter:.10g} "
                f"(slope {r.slope:.4g}, kernel dim {r.kernel_dim}"
                f"{'' if r.transversal else ', NON-TRANSVERSAL'})")
        match = [t for t in closed if t.margin_coefficient == r.margin_coefficient
                 and abs(t.value - r.parameter) < 1e-6 * abs(t.value)]
        if match:
            line += f"  closed-form {match[0].value:.10g} agrees"
        print(line)
    for t in closed:
        if window[0] <= t.value <= window[1] and not any(
                abs(t.value - r.parameter) < 1e-6 * abs(t.value) for r in roots):
            print(f"closed-form margin[{t.margin_coefficient}] value {t.value:.10g} "
                  "was NOT found by the scan")
            return EXIT_NUMERICAL
    return EXIT_OK


def cmd_trace(cfg: dict, out_dir: Path | None) -> int:
    problem, spec = _config_problem_spec(cfg)
    system = make_system(problem, spec)
    settings = _config_settings(cfg)
    window = _window(_require(cfg, "window"))
    tr = cfg.get("trace", {})
    p0 = _config_float(tr.get("parameter", 0.5 * (window[0] + window[1])), "trace.parameter",
                       positive=True)
    if not window[0] <= p0 <= window[1]:
        raise ConfigError(f"trace.parameter must lie in the window {list(window)!r}, got {p0!r}",
                          key="trace.parameter")
    direction = _config_float(tr.get("direction", 1.0), "trace.direction")
    outputs = _config_outputs(cfg, problem) if out_dir is not None else None
    if tr.get("start", "trivial") == "trivial":
        x0 = system.trivial_state(p0)
    else:
        try:
            x0 = np.asarray(tr["start"], dtype=float)
        except (TypeError, ValueError):
            x0 = None
        if x0 is None or x0.shape != (system.dim,):
            raise ConfigError(f"trace.start must have {system.dim} components", key="trace.start")
    start, _ = newton_correct(system, x0, p0)
    hint = np.zeros(system.dim + 1)
    hint[-1] = math.copysign(1.0, direction)
    branch, events = trace_branch(system, start, hint, settings, window,
                                  bifurcation_kind="primary" if tr.get("start", "trivial") == "trivial"
                                  else "secondary")
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
        _write_outputs(diagram, out_dir, *outputs)
    return EXIT_OK


def _svg_projection(cfg: dict, problem: str):
    svg = cfg.get("svg", {})
    kind = svg.get("projection", "param_vs_component")
    if kind == "param_vs_component":
        projection = ParamVsComponent(svg.get("component", "a"))
    elif kind == "abc_3d" and ("azimuth_deg" in svg or "tilt_deg" in svg):
        projection = Abc3d(_config_float(svg.get("azimuth_deg", -60.0), "svg.azimuth_deg"),
                           _config_float(svg.get("tilt_deg", 30.0), "svg.tilt_deg"))
    elif kind == "abc_3d":
        projection = Abc3d.trivial_axis_view()
    else:
        raise ConfigError(f"unknown svg projection {kind!r}", key="svg.projection")
    try:
        check_projection(problem, projection)
    except ValueError as exc:
        raise ConfigError(str(exc), key="svg") from exc
    return projection


def _config_outputs(cfg: dict, problem: str):
    """(formats, svg projection) to write, checked before any work is done."""
    formats = cfg.get("outputs", ["json", "csv", "svg"])
    if not isinstance(formats, list) or not all(f in ("json", "csv", "svg") for f in formats):
        raise ConfigError(f"outputs must be a list of 'json', 'csv', 'svg', got {formats!r}",
                          key="outputs")
    return formats, _svg_projection(cfg, problem) if "svg" in formats else None


def _write_outputs(diagram: Diagram, out_dir: Path, formats, projection) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if "json" in formats:
            (out_dir / "diagram.json").write_bytes(export(diagram, "json"))
        if "csv" in formats:
            (out_dir / "diagram.csv").write_bytes(export(diagram, "csv"))
        if "svg" in formats:
            (out_dir / "diagram.svg").write_text(render_svg(diagram, projection))
        meta = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "tool_version": __version__}
        (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write outputs under {out_dir}: {exc}", key="--out") from exc


def cmd_diagram(cfg: dict, out_dir: Path | None) -> int:
    problem, spec = _config_problem_spec(cfg)
    window = _require(cfg, "window")  # build_diagram checks it before any work
    settings = _config_settings(cfg)
    outputs = _config_outputs(cfg, problem) if out_dir is not None else None
    diagram = build_diagram(problem, spec, window, settings)
    print(f"{len(diagram.branches)} branches, {len(diagram.events)} events")
    for ev in diagram.events:
        print(f"event[{ev.id}] {ev.kind} at {ev.parameter:.8g} "
              f"(kernel dim {ev.kernel_dim}, branch {ev.source_branch})")
    if out_dir is not None:
        _write_outputs(diagram, out_dir, *outputs)
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
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.sets)
        unknown = sorted(set(cfg) - CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r}", key=unknown[0])
        for name, keys in OBJECT_KEYS.items():
            obj = cfg.get(name, {})
            if not isinstance(obj, dict):
                raise ConfigError(f"{name} must be an object, got {obj!r}", key=name)
            unknown = sorted(set(obj) - keys)
            if unknown:
                raise ConfigError(f"unknown {name} key {unknown[0]!r}", key=f"{name}.{unknown[0]}")
        out_dir = Path(args.out) if args.out else None
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        key = f" (field: {exc.key})" if exc.key else ""
        print(f"config error: {exc}{key}", file=sys.stderr)
        return EXIT_CONFIG
    except (TraceAbort, CorrectorFailure, DomainExit, LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
