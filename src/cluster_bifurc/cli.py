"""Command-line interface and the end-to-end diagram pipeline.

Subcommands:

    trivial     print the fully symmetric state and its spectrum at given
                parameter values
    stability   scan the stability margins for their zeros and cross-check
                closed forms
    trace       continue a single branch from a start point
    diagram     full pipeline: symmetric branch -> primary events -> branch
                switching -> secondary detection -> orbit expansion -> export

Exit codes: 0 success, 2 configuration or usage error (argparse exits 2 on
an unknown subcommand), 3 numerical failure.  Runs are reproducible:
identical configs produce byte-identical JSON/CSV; timestamps only appear in
the run_meta.json sidecar.  The identities the pipeline rests on
(finite-difference derivatives, equivariance, the closed-form spectra) are
checked by the test suite, `pytest`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

from . import __version__
from .cluster import (
    ClusterProblem,
    Geometry,
    classify_trivial,
    stability_boundaries,
    trivial_point,
)
from .continuation import (
    BifurcationEvent,
    Branch,
    ContinuationSettings,
    CorrectorFailure,
    DomainExit,
    branch_switch,
    branch_tangent,
    classified_point,
    concatenate_branches,
    cumulative_arclengths,
    dedup_events,
    newton_correct,
    trace_branch,
)
from .diagram import Abc3d, Diagram, ParamVsComponent, check_projection, export, render_svg
from .potentials import ConfigError, closed_form_thresholds, potential_from_json, potential_to_json
from .symmetry import orbit
from .tetrahedron import TETRAHEDRON, trivial_spectrum4
from .triangle import TRIANGLE, trivial_spectrum3

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

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
    labeled from its closed-form margins (`cluster.classify_trivial`)."""
    params = np.array(sorted(set(np.linspace(window[0], window[1], 400).tolist()) | set(extra_params)))
    states, stability, index = classify_trivial(system.geometry, system.spec, params.tolist())
    return Branch(states, params, cumulative_arclengths(np.column_stack([states, params])), np.array(index),
                  stability, [system.geometry.families.whole] * len(params), id=0, label="trivial")


def _switch_and_trace(system, ev: BifurcationEvent, direction, settings, window,
                      targets) -> tuple[Branch, list[BifurcationEvent], set[int]]:
    """(branch, events its traces localized, ids of the targets they ended at) of the switch at `ev`
    along `direction`, the branch's `parent_event` and `label` set.

    Both halves are traced, on a pool of two threads, from the event point along the switch's
    tangents t and -t, each ending at any of `targets`, and joined at the event."""
    tangents, _ = branch_switch(system, ev, direction)
    start = classified_point(system, np.asarray(ev.state, dtype=float), ev.parameter)
    with ThreadPoolExecutor(max_workers=len(tangents)) as pool:
        results = list(pool.map(lambda t: trace_branch(system, start, t, settings, window, targets=targets),
                                tangents))
    halves = [branch for branch, _ in results]
    branch = concatenate_branches(*halves)
    # labeled by the first traced point: the start has the event's larger symmetry
    branch.parent_event, branch.label = ev.id, [*halves[0].shape[1:], *halves[1].shape[1:], start.shape][0]
    events = dedup_events([e for _, found in results for e in found])
    return branch, events, {h.reached_event for h in halves} - {None}


def build_diagram(problem: str, spec, window: tuple[float, float],
                  settings: ContinuationSettings | None = None) -> Diagram:
    """Run the full pipeline and assemble a Diagram.

    Primary bifurcation parameters come from the closed-form margin scan on
    the symmetric branch; each transversal root is switched along the
    representative vector of each family its margins-table row names, the
    switched branches are traced through the window (detecting secondary and
    turning events), and the refined secondary bifurcations those traces
    localize are switched once more, along their first kernel vector, with
    no further level.  A switch is an event and a direction: both halves of
    its branch are traced from the event point.  Every trace ends where it
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
    jobs = []  # (event, direction) to switch at
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
            jobs += [(ev, geometry.families.families[name]) for name in row.reductions]

    branches = [_trivial_branch(system, window, [ev.parameter for ev in known])]
    reached: set[int] = set()
    for _ in range(2):  # the primaries, then the secondaries their traces localized
        first_new = len(known)
        for ev, direction in jobs:
            if ev.kernel_dim == 1 and ev.id in reached:
                continue  # a trace already ran into this point; its branches are images of that one
            branch, events, ended_at = _switch_and_trace(system, ev, direction, settings, window, tuple(known))
            ends = {tuple(branch.states[0].tolist()), tuple(branch.states[-1].tolist())}
            for e in events:
                if e.state in ends:
                    reached.add(len(known))  # a trace ended at this crossing it localized
                known.append(replace(e, id=len(known), source_branch=len(branches)))
            reached |= ended_at
            for image in orbit(geometry.families, branch):
                image.id, image.parent_event, image.label = len(branches), branch.parent_event, branch.label
                branches.append(image)
        # refined secondary bifurcations are switched; one whose localization
        # lost its bracket is no trustworthy branch point
        jobs = [(ev, ev.kernel[0]) for ev in known[first_new:]
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
    """`value` as a finite float, positive where asked, from an int or a float only, as in `_window`:
    a bool, which `float` would read as 0 or 1, or a numeric string is refused as a non-number."""
    try:
        out = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer too large for a float
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
    tangent = branch_tangent(system, np.asarray(start.state), start.parameter, hint)
    branch, events = trace_branch(system, start, tangent, settings, window,
                                  bifurcation_kind="primary" if tr.get("start", "trivial") == "trivial"
                                  else "secondary")
    if len(branch.parameters) == 1:
        raise CorrectorFailure(f"the trace kept only its start point at {system.param_name}={p0:.6g}")
    branch.id = 0
    branch.label = "traced"
    params = branch.parameters
    print(f"traced {len(params)} points, {system.param_name} in "
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
    elif kind == "abc_3d":
        view = Abc3d.trivial_axis_view()
        projection = Abc3d(_config_float(svg.get("azimuth_deg", view.azimuth_deg), "svg.azimuth_deg"),
                           _config_float(svg.get("tilt_deg", view.tilt_deg), "svg.tilt_deg"))
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


_COMMANDS = {
    "trivial": cmd_trivial,
    "stability": cmd_stability,
    "trace": cmd_trace,
    "diagram": cmd_diagram,
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
    except (CorrectorFailure, DomainExit, LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
