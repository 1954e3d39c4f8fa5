import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from cluster_bifurc.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    _trivial_branch,
    build_diagram,
    load_config,
    main,
    make_system,
    run_verification,
)
from cluster_bifurc.cluster import stability_boundaries
from cluster_bifurc.diagram import load_diagram
from cluster_bifurc.potentials import Buckingham, ConfigError, LennardJones, PolynomialSpring, closed_form_thresholds
from cluster_bifurc.continuation import (
    BifurcationEvent,
    Branch,
    ContinuationSettings,
    CorrectorFailure,
    DomainExit,
    TraceAbort,
    branch_switch,
    classified_point,
    trace_branch,
)


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


LJ_STABILITY = {
    "problem": "triangle",
    "potential": {"family": "lennard_jones",
                  "params": {"c1": 1, "c2": 2, "delta1": 12, "delta2": 6}},
    "window": [0.1, 10.0],
}


def test_verify_passes():
    assert main(["verify"]) == EXIT_OK


def test_stability_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, LJ_STABILITY)
    assert main(["stability", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0.587688" in out
    assert "closed-form" in out and "agrees" in out


def test_trivial_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, {**LJ_STABILITY, "values": [math.sqrt(3.0) / 4.0]})
    assert main(["trivial", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "edge=1" in out and "mu=" in out
    cfg = write_config(tmp_path, {**LJ_STABILITY, "problem": "tetrahedron",
                                  "values": [1.0 / (6.0 * math.sqrt(2.0))]})
    assert main(["trivial", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "mu1=" in out and "mu2=" in out and "edge=1" in out


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["stability", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    cfg = write_config(tmp_path, {"problem": "hexagon", "potential": LJ_STABILITY["potential"],
                                  "window": [0.1, 1.0]})
    assert main(["stability", "--config", cfg]) == EXIT_CONFIG
    assert "problem" in capsys.readouterr().err
    cfg = write_config(tmp_path, {**LJ_STABILITY,
                                  "potential": {"family": "morse", "params": {}}})
    assert main(["stability", "--config", cfg]) == EXIT_CONFIG
    assert "family" in capsys.readouterr().err
    cfg = write_config(tmp_path, {**LJ_STABILITY, "window": [5.0, 1.0]})
    assert main(["stability", "--config", cfg]) == EXIT_CONFIG
    cfg = write_config(tmp_path, {**LJ_STABILITY, "continuation": {"step": 1}})
    assert main(["diagram", "--config", cfg]) == EXIT_CONFIG


def test_set_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, LJ_STABILITY)
    assert main(["stability", "--config", cfg, "--set", "window.1=2.0"]) == EXIT_OK
    assert main(["stability", "--config", cfg, "--set", "grid_n=oops"]) == EXIT_CONFIG
    # malformed --set syntax
    assert main(["stability", "--config", cfg, "--set", "windowhigh"]) == EXIT_CONFIG


@pytest.mark.parametrize("command, sets", [
    ("trace", ["trace.start=foo"]),
    ("trace", ["trace.parameter=abc"]),
    ("diagram", ["svg.projection=abc_3d", "svg.azimuth_deg=x"]),
    ("trivial", ["values=[-1]"]),
    ("stability", ["grid_n=1"]),
    ("diagram", ["outputs=7"]),
    ("diagram", ["svg.component=zz"]),
    ("diagram", ["problem=tetrahedron", "svg.projection=abc_3d"]),
    ("diagram", ["continuation.step_shrink=1.0"]),
    ("diagram", ["continuation.step_growth=0.5"]),
    ("diagram", ["continuation.newton_tol=0"]),
    ("diagram", ["continuation.newton_max_iters=0"]),
    ("diagram", ["continuation.max_points=0"]),
    ("diagram", ["continuation.contraction_target=-1"]),
    ("diagram", ["continuation.newton_max_iters=2.5"]),
    ("diagram", ["continuation.newton_max_iters=true"]),
    ("diagram", ["continuation.max_points=2.5"]),
    ("diagram", ["continuation.contraction_target=2.5"]),
    ("diagram", ["continuation.detection=no"]),
    ("diagram", ["continuation.detection=1"]),
    ("diagram", ["continuation.h_max=Infinity"]),
    ("diagram", ["continuation.h0=NaN"]),
    ("diagram", ["continuation.newton_tol=Infinity"]),
    ("diagram", ["continuation.step_growth=Infinity"]),
    ("diagram", ["window.1=Infinity"]),
    ("stability", ["window.1=Infinity"]),
    ("trace", ["window.1=Infinity"]),
    ("diagram", ["window.0=true"]),
    ("diagram", ["continuation.h_max=true"]),
    ("diagram", ["continuation.h0=true", "continuation.h_max=2"]),
    ("diagram", ["continuation.h_min=true", "continuation.h0=1", "continuation.h_max=2"]),
    ("diagram", ["continuation.newton_tol=true"]),
    ("diagram", ["continuation.step_growth=true"]),
    ("diagram", ["continuation.step_shrink=false"]),
    ("trace", ["trace.parameter=50"]),  # outside the window (0.1, 10)
    # integers too large for a float
    ("trace", ["trace.direction=1" + "0" * 400]),
    ("trivial", ["values=[1" + "0" * 400 + "]"]),
    ("diagram", ["svg.projection=abc_3d", "svg.tilt_deg=1" + "0" * 400]),
])
def test_malformed_values_exit_2_before_any_work(tmp_path, capsys, command, sets):
    cfg = write_config(tmp_path, LJ_STABILITY)
    out_dir = tmp_path / "out"
    argv = [command, "--config", cfg, "--out", str(out_dir)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["diagram", "stability"])
def test_an_infinite_window_edge_is_a_window_error(tmp_path, capsys, command):
    # Python's json reads Infinity; the build must not start on such a window
    cfg = write_config(tmp_path, LJ_STABILITY)
    assert main([command, "--config", cfg, "--set", "window.1=Infinity"]) == EXIT_CONFIG
    assert "(field: window)" in capsys.readouterr().err
    with pytest.raises(ConfigError) as info:
        build_diagram("triangle", LennardJones(1, 2, 12, 6), (0.3, math.inf))
    assert info.value.key == "window"


def test_load_config_set_paths(tmp_path):
    cfg_path = write_config(tmp_path, {"a": {"b": 1}, "w": [1, 2]})
    cfg = load_config(cfg_path, ["a.b=3", "w.0=9", "name=run"])
    assert cfg["a"]["b"] == 3
    assert cfg["w"][0] == 9
    assert cfg["name"] == "run"
    with pytest.raises(ConfigError):
        load_config(cfg_path, ["w.5=1"])


def test_trace_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        **LJ_STABILITY,
        "window": [0.3, 0.7],
        "continuation": {"h_max": 0.05},
        "trace": {"start": "trivial", "parameter": 0.35, "direction": 1},
        "outputs": ["json", "csv"],
    })
    out_dir = tmp_path / "trace_out"
    assert main(["trace", "--config", cfg, "--out", str(out_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "traced" in out and "event primary" in out
    d = load_diagram((out_dir / "diagram.json").read_bytes())
    assert d.branches[0].points[-1].parameter <= 0.7
    assert (out_dir / "diagram.csv").exists()


def test_a_diagram_writes_only_the_outputs_asked_for(tmp_path):
    cfg = write_config(tmp_path, {"problem": "triangle",
                                  "potential": {"family": "spring", "params": {"k": 1, "beta": -0.1}},
                                  "window": [0.5, 6.0], "continuation": {"h_max": 0.05},
                                  "outputs": ["json"]})
    out_dir = tmp_path / "out"
    assert main(["diagram", "--config", cfg, "--out", str(out_dir)]) == EXIT_OK
    assert sorted(f.name for f in out_dir.iterdir()) == ["diagram.json", "run_meta.json"]


def test_diagram_subcommand_and_determinism(tmp_path):
    cfg_obj = {
        "problem": "triangle",
        "potential": {"family": "spring", "params": {"k": 1, "beta": -0.1}},
        "window": [0.5, 6.0],
        "continuation": {"h_max": 0.05, "max_points": 200},
    }
    cfg = write_config(tmp_path, cfg_obj)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["diagram", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["diagram", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "diagram.json").read_bytes() == (out2 / "diagram.json").read_bytes()
    assert (out1 / "diagram.csv").read_bytes() == (out2 / "diagram.csv").read_bytes()
    assert (out1 / "diagram.svg").read_bytes() == (out2 / "diagram.svg").read_bytes()
    assert (out1 / "run_meta.json").exists()  # timestamps live only in the sidecar
    d = load_diagram((out1 / "diagram.json").read_bytes())
    assert len(d.branches) == 4  # trivial + 3 isosceles images
    assert any(ev.kind == "primary" for ev in d.events)


@pytest.mark.parametrize("command", ["diagram", "stability", "trace", "trivial", "verify"])
@pytest.mark.parametrize("item, key", [
    ("contination.h_max=0.01", "contination"),  # a misspelt key, not a build at the default h_max
    ("grid_n=2000", "grid_n"),
    ("grid_n=Infinity", "grid_n"),
    ("trivial_samples=400", "trivial_samples"),
    ("trivial_samples=NaN", "trivial_samples"),
    ("deep=no", "deep"),  # secondaries are switched once; no key switches deeper
    ("deep=true", "deep"),
])
def test_an_unknown_top_level_key_exits_2_before_any_work(tmp_path, capsys, command, item, key):
    cfg = write_config(tmp_path, {**LJ_STABILITY, "values": [0.5]})
    out_dir = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out_dir), "--set", item]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"(field: {key})" in captured.err and captured.out == ""
    assert not out_dir.exists()


def _readme_config() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))


@pytest.mark.parametrize("command, item, key", [
    ("diagram", "svg.componet=b", "svg.componet"),  # a misspelt key, not a plot of component a
    ("trace", "trace.paramter=0.5", "trace.paramter"),  # not a trace from the window midpoint
    ("stability", "svg.azimuth=10", "svg.azimuth"),
    ("trivial", "continuation.step=1", "continuation.step"),
    ("verify", "trace.start_state=[0]", "trace.start_state"),
    ("diagram", "svg=7", "svg"),
    ("trace", "trace=[0.5]", "trace"),
    ("diagram", "continuation=0.01", "continuation"),
])
def test_an_unknown_key_or_a_non_object_inside_an_object_exits_2_before_any_work(tmp_path, capsys, command,
                                                                                   item, key):
    cfg = write_config(tmp_path, {**_readme_config(), "values": [0.5]})
    out_dir = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out_dir), "--set", item]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"(field: {key})" in captured.err and captured.out == ""
    assert not out_dir.exists()


# the last value is an integer too large for a float
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_a_non_finite_potential_parameter_exits_2_before_writing(tmp_path, capsys, value):
    cfg = write_config(tmp_path, {"problem": "triangle",
                                  "potential": {"family": "spring", "params": {"k": 1, "beta": -0.1}},
                                  "window": [0.5, 6.0]})
    out_dir = tmp_path / "out"
    argv = ["diagram", "--config", cfg, "--out", str(out_dir), "--set", f"potential.params.beta={value}"]
    assert main(argv) == EXIT_CONFIG
    assert "(field: beta)" in capsys.readouterr().err
    assert not out_dir.exists()


def test_a_margin_root_below_1e_6_is_scanned_and_agrees_with_the_closed_form(tmp_path, capsys):
    # the slope's central difference steps 1e-6 relative to the root, so it
    # never evaluates the margin at a negative area
    potential = {"family": "lennard_jones", "params": {"c1": 1e-20, "c2": 1, "delta1": 12, "delta2": 6}}
    cfg = write_config(tmp_path, {"problem": "triangle", "potential": potential, "window": [1e-8, 1e-6]})
    assert main(["stability", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    (closed,) = closed_form_thresholds(LennardJones(1e-20, 1, 12, 6), "triangle")
    (root,) = (float(v) for v in re.findall(r"root at (\S+)", out))
    assert closed.value == pytest.approx(1.5952e-7, rel=1e-4)
    assert root == pytest.approx(closed.value, rel=1e-9)
    assert "agrees" in out and "NON-TRANSVERSAL" not in out


def test_the_readme_config_builds(tmp_path):
    cfg = write_config(tmp_path, _readme_config())
    out_dir = tmp_path / "out"
    assert main(["diagram", "--config", cfg, "--out", str(out_dir)]) == EXIT_OK
    assert {f.name for f in out_dir.iterdir()} == {"diagram.json", "diagram.csv", "diagram.svg", "run_meta.json"}


def test_build_diagram_rejects_bad_window():
    with pytest.raises(ConfigError):
        build_diagram("triangle", LennardJones(1, 2, 12, 6), (0.9, 0.3), ContinuationSettings())


@pytest.mark.parametrize("window", [(0.3, 0.0), [0.0, 1.0], [0.3], [0.3, 0.6, 0.9], "ab", 0.5, None,
                                    [True, 2], [0.3, math.nan], [-math.inf, 1.0], ["0.3", "0.9"],
                                    [0.3, 10 ** 400]])
def test_one_window_check_serves_every_command(tmp_path, capsys, window):
    with pytest.raises(ConfigError) as info:
        build_diagram("triangle", LennardJones(1, 2, 12, 6), window)
    assert info.value.key == "window"
    cfg = write_config(tmp_path, {**LJ_STABILITY, "window": window})
    for command in ("diagram", "stability", "trace"):
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert "(field: window)" in capsys.readouterr().err


def test_the_version_is_the_one_pyproject_toml_declares():
    import cluster_bifurc

    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, re.M)
    assert cluster_bifurc.__version__ == version


def test_run_verification_all_green():
    checks = run_verification()
    assert len(checks) >= 10
    assert all(ok for _, ok, _ in checks)


def test_svg_projection_config():
    from cluster_bifurc.cli import _svg_projection
    from cluster_bifurc.diagram import Abc3d, ParamVsComponent

    assert _svg_projection({}, "triangle") == ParamVsComponent("a")
    assert _svg_projection({"svg": {"component": "c"}}, "triangle") == ParamVsComponent("c")
    assert _svg_projection({"svg": {"projection": "abc_3d"}}, "triangle") == Abc3d.trivial_axis_view()
    assert _svg_projection({"svg": {"projection": "abc_3d", "azimuth_deg": 10, "tilt_deg": 20}},
                           "triangle") == Abc3d(10.0, 20.0)
    with pytest.raises(ConfigError):
        _svg_projection({"svg": {"projection": "polar"}}, "triangle")


def test_a_secondary_a_first_level_trace_ended_at_is_not_switched_nor_any_second_level_event(monkeypatch):
    # each first-level branch ends on the state of a simple secondary event its
    # own switch found: the branches that event would seed are images of that
    # trace, so it is not switched; a simple secondary inside the branch is,
    # and the events found at that second level are never switched
    from cluster_bifurc import cli

    switched = []

    def fake_switch(system, ev, reduction, settings, window, targets):
        switched.append(ev.id)
        base = 0.4 if ev.kind == "primary" else 0.6
        points = [classified_point(system, system.trivial_state(p), p) for p in (base, base + 0.05, base + 0.1)]
        found = [BifurcationEvent("secondary", pt.parameter, 1, (tuple(np.eye(system.dim)[1]),), pt.state)
                 for pt in (points[1:] if ev.kind == "primary" else points[1:2])]
        return Branch(points=points, parent_event=ev.id, label="fake"), found, set()

    monkeypatch.setattr(cli, "_switch_and_trace", fake_switch)
    diagram = build_diagram("triangle", LennardJones(1, 2, 12, 6), (0.3, 0.9))
    first = [ev for ev in diagram.events if ev.kind == "secondary" and ev.parameter < 0.55]
    second = [ev for ev in diagram.events if ev.kind == "secondary" and ev.parameter > 0.55]
    ends = {b.points[-1].state for b in diagram.branches[1:]}
    at_end = {ev.id for ev in first if ev.state in ends}
    inside = {ev.id for ev in first} - at_end
    assert at_end and inside and second
    assert not at_end & set(switched) and inside <= set(switched)
    assert not {ev.id for ev in second} & set(switched)


def test_an_unrefined_secondary_is_not_switched(monkeypatch):
    # a secondary whose localization lost its bracket gives no trustworthy
    # kernel to switch along; the refined one beside it is switched
    from cluster_bifurc import cli

    switched = []

    def fake_switch(system, ev, reduction, settings, window, targets):
        switched.append(ev.id)
        points = [classified_point(system, system.trivial_state(p), p) for p in (0.4, 0.45, 0.5, 0.55)]
        found = [BifurcationEvent("secondary", pt.parameter, 1, (tuple(np.eye(system.dim)[1]),), pt.state,
                                  refined=refined)
                 for pt, refined in zip(points[1:3], (True, False))] if ev.kind == "primary" else []
        return Branch(points=points, parent_event=ev.id, label="fake"), found, set()

    monkeypatch.setattr(cli, "_switch_and_trace", fake_switch)
    diagram = build_diagram("triangle", LennardJones(1, 2, 12, 6), (0.3, 0.9))
    refined = {ev.id for ev in diagram.events if ev.kind == "secondary" and ev.refined}
    unrefined = {ev.id for ev in diagram.events if ev.kind == "secondary" and not ev.refined}
    assert refined and unrefined
    assert refined <= set(switched) and not unrefined & set(switched)


def _primary_switch():
    """The Lennard-Jones triangle, its primary event and the isosceles reduction there."""
    system = make_system("triangle", LennardJones(1, 2, 12, 6))
    root = stability_boundaries(system.geometry, system.spec, (0.3, 0.9))[0]
    ev = BifurcationEvent("primary", root.parameter, 2, system.geometry.margins[3].kernel,
                          tuple(system.trivial_state(root.parameter)), source_branch=0, id=0)
    return system, ev, system.geometry.families.reduction("isosceles")


def test_one_trace_runs_serially_and_an_aborted_seed_is_kept_as_a_point(monkeypatch):
    from cluster_bifurc import cli

    system, ev, reduction = _primary_switch()
    settings, window = ContinuationSettings(h_max=0.05), (0.3, 0.9)
    seed = branch_switch(system, ev, reduction)[0][0]
    center = np.append(ev.state, ev.parameter)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", None)  # a single job never reaches the pool
    want = trace_branch(system, seed, seed.z() - center, settings, window, targets=(ev,))
    assert cli._run_traces(system, [(seed, center)], settings, window, (ev,)) == [want]

    def aborting(*args, **kwargs):
        raise TraceAbort("corrector failed at the start point with minimum step")

    monkeypatch.setattr(cli, "trace_branch", aborting)
    (got,) = cli._run_traces(system, [(seed, center)], settings, window, (ev,))
    assert got[0].points == [replace(seed, arclength=0.0)] and got[1] == []


@pytest.mark.parametrize("error", [CorrectorFailure("no convergence"), DomainExit("left the domain")])
def test_a_switch_that_raises_is_skipped(monkeypatch, error):
    from cluster_bifurc import cli

    def raising(*args, **kwargs):
        raise error

    system, ev, reduction = _primary_switch()
    monkeypatch.setattr(cli, "branch_switch", raising)
    assert cli._switch_and_trace(system, ev, reduction, ContinuationSettings(), (0.3, 0.9), (ev,)) is None


def test_a_switch_with_one_converged_seed_exports_that_half_alone(monkeypatch):
    from cluster_bifurc import cli

    def first_seed_only(*args, **kwargs):
        seeds, data = branch_switch(*args, **kwargs)
        return seeds[:1], data

    system, ev, reduction = _primary_switch()
    settings, window = ContinuationSettings(h_max=0.05), (0.3, 0.9)
    monkeypatch.setattr(cli, "branch_switch", first_seed_only)
    branch, events, ended_at = cli._switch_and_trace(system, ev, reduction, settings, window, (ev,))
    (seed,), _ = first_seed_only(system, ev, reduction)
    half, want = trace_branch(system, seed, seed.z() - np.append(ev.state, ev.parameter), settings,
                              window, targets=(ev,))
    assert branch.points == half.points and branch.points[0] == replace(seed, arclength=0.0)
    assert events == want and branch.parent_event == ev.id and branch.label == seed.shape
    assert ended_at == {half.reached_event} - {None}


def test_a_switch_keeps_only_the_seeds_inside_the_window():
    from cluster_bifurc import cli

    system, ev, reduction = _primary_switch()
    settings = ContinuationSettings(h_max=0.05)
    center = np.append(ev.state, ev.parameter)
    above, below = branch_switch(system, ev, reduction)[0]
    assert below.parameter < ev.parameter < above.parameter
    window = (0.3, 0.5 * (ev.parameter + above.parameter))  # the upper seed lies past the top
    branch, events, _ = cli._switch_and_trace(system, ev, reduction, settings, window, (ev,))
    half, want = trace_branch(system, below, below.z() - center, settings, window, targets=(ev,))
    assert branch.points == half.points and events == want
    above_both = (above.parameter + 0.01, 0.9)
    assert cli._switch_and_trace(system, ev, reduction, settings, above_both, (ev,)) is None


def test_a_linear_algebra_error_exits_3(tmp_path, monkeypatch, capsys):
    from cluster_bifurc import cli

    def singular(*args, **kwargs):
        raise LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "build_diagram", singular)
    cfg = write_config(tmp_path, {**LJ_STABILITY, "window": [0.3, 0.9]})
    assert main(["diagram", "--config", cfg]) == EXIT_NUMERICAL
    assert "numerical failure: Singular matrix" in capsys.readouterr().err


@pytest.mark.parametrize("problem, spec, window", [
    ("triangle", LennardJones(1, 2, 12, 6), (0.3, 0.9)),
    ("triangle", Buckingham(1, 1, 1, 4), (1.0, 100.0)),
    ("tetrahedron", PolynomialSpring(1, -0.1), (0.5, 4.0)),
    ("tetrahedron", LennardJones(1, 2, 12, 6), (0.05, 0.5)),
], ids=["lennard-jones-triangle", "buckingham-triangle", "soft-spring-tetrahedron",
        "lennard-jones-tetrahedron"])
def test_stacked_trivial_branch_labels_equal_the_per_point_ones(problem, spec, window):
    system = make_system(problem, spec)
    events = [r.parameter for r in stability_boundaries(system.geometry, spec, window)]
    assert events
    branch = _trivial_branch(system, window, events)
    assert len(branch.points) == 400 + len(events)
    s = 0.0
    for i, pt in enumerate(branch.points):
        want = classified_point(system, system.trivial_state(pt.parameter), pt.parameter)
        assert (pt.state, pt.parameter) == (want.state, want.parameter)
        assert (pt.stability, pt.shape, pt.index) == (want.stability, want.shape, want.index)
        if i:
            dz = pt.z() - branch.points[i - 1].z()
            s += float(np.sqrt(dz @ dz))
        assert pt.arclength == s
    # every primary event is a marginal point (a sample may sit close enough to one to be marginal too)
    marginal = {pt.parameter for pt in branch.points if pt.stability == "marginal"}
    assert set(events) <= marginal
