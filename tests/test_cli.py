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
)
from cluster_bifurc.cluster import stability_boundaries
from cluster_bifurc.diagram import load_diagram
from cluster_bifurc.potentials import Buckingham, ConfigError, LennardJones, PolynomialSpring, closed_form_thresholds
from cluster_bifurc.continuation import (
    BifurcationEvent,
    Branch,
    BranchPoint,
    ContinuationSettings,
    CorrectorFailure,
    DomainExit,
    branch_switch,
    classified_point,
    concatenate_branches,
    dedup_events,
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


def test_verify_is_no_longer_a_subcommand(capsys):
    # the self-checks it ran are tests of this suite; argparse rejects the name as a usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid choice" in err and "verify" in err


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


@pytest.mark.parametrize("command, sets, key", [
    ("trivial", ["values=[true, 0.5]"], "values"),  # not a run at A = 1
    ("trivial", ["values=[false]"], "values"),
    ("trace", ["trace.direction=true"], "trace.direction"),  # not a trace towards +1
    ("trace", ["trace.parameter=true"], "trace.parameter"),
    ("diagram", ["svg.projection=abc_3d", "svg.tilt_deg=false"], "svg.tilt_deg"),
])
def test_a_boolean_where_a_number_belongs_exits_2_before_any_work(tmp_path, capsys, command, sets, key):
    _assert_exits_2_before_any_work(tmp_path, capsys, command, sets, key)


@pytest.mark.parametrize("command, sets, key", [
    ("trivial", ['values=["0.5", " 1e0 "]'], "values"),  # not a run at A = 0.5 and 1
    ("trace", ['trace.parameter="0.5"'], "trace.parameter"),
    ("trace", ['trace.direction="-1"'], "trace.direction"),
    ("diagram", ["svg.projection=abc_3d", 'svg.tilt_deg="30"'], "svg.tilt_deg"),
])
def test_a_numeric_string_where_a_number_belongs_exits_2_before_any_work(tmp_path, capsys, command, sets, key):
    _assert_exits_2_before_any_work(tmp_path, capsys, command, sets, key)


def _assert_exits_2_before_any_work(tmp_path, capsys, command, sets, key):
    cfg = write_config(tmp_path, {**LJ_STABILITY, "window": [0.5, 2.0]})
    out_dir = tmp_path / "out"
    argv = [command, "--config", cfg, "--out", str(out_dir)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"(field: {key})" in captured.err and captured.out == ""
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


def test_a_trace_that_keeps_only_its_start_point_exits_3(tmp_path, monkeypatch, capsys):
    from cluster_bifurc import continuation

    def assert_exits_3(parameter):
        cfg = write_config(tmp_path, {**LJ_STABILITY, "window": [0.3, 0.7],
                                      "trace": {"start": "trivial", "parameter": parameter}})
        out_dir = tmp_path / "out"
        assert main(["trace", "--config", cfg, "--out", str(out_dir)]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert f"numerical failure: the trace kept only its start point at area={parameter}" in captured.err
        assert captured.out == "" and not out_dir.exists()

    # a trivial start on the window top, heading up: every step crosses the
    # edge from the start itself, so no edge point can replace it; the first
    # step shrinks to the minimum step and the trace ends at its start
    assert_exits_3(0.7)
    # every bordered correction fails, so the trace's first step shrinks to the
    # minimum step and the trace ends at its start: a numerical failure
    correct = continuation.newton_correct

    def failing(system, state, parameter, constraint=None, projection=None):
        if constraint is not None:
            raise CorrectorFailure("refused")
        return correct(system, state, parameter, constraint, projection)

    monkeypatch.setattr(continuation, "newton_correct", failing)
    assert_exits_3(0.35)


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


@pytest.mark.parametrize("command", ["diagram", "stability", "trace", "trivial"])
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


def test_svg_projection_config():
    from cluster_bifurc.cli import _svg_projection
    from cluster_bifurc.diagram import Abc3d, ParamVsComponent

    assert _svg_projection({}, "triangle") == ParamVsComponent("a")
    assert _svg_projection({"svg": {"component": "c"}}, "triangle") == ParamVsComponent("c")
    assert _svg_projection({"svg": {"projection": "abc_3d"}}, "triangle") == Abc3d.trivial_axis_view()
    assert _svg_projection({"svg": {"projection": "abc_3d", "azimuth_deg": 10, "tilt_deg": 20}},
                           "triangle") == Abc3d(10.0, 20.0)
    # a missing angle is the trivial-axis view's, whether one angle is given or none
    assert _svg_projection({"svg": {"projection": "abc_3d", "tilt_deg": 20}}, "triangle") == Abc3d(-45.0, 20.0)
    assert _svg_projection({"svg": {"projection": "abc_3d", "azimuth_deg": 10}}, "triangle") == Abc3d(
        10.0, Abc3d.trivial_axis_view().tilt_deg)
    with pytest.raises(ConfigError):
        _svg_projection({"svg": {"projection": "polar"}}, "triangle")


def test_a_secondary_a_first_level_trace_ended_at_is_not_switched_nor_any_second_level_event(monkeypatch):
    # each first-level branch ends on the state of a simple secondary event its
    # own switch found: the branches that event would seed are images of that
    # trace, so it is not switched; a simple secondary inside the branch is,
    # and the events found at that second level are never switched
    from cluster_bifurc import cli

    switched = []

    def fake_switch(system, ev, direction, settings, window, targets):
        switched.append(ev.id)
        base = 0.4 if ev.kind == "primary" else 0.6
        points = [classified_point(system, system.trivial_state(p), p) for p in (base, base + 0.05, base + 0.1)]
        found = [BifurcationEvent("secondary", pt.parameter, 1, (tuple(np.eye(system.dim)[1]),), pt.state)
                 for pt in (points[1:] if ev.kind == "primary" else points[1:2])]
        return Branch.from_points(points, parent_event=ev.id, label="fake"), found, set()

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

    def fake_switch(system, ev, direction, settings, window, targets):
        switched.append(ev.id)
        points = [classified_point(system, system.trivial_state(p), p) for p in (0.4, 0.45, 0.5, 0.55)]
        found = [BifurcationEvent("secondary", pt.parameter, 1, (tuple(np.eye(system.dim)[1]),), pt.state,
                                  refined=refined)
                 for pt, refined in zip(points[1:3], (True, False))] if ev.kind == "primary" else []
        return Branch.from_points(points, parent_event=ev.id, label="fake"), found, set()

    monkeypatch.setattr(cli, "_switch_and_trace", fake_switch)
    diagram = build_diagram("triangle", LennardJones(1, 2, 12, 6), (0.3, 0.9))
    refined = {ev.id for ev in diagram.events if ev.kind == "secondary" and ev.refined}
    unrefined = {ev.id for ev in diagram.events if ev.kind == "secondary" and not ev.refined}
    assert refined and unrefined
    assert refined <= set(switched) and not unrefined & set(switched)


def _primary_switch():
    """The Lennard-Jones triangle, its primary event and the isosceles direction there."""
    system = make_system("triangle", LennardJones(1, 2, 12, 6))
    root = stability_boundaries(system.geometry, system.spec, (0.3, 0.9))[0]
    ev = BifurcationEvent("primary", root.parameter, 2, system.geometry.margins[3].kernel,
                          tuple(system.trivial_state(root.parameter)), source_branch=0, id=0)
    return system, ev, system.geometry.families.families["isosceles"]


def test_a_switch_traces_both_halves_from_the_event_and_joins_them_there():
    # the halves start at the classified event point along the switch's two
    # tangents, end at any of the targets, and are joined with the t half reversed
    from cluster_bifurc import cli

    system, ev, direction = _primary_switch()
    settings, window = ContinuationSettings(h_max=0.05), (0.3, 0.9)
    branch, events, ended_at = cli._switch_and_trace(system, ev, direction, settings, window, (ev,))
    start = classified_point(system, np.asarray(ev.state), ev.parameter)
    halves = [trace_branch(system, start, t, settings, window, targets=(ev,))
              for t in branch_switch(system, ev, direction)[0]]
    assert branch == replace(concatenate_branches(halves[0][0], halves[1][0]), parent_event=ev.id,
                             label="isosceles(b=c)")
    joint = branch.points[len(halves[0][0].parameters) - 1]
    assert replace(joint, arclength=0.0) == start
    assert events == dedup_events(halves[0][1] + halves[1][1]) and len(events) == 3
    assert ended_at == {h.reached_event for h, _ in halves} - {None}


@pytest.mark.parametrize("error", [CorrectorFailure("no convergence"), DomainExit("left the domain")])
def test_a_switch_whose_every_correction_raises_exports_the_event_alone(monkeypatch, error):
    # the switch itself corrects nothing; each half's first step shrinks to
    # the minimum step and ends its trace at the start, the event point
    from cluster_bifurc import cli, continuation

    def raising(*args, **kwargs):
        raise error

    system, ev, direction = _primary_switch()
    monkeypatch.setattr(continuation, "newton_correct", raising)
    branch, events, ended_at = cli._switch_and_trace(system, ev, direction, ContinuationSettings(), (0.3, 0.9),
                                                     (ev,))
    assert branch.points == (classified_point(system, np.asarray(ev.state), ev.parameter),)
    assert events == [] and ended_at == set() and branch.parent_event == ev.id


def test_a_build_writes_its_branches_with_no_point_record_but_its_switch_starts(tmp_path, monkeypatch):
    # the Buckingham triangle at h_max=0.2 (the seed-0 buck-tri-coarse benchmark
    # input): each branch goes from the tracer to the files as columns, and a
    # BranchPoint is built only for a switch's start, the classified event point
    from cluster_bifurc import cli

    records, switches = [], []
    init, switch = BranchPoint.__init__, cli.branch_switch

    def counting_init(self, *args, **kwargs):
        records.append(args)
        init(self, *args, **kwargs)

    def counting_switch(*args, **kwargs):
        switches.append(args)
        return switch(*args, **kwargs)

    monkeypatch.setattr(BranchPoint, "__init__", counting_init)
    monkeypatch.setattr(cli, "branch_switch", counting_switch)
    cfg = write_config(tmp_path, {**LJ_STABILITY, "potential": {"family": "buckingham", "params": {
        "alpha": 1, "beta": 1, "gamma": 1, "eta": 4}}, "window": [1.0, 100.0], "continuation": {"h_max": 0.2}})
    assert main(["diagram", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert switches and len(records) == len(switches)


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
    ("triangle", PolynomialSpring(1.0886069965021672, -0.17674424531706434), (0.889, 2.845)),
    ("tetrahedron", PolynomialSpring(1, -0.1), (0.1, 50.0)),
], ids=["lennard-jones-triangle", "buckingham-triangle", "soft-spring-tetrahedron",
        "lennard-jones-tetrahedron", "soft-spring-triangle", "soft-spring-tetrahedron-wide"])
def test_stacked_trivial_branch_labels_equal_the_per_point_ones(problem, spec, window):
    system = make_system(problem, spec)
    events = [r.parameter for r in stability_boundaries(system.geometry, spec, window)]
    assert events
    branch = _trivial_branch(system, window, events)
    assert len(branch.points) == 400 + len(events)
    _assert_labels_and_arclengths_are_the_per_point_ones(system, branch)
    # every primary event is a marginal point (a sample may sit close enough to one to be marginal too)
    marginal = {pt.parameter for pt in branch.points if pt.stability == "marginal"}
    assert set(events) <= marginal


@pytest.mark.parametrize("problem, window", [("triangle", (0.1, 100.0)), ("tetrahedron", (0.1, 50.0))])
def test_trivial_branch_labels_of_a_hooke_spring_equal_the_per_point_ones(problem, window):
    # a Hooke spring's margins, 4k and 8k, never vanish: no event, every sample stable
    system = make_system(problem, PolynomialSpring(1, 0))
    assert stability_boundaries(system.geometry, system.spec, window) == []
    branch = _trivial_branch(system, window, [])
    assert len(branch.points) == 400
    _assert_labels_and_arclengths_are_the_per_point_ones(system, branch)
    assert {(pt.stability, pt.index) for pt in branch.points} == {("stable", 0)}


@pytest.mark.parametrize("problem, spec, window", [
    ("triangle", Buckingham(1, 1, 1, 4), (1.0, 100.0)),
    ("tetrahedron", PolynomialSpring(1, -0.1), (0.5, 4.0)),
])
def test_the_trivial_branch_takes_no_jacobian_and_no_eigensolve(monkeypatch, problem, spec, window):
    from cluster_bifurc import cluster

    calls = {"evaluate": 0, "classify_stack": 0, "householder_complement": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in calls:
        counting(cluster, name)
    counting(cluster.ClusterProblem, "evaluate")
    system = make_system(problem, spec)
    events = [r.parameter for r in stability_boundaries(system.geometry, spec, window)]
    branch = _trivial_branch(system, window, events)
    assert len(branch.points) == 400 + len(events) and events
    assert calls == {"evaluate": 0, "classify_stack": 0, "householder_complement": 0}


def _assert_labels_and_arclengths_are_the_per_point_ones(system, branch):
    s = 0.0
    points = branch.points  # built on each access: read once
    for i, pt in enumerate(points):
        want = classified_point(system, system.trivial_state(pt.parameter), pt.parameter)
        assert (pt.state, pt.parameter) == (want.state, want.parameter)
        assert (pt.stability, pt.shape, pt.index) == (want.stability, want.shape, want.index)
        if i:
            dz = pt.z() - points[i - 1].z()
            s += float(np.sqrt(dz @ dz))
        assert pt.arclength == s
