import csv
import io
import json
import xml.etree.ElementTree as ET
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from cluster_bifurc.cli import build_diagram
from cluster_bifurc.continuation import BifurcationEvent, Branch, BranchPoint, ContinuationSettings
from cluster_bifurc.diagram import (
    Abc3d,
    Diagram,
    ParamVsComponent,
    STABLE_COLOR,
    UNSTABLE_COLOR,
    export,
    load_diagram,
    render_svg,
)
from cluster_bifurc.potentials import Buckingham, LennardJones, PolynomialSpring


def point(state, p, s, stability="stable", shape="equilateral", index=0):
    return BranchPoint(state=tuple(state), parameter=p, arclength=s,
                       stability=stability, shape=shape, index=index)


def small_diagram():
    pts = [
        point((-1.0, 1.0, 1.0, 1.0), 0.40, 0.0),
        point((-1.1, 1.05, 1.05, 1.05), 0.45, 0.1),
        point((-1.2, 1.10, 1.10, 1.10), 0.50, 0.2, stability="unstable", index=2),
        point((-1.3, 1.15, 1.15, 1.15), 0.55, 0.3, stability="unstable", index=2),
    ]
    ev = BifurcationEvent(kind="primary", parameter=0.45, kernel_dim=2,
                          kernel=((0.0, -1.0, 1.0, 0.0), (0.0, -1.0, 0.0, 1.0)),
                          state=(-1.1, 1.05, 1.05, 1.05), source_branch=0, refined=True, id=0)
    iso = Branch.from_points([
        point((-1.1, 1.2, 1.0, 1.0), 0.45, 0.0, shape="isosceles(b=c)"),
        point((-1.15, 1.25, 0.98, 0.98), 0.47, 0.1, shape="isosceles(b=c)", stability="unstable",
              index=1),
    ], id=1, parent_event=0, label="isosceles(b=c)")
    return Diagram(
        problem="triangle",
        potential={"family": "lennard_jones",
                   "params": {"c1": 1.0, "c2": 2.0, "delta1": 12.0, "delta2": 6.0}},
        window=(0.4, 0.55),
        settings=ContinuationSettings(),
        branches=[Branch.from_points(pts, id=0, label="trivial"), iso],
        events=[ev],
    )


def random_diagram(seed):
    rng = np.random.default_rng(seed)
    branches = []
    for bid in range(rng.integers(1, 4)):
        pts = []
        s = 0.0
        for k in range(rng.integers(1, 6)):
            s += float(rng.uniform(0.01, 0.2))
            pts.append(point(tuple(rng.uniform(0.5, 2.0, 4)), float(rng.uniform(0.2, 2.0)), s,
                             stability=("stable", "unstable", "marginal")[rng.integers(0, 3)],
                             shape="scalene", index=int(rng.integers(0, 3))))
        branches.append(Branch.from_points(pts, id=bid, label=f"b{bid}"))
    return Diagram(problem="triangle", potential={"family": "spring", "params": {"k": 1.0, "beta": 0.0}},
                   window=(0.1, 2.5), settings=ContinuationSettings(h_max=5e-3), branches=branches,
                   events=[])


def test_json_round_trip_exact():
    d = small_diagram()
    blob = export(d, "json")
    back = load_diagram(blob)
    assert back == d


# The stored format: sorted keys, no spaces, each branch as its columns and
# each event as its own fields, and floats as Python's repr writes them.
SMALL_DIAGRAM_JSON = (
    b'{"branches":['
    b'{"arclengths":[0.0,0.1,0.2,0.3],"id":0,"index":[0,0,2,2],"label":"trivial",'
    b'"parameters":[0.4,0.45,0.5,0.55],"parent_event":null,'
    b'"shape":["equilateral","equilateral","equilateral","equilateral"],'
    b'"stability":["stable","stable","unstable","unstable"],'
    b'"states":[[-1.0,1.0,1.0,1.0],[-1.1,1.05,1.05,1.05],[-1.2,1.1,1.1,1.1],[-1.3,1.15,1.15,1.15]]},'
    b'{"arclengths":[0.0,0.1],"id":1,"index":[0,1],"label":"isosceles(b=c)",'
    b'"parameters":[0.45,0.47],"parent_event":0,'
    b'"shape":["isosceles(b=c)","isosceles(b=c)"],"stability":["stable","unstable"],'
    b'"states":[[-1.1,1.2,1.0,1.0],[-1.15,1.25,0.98,0.98]]}],'
    b'"events":[{"id":0,"kernel":[[0.0,-1.0,1.0,0.0],[0.0,-1.0,0.0,1.0]],"kernel_dim":2,'
    b'"kind":"primary","parameter":0.45,"refined":true,"source_branch":0,'
    b'"state":[-1.1,1.05,1.05,1.05]}],'
    b'"potential":{"family":"lennard_jones","params":{"c1":1.0,"c2":2.0,"delta1":12.0,"delta2":6.0}},'
    b'"problem":"triangle",'
    b'"settings":{"h_max":0.5,"max_points":5000},'
    b'"version":"0.4.0","window":[0.4,0.55]}'
)

# The same diagram as version 0.3.0 stored it: a list of point records per
# branch, each point's arclength under "s".
POINT_LIST_JSON = (
    b'{"branches":[{"id":0,"label":"trivial","parent_event":null,"points":['
    b'{"index":0,"parameter":0.4,"s":0.0,"shape":"equilateral","stability":"stable",'
    b'"state":[-1.0,1.0,1.0,1.0]},'
    b'{"index":0,"parameter":0.45,"s":0.1,"shape":"equilateral","stability":"stable",'
    b'"state":[-1.1,1.05,1.05,1.05]},'
    b'{"index":2,"parameter":0.5,"s":0.2,"shape":"equilateral","stability":"unstable",'
    b'"state":[-1.2,1.1,1.1,1.1]},'
    b'{"index":2,"parameter":0.55,"s":0.3,"shape":"equilateral","stability":"unstable",'
    b'"state":[-1.3,1.15,1.15,1.15]}]},'
    b'{"id":1,"label":"isosceles(b=c)","parent_event":0,"points":['
    b'{"index":0,"parameter":0.45,"s":0.0,"shape":"isosceles(b=c)","stability":"stable",'
    b'"state":[-1.1,1.2,1.0,1.0]},'
    b'{"index":1,"parameter":0.47,"s":0.1,"shape":"isosceles(b=c)","stability":"unstable",'
    b'"state":[-1.15,1.25,0.98,0.98]}]}],'
    b'"events":[{"id":0,"kernel":[[0.0,-1.0,1.0,0.0],[0.0,-1.0,0.0,1.0]],"kernel_dim":2,'
    b'"kind":"primary","parameter":0.45,"refined":true,"source_branch":0,'
    b'"state":[-1.1,1.05,1.05,1.05]}],'
    b'"potential":{"family":"lennard_jones","params":{"c1":1.0,"c2":2.0,"delta1":12.0,"delta2":6.0}},'
    b'"problem":"triangle",'
    b'"settings":{"h_max":0.5,"max_points":5000},'
    b'"version":"0.3.0","window":[0.4,0.55]}'
)


def test_json_bytes_are_pinned():
    assert export(replace(small_diagram(), version="0.4.0"), "json") == SMALL_DIAGRAM_JSON


# One row per point: floats as "%.17g" writes them, "1" for a stable point.
SMALL_DIAGRAM_CSV = (
    b"branch_id,s,parameter,lambda,a,b,c,stable,shape\n"
    b"0,0,0.40000000000000002,-1,1,1,1,1,equilateral\n"
    b"0,0.10000000000000001,0.45000000000000001,-1.1000000000000001,1.05,1.05,1.05,1,equilateral\n"
    b"0,0.20000000000000001,0.5,-1.2,1.1000000000000001,1.1000000000000001,1.1000000000000001,0,equilateral\n"
    b"0,0.29999999999999999,0.55000000000000004,-1.3,1.1499999999999999,1.1499999999999999,1.1499999999999999,0,"
    b"equilateral\n"
    b"1,0,0.45000000000000001,-1.1000000000000001,1.2,1,1,1,isosceles(b=c)\n"
    b"1,0.10000000000000001,0.46999999999999997,-1.1499999999999999,1.25,0.97999999999999998,0.97999999999999998,0,"
    b"isosceles(b=c)\n"
)


def test_csv_bytes_are_pinned():
    assert export(small_diagram(), "csv") == SMALL_DIAGRAM_CSV


# the four fixture builds, the three benchmark workloads among them: (problem, potential, window, settings)
FIXTURES = {
    "lennard-jones-triangle": ("triangle", LennardJones(1, 2, 12, 6), (0.3, 0.9),
                               ContinuationSettings(h_max=0.01)),
    "buckingham-triangle": ("triangle", Buckingham(1, 1, 1, 4), (1.0, 100.0), ContinuationSettings(h_max=0.2)),
    "soft-spring-tetrahedron": ("tetrahedron", PolynomialSpring(1, -0.1), (0.5, 4.0),
                                ContinuationSettings(h_max=0.05, max_points=400)),
    "lennard-jones-tetrahedron": ("tetrahedron", LennardJones(1, 2, 12, 6), (0.05, 0.5), ContinuationSettings()),
}


@cache
def built(name):
    return build_diagram(*FIXTURES[name])


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_json_round_trip_of_each_fixture(name):
    d = built(name)
    blob = export(d, "json")
    back = load_diagram(blob)
    assert d.events and back == d and export(back, "json") == blob


# The writers as they formatted every float of every row afresh, kept as the
# reference for the bytes of the writers that format each distinct value once.
REFERENCE_COMPONENTS = {
    "triangle": ("lambda", "a", "b", "c"),
    "tetrahedron": ("lambda", "a", "b", "c", "A", "B", "C"),
}
REFERENCE_COLUMNS = ("states", "parameters", "arclengths", "index", "stability", "shape")


def reference_json(diagram):
    branches = [{"id": br.id, "parent_event": br.parent_event, "label": br.label,
                 **{name: np.asarray(getattr(br, name)).tolist() for name in REFERENCE_COLUMNS}}
                for br in diagram.branches]
    obj = {**vars(diagram), "settings": vars(diagram.settings), "branches": branches,
           "events": [vars(ev) for ev in diagram.events]}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def reference_csv(diagram):
    components = REFERENCE_COMPONENTS[diagram.problem]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["branch_id", "s", "parameter"] + list(components) + ["stable", "shape"])
    for br in diagram.branches:
        for s, p, x, stability, shape in zip(br.arclengths.tolist(), br.parameters.tolist(), br.states.tolist(),
                                             br.stability, br.shape):
            writer.writerow([br.id, f"{s:.17g}", f"{p:.17g}", *(f"{v:.17g}" for v in x),
                             "1" if stability == "stable" else "0", shape])
    return buf.getvalue().encode()


def edge_diagram():
    """Values one text per value could mix up: 0.0 and -0.0 (equal, but printed
    apart) in one column in both orders and across two branches, NaN and inf;
    a one-point branch with no id, a branch with no point; shape labels that
    csv quotes."""
    first = Branch(np.array([[-1.0, 0.0, -0.0, 1.0], [-1.0, -0.0, 0.0, 1.0]]), np.array([0.0, -0.0]),
                   np.array([0.0, 0.5]), np.array([0, 1]), ["stable", "unstable"], ['a,b', 'say "c"'],
                   id=0, label="first")
    second = Branch(np.array([[-0.0, 0.0, np.nan, np.inf]]), np.array([-0.0]), np.array([0.0]), np.array([2]),
                    ["marginal"], ["two\nlines"], label='x,"y"')
    return Diagram(problem="triangle", potential={"family": "spring", "params": {"k": 1.0, "beta": 0.0}},
                   window=(-0.0, 1.0), settings=ContinuationSettings(), events=[],
                   branches=[first, second, Branch(np.empty((0, 4)), np.empty(0), np.empty(0), np.empty(0, dtype=int),
                                                   [], [], id=2)])


def no_branch_diagram():
    return Diagram(problem="tetrahedron", potential={"family": "spring", "params": {"k": 1.0}},
                   window=(0.1, 1.0), settings=ContinuationSettings(), branches=[], events=[])


WRITER_CASES = {**{f"fixture-{name}": (lambda name=name: built(name)) for name in sorted(FIXTURES)},
                **{f"random-{seed}": (lambda seed=seed: random_diagram(seed)) for seed in range(12)},
                "edge": edge_diagram, "no-branches": no_branch_diagram}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_the_writers_give_the_reference_bytes(case):
    d = WRITER_CASES[case]()
    assert export(d, "json") == reference_json(d)
    assert export(d, "csv") == reference_csv(d)


def test_json_round_trip_randomized():
    for seed in range(12):
        d = random_diagram(seed)
        assert load_diagram(export(d, "json")) == d


def test_morse_index_is_exported_and_compared():
    d = small_diagram()
    obj = json.loads(export(d, "json"))
    assert obj["branches"][0]["index"] == [0, 0, 2, 2]
    other = small_diagram()
    other.branches[1].index[1] += 1
    assert load_diagram(export(other, "json")) != d


TEN_SETTINGS_OF_0_2_0 = {"contraction_target": 4, "detection": True, "h0": 0.01, "h_max": 0.5, "h_min": 1e-06,
                        "max_points": 5000, "newton_max_iters": 20, "newton_tol": 1e-10, "step_growth": 1.5,
                        "step_shrink": 0.5}


def _older_file(version: str, base: bytes) -> bytes:
    """The small diagram as `version` stored it, from `base`: 0.3.0 a list of
    point records per branch, 0.2.0 also its ten settings, and 0.1.0 a
    determinant sign in place of each point's index.  From the columnar
    SMALL_DIAGRAM_JSON only the version and the settings are older, so the
    settings alone must refuse it."""
    obj = json.loads(base)
    obj["version"] = version
    if version == "0.2.0":
        obj["settings"] = TEN_SETTINGS_OF_0_2_0
    if version == "0.1.0":
        for br in obj["branches"]:
            for pt in br["points"]:
                pt["det_sign"] = 1
                del pt["index"]
    return json.dumps(obj).encode()


@pytest.mark.parametrize("version, base", [("0.1.0", POINT_LIST_JSON), ("0.2.0", POINT_LIST_JSON),
                                           ("0.2.0", SMALL_DIAGRAM_JSON), ("0.3.0", POINT_LIST_JSON)],
                         ids=["0.1.0", "0.2.0", "0.2.0-settings-only", "0.3.0"])
def test_load_rejects_an_older_layout_and_names_its_version(version, base):
    with pytest.raises(ValueError, match=version.replace(".", r"\.")):
        load_diagram(_older_file(version, base))


def test_load_rejects_columns_of_different_lengths():
    # the CSV writer would silently drop the rows past the shortest column
    obj = json.loads(SMALL_DIAGRAM_JSON)
    obj["branches"][0]["parameters"].pop()
    with pytest.raises(ValueError, match="all of one length"):
        load_diagram(json.dumps(obj))


def test_a_branch_refuses_columns_of_different_lengths():
    br = small_diagram().branches[0]
    with pytest.raises(ValueError, match="all of one length"):
        Branch(br.states, br.parameters, br.arclengths, br.index, br.stability, br.shape[:-1])


def test_export_deterministic_bytes():
    d = small_diagram()
    assert export(d, "json") == export(d, "json")
    assert export(d, "csv") == export(d, "csv")


def test_empty_diagram_is_valid_json():
    d = Diagram(problem="triangle", potential={"family": "spring", "params": {"k": 1.0}},
                window=(0.1, 1.0), settings=ContinuationSettings(), branches=[], events=[])
    back = load_diagram(export(d, "json"))
    assert back.branches == []


def test_csv_layout():
    d = small_diagram()
    text = export(d, "csv").decode()
    lines = text.strip().split("\n")
    assert lines[0] == "branch_id,s,parameter,lambda,a,b,c,stable,shape"
    assert len(lines) == 1 + sum(len(br.points) for br in d.branches)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[-1] == "equilateral"
    assert first[-2] == "1"
    # 17 significant digits survive a float round trip
    assert float(first[2]) == d.branches[0].points[0].parameter


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        export(small_diagram(), "xml")


def test_tetra_csv_header():
    d = Diagram(problem="tetrahedron",
                potential={"family": "spring", "params": {"k": 1.0, "beta": 0.0}},
                window=(0.1, 1.0), settings=ContinuationSettings(),
                branches=[Branch.from_points([point((-0.25, 1, 1, 1, 1, 1, 1.0), 0.2, 0.0,
                                               shape="regular")], id=0)],
                events=[])
    text = export(d, "csv").decode()
    assert text.splitlines()[0] == "branch_id,s,parameter,lambda,a,b,c,A,B,C,stable,shape"


def test_svg_well_formed_and_colored():
    d = small_diagram()
    svg = render_svg(d, ParamVsComponent("a"))
    root = ET.fromstring(svg)  # raises on malformed XML
    assert root.tag.endswith("svg")
    assert STABLE_COLOR in svg and UNSTABLE_COLOR in svg
    # the color changes exactly at the stability flip: two polylines for the
    # trivial branch plus one for the short isosceles branch
    polys = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polys) == 3
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == len(d.events)


def test_svg_color_partition_at_event():
    d = small_diagram()
    svg = render_svg(d, ParamVsComponent("a"))
    root = ET.fromstring(svg)
    polys = [el for el in root.iter() if el.tag.endswith("polyline")]
    trivial_colors = [p.get("stroke") for p in polys][:2]
    assert trivial_colors == [STABLE_COLOR, UNSTABLE_COLOR]


def test_svg_projections():
    d = small_diagram()
    svg = render_svg(d, Abc3d.trivial_axis_view())
    ET.fromstring(svg)
    with pytest.raises(ValueError):
        render_svg(d, ParamVsComponent("radius"))
    tet = Diagram(problem="tetrahedron", potential=d.potential, window=d.window,
                  settings=d.settings, branches=[], events=[])
    with pytest.raises(ValueError):
        render_svg(tet, Abc3d())
    with pytest.raises(ValueError):
        render_svg(tet, ParamVsComponent("a"))  # no points at all


def test_trivial_axis_view_kills_symmetric_direction():
    # the projection of the symmetric diagonal must collapse to a point
    d = small_diagram()
    proj = Abc3d.trivial_axis_view()
    svg = render_svg(d, proj)
    root = ET.fromstring(svg)
    polys = [el for el in root.iter() if el.tag.endswith("polyline")]
    pts = polys[0].get("points").split()
    xs = {p.split(",")[0] for p in pts}
    ys = {p.split(",")[1] for p in pts}
    # all four trivial states project to (nearly) the same screen point
    assert len(xs) <= 2 and len(ys) <= 2


def test_validate_checks_references():
    d = small_diagram()
    d.events[0] = BifurcationEvent(kind="primary", parameter=0.45, kernel_dim=2,
                                   kernel=(), state=(), source_branch=77, refined=True, id=0)
    with pytest.raises(ValueError):
        d.validate()
