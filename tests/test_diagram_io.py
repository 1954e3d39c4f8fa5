import json
import xml.etree.ElementTree as ET
from dataclasses import replace

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
from cluster_bifurc.potentials import LennardJones


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
    iso = Branch(points=[
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
        branches=[Branch(points=pts, id=0, label="trivial"), iso],
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
        branches.append(Branch(points=pts, id=bid, label=f"b{bid}"))
    return Diagram(problem="triangle", potential={"family": "spring", "params": {"k": 1.0, "beta": 0.0}},
                   window=(0.1, 2.5), settings=ContinuationSettings(h0=5e-3), branches=branches,
                   events=[])


def test_json_round_trip_exact():
    d = small_diagram()
    blob = export(d, "json")
    back = load_diagram(blob)
    assert back == d


# The stored format: sorted keys, no spaces, each record's own fields with a
# point's arclength under "s", and floats as Python's repr writes them.
SMALL_DIAGRAM_JSON = (
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
    b'"settings":{"contraction_target":4,"detection":true,"h0":0.01,"h_max":0.5,"h_min":1e-06,'
    b'"max_points":5000,"newton_max_iters":20,"newton_tol":1e-10,"step_growth":1.5,'
    b'"step_shrink":0.5},'
    b'"version":"0.2.0","window":[0.4,0.55]}'
)


def test_json_bytes_are_pinned():
    assert export(replace(small_diagram(), version="0.2.0"), "json") == SMALL_DIAGRAM_JSON


def test_json_round_trip_of_a_built_diagram_with_events():
    d = build_diagram("triangle", LennardJones(1, 2, 12, 6), (0.3, 0.9), ContinuationSettings(h_max=0.05))
    assert d.events
    assert load_diagram(export(d, "json")) == d


def test_json_round_trip_randomized():
    for seed in range(12):
        d = random_diagram(seed)
        assert load_diagram(export(d, "json")) == d


def test_morse_index_is_exported_and_compared():
    d = small_diagram()
    obj = json.loads(export(d, "json"))
    assert [pt["index"] for pt in obj["branches"][0]["points"]] == [0, 0, 2, 2]
    other = small_diagram()
    pt = other.branches[1].points[1]
    other.branches[1].points[1] = replace(pt, index=pt.index + 1)
    assert load_diagram(export(other, "json")) != d


def test_load_rejects_a_file_without_the_index_and_names_its_version():
    obj = json.loads(export(small_diagram(), "json"))
    obj["version"] = "0.1.0"
    for br in obj["branches"]:
        for pt in br["points"]:
            pt["det_sign"] = 1
            del pt["index"]
    with pytest.raises(ValueError, match="0.1.0"):
        load_diagram(json.dumps(obj))


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
                branches=[Branch(points=[point((-0.25, 1, 1, 1, 1, 1, 1.0), 0.2, 0.0,
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
