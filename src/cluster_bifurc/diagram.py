"""Bifurcation-diagram data model, serialization, and SVG rendering.

A Diagram bundles the traced branches and localized events of one run along
with the potential, the parameter window, the continuation settings and the
tool version, so a stored file identifies the computation that produced it.
JSON is the archival format (lossless round trip): it stores each record's
own fields, except that a point's `arclength` is stored as "s" and a
branch's `reached_event` is not stored.  CSV is the interchange format (one
row per branch point), and SVG the plot format: stable segments are drawn
in #008000, unstable ones in #c00000, with events marked.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from . import __version__
from .continuation import Branch, BranchPoint, BifurcationEvent, ContinuationSettings

__all__ = [
    "Diagram",
    "ParamVsComponent",
    "Abc3d",
    "export",
    "load_diagram",
    "render_svg",
    "check_projection",
    "STABLE_COLOR",
    "UNSTABLE_COLOR",
]

STABLE_COLOR = "#008000"
UNSTABLE_COLOR = "#c00000"

_COMPONENTS = {
    "triangle": ("lambda", "a", "b", "c"),
    "tetrahedron": ("lambda", "a", "b", "c", "A", "B", "C"),
}
_PARAM_LABEL = {"triangle": "A", "tetrahedron": "V"}


@dataclass
class Diagram:
    problem: str
    potential: dict
    window: tuple[float, float]
    settings: ContinuationSettings
    branches: list[Branch] = field(default_factory=list)
    events: list[BifurcationEvent] = field(default_factory=list)
    version: str = __version__

    def validate(self) -> None:
        ids = {br.id for br in self.branches}
        for ev in self.events:
            if ev.source_branch is not None and ev.source_branch not in ids:
                raise ValueError(f"event {ev.id} references missing branch {ev.source_branch}")
        for br in self.branches:
            s = [pt.arclength for pt in br.points]
            if any(b < a for a, b in zip(s, s[1:])):
                raise ValueError(f"branch {br.id} points are not sorted by arclength")


def _stored_point(pt: BranchPoint) -> dict:
    obj = dict(vars(pt))
    obj["s"] = obj.pop("arclength")
    return obj


def diagram_to_json(diagram: Diagram) -> str:
    obj = {
        **vars(diagram),
        "settings": vars(diagram.settings),
        "branches": [
            {"id": br.id, "parent_event": br.parent_event, "label": br.label,
             "points": [_stored_point(pt) for pt in br.points]}
            for br in diagram.branches
        ],
        "events": [vars(ev) for ev in diagram.events],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def diagram_from_json(text: str) -> Diagram:
    obj = json.loads(text)
    if any("index" not in pt for b in obj["branches"] for pt in b["points"]):
        raise ValueError(f"diagram version {obj.get('version')!r} stores no Morse index per point; "
                         f"version {__version__} reads only diagrams that do")
    for b in obj["branches"]:
        for pt in b["points"]:
            pt["arclength"] = pt.pop("s")
    return Diagram(**{
        **obj,
        "window": tuple(obj["window"]),
        "settings": ContinuationSettings(**obj["settings"]),
        "branches": [Branch(**{**b, "points": [BranchPoint(**{**pt, "state": tuple(pt["state"])})
                                               for pt in b["points"]]})
                     for b in obj["branches"]],
        "events": [BifurcationEvent(**{**e, "state": tuple(e["state"]),
                                       "kernel": tuple(map(tuple, e["kernel"]))})
                   for e in obj["events"]],
    })


def diagram_to_csv(diagram: Diagram) -> str:
    components = _COMPONENTS[diagram.problem]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["branch_id", "s", "parameter"] + list(components) + ["stable", "shape"])
    for br in diagram.branches:
        for pt in br.points:
            row = [br.id, f"{pt.arclength:.17g}", f"{pt.parameter:.17g}"]
            row += [f"{v:.17g}" for v in pt.state]
            row += ["1" if pt.stability == "stable" else "0", pt.shape]
            writer.writerow(row)
    return buf.getvalue()


def export(diagram: Diagram, format: str) -> bytes:
    """Serialize a diagram; `format` is "json" or "csv"."""
    if format == "json":
        return diagram_to_json(diagram).encode()
    if format == "csv":
        return diagram_to_csv(diagram).encode()
    raise ValueError(f"unknown export format {format!r}")


def load_diagram(data: bytes | str) -> Diagram:
    if isinstance(data, bytes):
        data = data.decode()
    return diagram_from_json(data)


@dataclass(frozen=True)
class ParamVsComponent:
    """Plot a named state component against the continuation parameter."""

    name: str


@dataclass(frozen=True)
class Abc3d:
    """Orthographic projection of the (a, b, c) edge space.

    The rotation is Ry(tilt) @ Rz(azimuth) applied before dropping the
    depth coordinate.  `trivial_axis_view` orients the symmetric diagonal
    (1, 1, 1) straight out of the page.
    """

    azimuth_deg: float = -60.0
    tilt_deg: float = 30.0

    @staticmethod
    def trivial_axis_view() -> "Abc3d":
        return Abc3d(azimuth_deg=-45.0, tilt_deg=math.degrees(math.atan(math.sqrt(2.0))))


def check_projection(problem: str, projection) -> None:
    """Raise ValueError unless `projection` can draw diagrams of `problem`."""
    if isinstance(projection, ParamVsComponent):
        if projection.name not in _COMPONENTS[problem]:
            raise ValueError(f"unknown component {projection.name!r} for {problem}")
    elif isinstance(projection, Abc3d):
        if problem != "triangle":
            raise ValueError("abc_3d projection applies to triangle diagrams")
    else:
        raise ValueError(f"unknown projection {projection!r}")


def _project_points(problem: str, projection, records) -> list[tuple[float, float]]:
    """Plot coordinates of records that have `.parameter` and `.state`: points or events."""
    if isinstance(projection, ParamVsComponent):
        idx = _COMPONENTS[problem].index(projection.name)
        return [(r.parameter, r.state[idx]) for r in records]
    az = math.radians(projection.azimuth_deg)
    tl = math.radians(projection.tilt_deg)
    ca, sa = math.cos(az), math.sin(az)
    ct, st = math.cos(tl), math.sin(tl)

    def proj(state):
        x, y, z = state[1], state[2], state[3]
        xr, yr = ca * x - sa * y, sa * x + ca * y
        return (ct * xr - st * z, yr)

    return [proj(r.state) for r in records]


def _segment_color(sa: str, sb: str) -> str:
    if (sa == "stable" and sb != "unstable") or (sb == "stable" and sa != "unstable"):
        return STABLE_COLOR
    return UNSTABLE_COLOR


def render_svg(diagram: Diagram, projection, width: int = 800, height: int = 600) -> str:
    """Render the diagram as standalone SVG text.

    One polyline per maximal same-color run of consecutive points, so the
    green/red partition changes exactly at the recorded stability changes;
    events are drawn as black circles.
    """
    check_projection(diagram.problem, projection)
    branch_coords = [_project_points(diagram.problem, projection, br.points) for br in diagram.branches]
    if not any(len(c) >= 1 for c in branch_coords):
        raise ValueError("diagram has no points to render for this projection")
    event_coords = _project_points(diagram.problem, projection, diagram.events)
    xs = [x for coords in branch_coords for (x, _) in coords] + [x for (x, _) in event_coords]
    ys = [y for coords in branch_coords for (_, y) in coords] + [y for (_, y) in event_coords]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = 0.05 * (x_hi - x_lo) or 1.0
    y_pad = 0.05 * (y_hi - y_lo) or 1.0
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    margin = 60.0

    def to_screen(x: float, y: float) -> tuple[float, float]:
        sx = margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)
        sy = height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)
        return sx, sy

    if isinstance(projection, ParamVsComponent):
        x_label = _PARAM_LABEL[diagram.problem]
        y_label = projection.name
    else:
        x_label, y_label = "u", "v"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15:.1f}" text-anchor="middle" '
        f'font-size="14">{x_label}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{y_label}</text>',
        f'<text x="{margin:.1f}" y="{height - margin + 18:.1f}" text-anchor="middle" '
        f'font-size="11">{x_lo:.4g}</text>',
        f'<text x="{width - margin:.1f}" y="{height - margin + 18:.1f}" text-anchor="middle" '
        f'font-size="11">{x_hi:.4g}</text>',
        f'<text x="{margin - 8:.1f}" y="{height - margin:.1f}" text-anchor="end" '
        f'font-size="11">{y_lo:.4g}</text>',
        f'<text x="{margin - 8:.1f}" y="{margin:.1f}" text-anchor="end" '
        f'font-size="11">{y_hi:.4g}</text>',
    ]
    for br, coords in zip(diagram.branches, branch_coords):
        if len(coords) < 2:
            continue
        run: list[tuple[float, float]] = [coords[0]]
        run_color = None
        for i in range(1, len(coords)):
            color = _segment_color(br.points[i - 1].stability, br.points[i].stability)
            if run_color is None or color == run_color:
                run_color = color
                run.append(coords[i])
            else:
                parts.append(_polyline(run, run_color, to_screen))
                run = [coords[i - 1], coords[i]]
                run_color = color
        if len(run) >= 2:
            parts.append(_polyline(run, run_color or UNSTABLE_COLOR, to_screen))
    for (x, y) in event_coords:
        sx, sy = to_screen(x, y)
        parts.append(f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="4" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def _polyline(coords: list[tuple[float, float]], color: str, to_screen) -> str:
    pts = " ".join(f"{sx:.2f},{sy:.2f}" for sx, sy in (to_screen(x, y) for x, y in coords))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
