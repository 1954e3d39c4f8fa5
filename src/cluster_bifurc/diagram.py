"""Bifurcation-diagram data model, serialization, and SVG rendering.

A Diagram bundles the traced branches and localized events of one run along
with the potential, the parameter window, the continuation settings and the
tool version, so a stored file identifies the computation that produced it.
JSON is the archival format (lossless round trip): it stores each branch's
columns, `id`, `parent_event` and `label` (not its `reached_event`) and
each event's fields.  CSV is the interchange format (one row per branch
point), and SVG the plot format: stable segments are drawn in #008000,
unstable ones in #c00000, with events marked; all three read the columns.

The bytes are fixed: diagram.json is `json.dumps` with sorted keys and no
spaces, and diagram.csv has a header and then rows of `%.17g` floats,
"1"/"0" for stable and the shape, quoted as csv's QUOTE_MINIMAL quotes it,
each row ended by "\\n".  The two writers format each distinct float of the
branch columns once and build the rows from those shared texts, since orbit
images and symmetric states repeat most values.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .continuation import Branch, BifurcationEvent, ContinuationSettings

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
_FLOAT_COLUMNS = ("states", "parameters", "arclengths")
_PLAIN_COLUMNS = ("index", "stability", "shape")  # written as json.dumps writes them
_COLUMNS = _FLOAT_COLUMNS + _PLAIN_COLUMNS


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
            if np.any(np.diff(br.arclengths) < 0):
                raise ValueError(f"branch {br.id} points are not sorted by arclength")


def load_diagram(data: bytes | str) -> Diagram:
    obj = json.loads(data)
    setting_names = sorted(f.name for f in fields(ContinuationSettings))
    if sorted(obj["settings"]) != setting_names or any(set(_COLUMNS) - b.keys() for b in obj["branches"]):
        raise ValueError(f"diagram version {obj.get('version')!r} stores another layout; version "
                         f"{__version__} reads only branches as the columns {_COLUMNS} and the "
                         f"settings {setting_names}")
    return Diagram(**{
        **obj,
        "window": tuple(obj["window"]),
        "settings": ContinuationSettings(**obj["settings"]),
        "branches": [Branch(**{**b, **{k: np.array(b[k], dtype=float) for k in _FLOAT_COLUMNS},
                               "index": np.array(b["index"], dtype=int)}) for b in obj["branches"]],
        "events": [BifurcationEvent(**{**e, "state": tuple(e["state"]),
                                       "kernel": tuple(map(tuple, e["kernel"]))})
                   for e in obj["events"]],
    })


def _branch_texts(branches: list[Branch], format_values) -> list[tuple[list[str], list[str], list[str]]]:
    """Each branch's arclengths and parameters as texts, and its states as one
    text per row with the values joined by commas.  `format_values` maps a list
    of floats to their texts and sees each distinct value once.  Values are
    told apart by their bits, so -0.0 and 0.0 keep their own texts."""
    if not branches:
        return []
    values = np.concatenate([np.ravel(c) for br in branches for c in (br.arclengths, br.parameters, br.states)],
                            dtype=float)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array(format_values(bits.view(float).tolist()), dtype=object)[inverse].tolist()
    out, start = [], 0
    for br in branches:
        n = len(br.parameters)
        width = np.size(br.states) // n if n else 0
        states = iter(texts[start + 2 * n:start + (2 + width) * n])
        out.append((texts[start:start + n], texts[start + n:start + 2 * n],
                    list(map(",".join, zip(*[states] * width)))))  # each row: the next `width` texts
        start += (2 + width) * n
    return out


def _json_floats(values: list[float]) -> list[str]:
    # the encoder's own float texts, NaN and Infinity included
    return json.dumps(values)[1:-1].split(", ") if values else []


def _csv_floats(values: list[float]) -> list[str]:
    return [f"{v:.17g}" for v in values]


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _json_branch(br: Branch, arclengths: list[str], parameters: list[str], states: list[str]) -> str:
    items = {"id": _json(br.id), "parent_event": _json(br.parent_event), "label": _json(br.label),
             "index": _json(br.index.tolist()), "stability": _json(list(br.stability)),
             "shape": _json(list(br.shape)),
             "arclengths": f"[{','.join(arclengths)}]", "parameters": f"[{','.join(parameters)}]",
             "states": "[" + ",".join(f"[{row}]" for row in states) + "]"}
    return "{" + ",".join(f'"{key}":{text}' for key, text in sorted(items.items())) + "}"


def _csv_field(text: str) -> str:
    """`text` as a field of a csv row ended by a newline, quoted as QUOTE_MINIMAL quotes it."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\n') else text


def diagram_to_csv(diagram: Diagram) -> str:
    lines = [",".join(["branch_id", "s", "parameter", *_COMPONENTS[diagram.problem], "stable", "shape"])]
    shapes = {shape: _csv_field(shape) for br in diagram.branches for shape in set(br.shape)}
    for br, (arclengths, parameters, states) in zip(diagram.branches, _branch_texts(diagram.branches, _csv_floats)):
        lines += map(",".join, zip(itertools.repeat("" if br.id is None else str(br.id)), arclengths, parameters,
                                   states, ("1" if st == "stable" else "0" for st in br.stability),
                                   map(shapes.__getitem__, br.shape)))
    return "\n".join(lines) + "\n"


def export(diagram: Diagram, format: str) -> bytes:
    """Serialize a diagram; `format` is "json" or "csv"."""
    if format == "json":
        branches = [_json_branch(br, *texts)
                    for br, texts in zip(diagram.branches, _branch_texts(diagram.branches, _json_floats))]
        rest = {**vars(diagram), "settings": vars(diagram.settings), "events": [vars(ev) for ev in diagram.events]}
        del rest["branches"]
        # "branches" sorts first among a diagram's keys, so its text opens the object
        return ('{"branches":[' + ",".join(branches) + "]," + _json(rest)[1:]).encode()
    if format == "csv":
        return diagram_to_csv(diagram).encode()
    raise ValueError(f"unknown export format {format!r}")


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


def _project_points(problem: str, projection, parameters, states) -> list[tuple[float, float]]:
    """Plot coordinates of points given by their parameters and states: a branch's rows or events."""
    if isinstance(projection, ParamVsComponent):
        idx = _COMPONENTS[problem].index(projection.name)
        return [(p, x[idx]) for p, x in zip(parameters, states)]
    az = math.radians(projection.azimuth_deg)
    tl = math.radians(projection.tilt_deg)
    ca, sa = math.cos(az), math.sin(az)
    ct, st = math.cos(tl), math.sin(tl)

    def proj(state):
        x, y, z = state[1], state[2], state[3]
        xr, yr = ca * x - sa * y, sa * x + ca * y
        return (ct * xr - st * z, yr)

    return [proj(x) for x in states]


def _segment_color(sa: str, sb: str) -> str:
    if (sa == "stable" and sb != "unstable") or (sb == "stable" and sa != "unstable"):
        return STABLE_COLOR
    return UNSTABLE_COLOR


def render_svg(diagram: Diagram, projection) -> str:
    """Render the diagram as standalone 800 x 600 SVG text.

    One polyline per maximal same-color run of consecutive points, so the
    green/red partition changes exactly at the recorded stability changes;
    events are drawn as black circles.
    """
    check_projection(diagram.problem, projection)
    branch_coords = [_project_points(diagram.problem, projection, br.parameters.tolist(), br.states.tolist())
                     for br in diagram.branches]
    if not any(len(c) >= 1 for c in branch_coords):
        raise ValueError("diagram has no points to render for this projection")
    event_coords = _project_points(diagram.problem, projection, [ev.parameter for ev in diagram.events],
                                   [ev.state for ev in diagram.events])
    xs = [x for coords in branch_coords for (x, _) in coords] + [x for (x, _) in event_coords]
    ys = [y for coords in branch_coords for (_, y) in coords] + [y for (_, y) in event_coords]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = 0.05 * (x_hi - x_lo) or 1.0
    y_pad = 0.05 * (y_hi - y_lo) or 1.0
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    width, height, margin = 800, 600, 60.0

    def to_screen(x: float, y: float) -> tuple[float, float]:
        sx = margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)
        sy = height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)
        return sx, sy

    x_label, y_label = ((_PARAM_LABEL[diagram.problem], projection.name)
                        if isinstance(projection, ParamVsComponent) else ("u", "v"))

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
        # a run of segments of one color is one polyline through its end points
        start = 0
        for color, run in itertools.groupby(map(_segment_color, br.stability[:-1], br.stability[1:])):
            end = start + len(list(run))
            parts.append(_polyline(coords[start:end + 1], color, to_screen))
            start = end
    for (x, y) in event_coords:
        sx, sy = to_screen(x, y)
        parts.append(f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="4" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def _polyline(coords: list[tuple[float, float]], color: str, to_screen) -> str:
    pts = " ".join(f"{sx:.2f},{sy:.2f}" for sx, sy in (to_screen(x, y) for x, y in coords))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
