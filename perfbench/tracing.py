"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the cluster_bifurc modules from
outside.  Modules import each other's functions with `from .x import f`, so
one function has a binding in every importing module; `Tracer.install`
replaces each binding that refers to a traced function and `restore` puts
the originals back.  Wrappers pass arguments, results and exceptions through
unchanged.

Every call becomes a span (layer, start, end, parent, build id, thread id,
thread CPU time).  Spans stay in memory; `layer_metrics` turns them into
per-layer numbers when the run ends.  Branch traces run on the program's
thread pool: a span opened on a worker thread with nothing open on its own
thread is parented to the innermost span open on the build's main thread
(`cli.build_diagram`, itself a child of the build's root span).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "cluster_bifurc"

# Metric layer name -> (module, attribute) pairs it covers.  The triangle and
# tetrahedron kernels share one `cluster.*` name: a workload runs one of the
# two, and the names stay valid when the two modules are merged.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.build_diagram": (("cli", "build_diagram"),),
    "continuation.trace_branch": (("continuation", "trace_branch"),),
    "continuation.newton_correct": (("continuation", "newton_correct"),),
    "continuation.branch_tangent": (("continuation", "branch_tangent"),),
    "continuation.detect_and_localize": (("continuation", "detect_and_localize"),),
    "continuation.branch_switch": (("continuation", "branch_switch"),),
    "continuation.is_isolated": (("continuation", "is_isolated"),),
    "linalg.solve": (("linalg", "solve"),),
    "linalg.det_sign": (("linalg", "det_sign"),),
    "linalg.sym_eigen": (("linalg", "sym_eigen"),),
    "cluster.residual": (("triangle", "residual3"), ("tetrahedron", "residual4")),
    "cluster.jacobian": (("triangle", "jacobian3"), ("tetrahedron", "jacobian4")),
    "cluster.classify_point": (("triangle", "classify_point3"), ("tetrahedron", "classify_point4")),
    "cluster.stability_boundaries": (("triangle", "stability_boundaries3"),
                                     ("tetrahedron", "stability_boundaries4")),
    "potentials.derivatives": (("potentials", "derivatives"),),
    "symmetry.orbit": (("symmetry", "orbit"),),
    "diagram.export": (("diagram", "export"),),
    "diagram.render_svg": (("diagram", "render_svg"),),
}

STATS = ("calls", "s", "self_s", "wait_s", "us_per_call")

# Linalg layers are also broken down by matrix size n (calls and us_per_call
# per size).  These are the sizes the workloads use: 2/4/5 on triangles,
# 5/7/8 on tetrahedra.  Sizes with a handful of calls per build are left out.
LINALG_SIZES: dict[str, tuple[int, ...]] = {
    "linalg.solve": (5, 8),
    "linalg.det_sign": (4, 5, 7, 8),
    "linalg.sym_eigen": (2, 4, 5, 7),
}
SIZE_STATS = ("calls", "us_per_call")

# Counts taken from the spans' notes and exceptions.
COUNTS = (
    "continuation.trace_branch.points",
    "continuation.trace_branch.aborts",
    "continuation.newton_correct.iters",
    "continuation.newton_correct.failures",
    "continuation.newton_correct.accept_ratio",
    "continuation.detect_and_localize.events",
    "continuation.branch_switch.failures",
    "continuation.branch_switch.seeds",
    "symmetry.orbit.images",
)
# Whole-build totals of the traced builds, filled in by the worker.
TRACE_TOTALS = ("trace.wall_s", "trace.self_sum_s", "trace.overlap_s", "trace_overhead_frac")


# Layer -> function(args, result) giving the number kept in `Span.note` of a
# call that returned.  Linalg spans note their matrix size instead, whatever
# the outcome.
NOTES = {
    "continuation.trace_branch": lambda args, result: len(result[0].points),
    "continuation.newton_correct": lambda args, result: result[1],
    "continuation.detect_and_localize": lambda args, result: int(result is not None),
    "continuation.branch_switch": lambda args, result: len(result[0]),
    "symmetry.orbit": lambda args, result: len(result),
}


class Span:
    __slots__ = ("layer", "parent", "build", "thread", "t0", "t1", "cpu", "note", "error")

    def __init__(self, layer: str, parent: Span | None, build: int, thread: int):
        self.layer = layer
        self.parent = parent
        self.build = build
        self.thread = thread
        self.t0 = self.t1 = self.cpu = 0.0
        self.note = None
        self.error = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Collects spans for builds run between `begin_build` and `end_build`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self._local = threading.local()
        self._root: Span | None = None
        self._main_stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        note = NOTES.get(layer)
        sized = layer in LINALG_SIZES
        spans = self.spans
        perf, thread_time = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else self._root
            span = Span(layer, parent, parent.build if parent else -1, threading.get_ident())
            if sized:
                span.note = len(args[0])
            stack.append(span)
            c0 = thread_time()
            span.t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.t1 = perf()
                span.cpu = thread_time() - c0
                stack.pop()
                spans.append(span)
            if note is not None:
                span.note = note(args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded module of the package."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, name, original))
                            setattr(mod, name, wrapper)

    def restore(self) -> None:
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()

    def begin_build(self, build: int) -> None:
        stack = self._stack()
        root = Span("build", None, build, threading.get_ident())
        self._root, self._main_stack = root, stack
        stack.append(root)
        root.cpu = time.thread_time()
        root.t0 = time.perf_counter()

    def end_build(self) -> Span:
        root = self._root
        root.t1 = time.perf_counter()
        root.cpu = time.thread_time() - root.cpu
        self._stack().pop()
        self.roots.append(root)
        self._root, self._main_stack = None, []
        return root


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> tuple[dict[int, float], float]:
    """Self time of each span (by id) and the total sibling overlap.

    Self time is a span's duration minus the union of its children's
    intervals.  Sibling traces on pool threads overlap, so the durations of
    a span's children can add up to more than their union; that excess,
    summed over all parents, is the overlap.  Over one build's tree,
    sum(self) - overlap equals the root's duration.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[id(sp.parent)].append(sp)
    selfs: dict[int, float] = {}
    overlap = 0.0
    for sp in spans:
        kids = children.get(id(sp), ())
        covered = union_length(((k.t0, k.t1) for k in kids), sp.t0, sp.t1)
        selfs[id(sp)] = sp.dur - covered
        overlap += sum(min(k.t1, sp.t1) - max(k.t0, sp.t0) for k in kids) - covered
    return selfs, overlap


def thread_excess(spans: list[Span], selfs: dict[int, float]) -> float:
    """Largest amount by which one thread's summed self time exceeds the time
    that thread had any span open.

    A thread runs one call at a time, so the self intervals of its spans are
    disjoint and inside its busy time, and the excess is at most 0.  It is
    positive when spans of one thread overlap without nesting or carry the
    wrong thread, which the identity sum(self) - overlap = root duration
    cannot show: that holds for any tree whose spans lie inside their parents.
    """
    by_thread: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        by_thread[sp.thread].append(sp)
    return max(sum(selfs[id(sp)] for sp in group) - union_length((sp.t0, sp.t1) for sp in group)
               for group in by_thread.values())


def nesting_errors(spans: list[Span], tol: float = 1e-6) -> int:
    """Spans that are not inside their parent's interval or belong to another build."""
    bad = 0
    for sp in spans:
        p = sp.parent
        if p is None:
            continue
        if sp.t0 < p.t0 - tol or sp.t1 > p.t1 + tol or sp.build != p.build:
            bad += 1
    return bad


def metric_names() -> list[str]:
    """Every name `layer_metrics` reports, in order."""
    names = [f"{layer}.{stat}" for layer in LAYERS for stat in STATS]
    names += [f"{layer}.n{n}.{stat}" for layer, sizes in LINALG_SIZES.items()
              for n in sizes for stat in SIZE_STATS]
    return names + list(COUNTS) + list(TRACE_TOTALS)


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "us_per_call":
        return "us"
    if last in ("accept_ratio", "trace_overhead_frac"):
        return "ratio"
    if last == "s" or last.endswith("_s"):
        return "s"
    return "count"


def layer_metrics(spans: list[Span], builds: int) -> dict[str, float]:
    """Per-layer numbers; totals are means per traced build."""
    selfs, _ = self_times(spans)
    # key -> [calls, wall, self, wait]
    acc: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    notes: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    returned: dict[str, int] = defaultdict(int)
    for sp in spans:
        for key in (sp.layer, f"{sp.layer}.n{sp.note}") if sp.layer in LINALG_SIZES else (sp.layer,):
            a = acc[key]
            a[0] += 1
            a[1] += sp.dur
            a[2] += selfs[id(sp)]
            a[3] += sp.dur - sp.cpu
        if sp.error is not None:
            errors[sp.layer] += 1
        else:
            returned[sp.layer] += 1
            if sp.layer in NOTES:
                notes[sp.layer] += sp.note

    out: dict[str, float] = {}
    for name in metric_names():
        if name in COUNTS or name in TRACE_TOTALS:
            continue
        key, stat = name.rsplit(".", 1)
        calls, wall, self_s, wait = acc.get(key, (0, 0.0, 0.0, 0.0))
        out[name] = {"calls": calls / builds, "s": wall / builds, "self_s": self_s / builds,
                     "wait_s": wait / builds,
                     "us_per_call": 1e6 * wall / calls if calls else 0.0}[stat]
    newton = "continuation.newton_correct"
    out.update({
        "continuation.trace_branch.points": notes["continuation.trace_branch"] / builds,
        "continuation.trace_branch.aborts": errors["continuation.trace_branch"] / builds,
        f"{newton}.iters": notes[newton] / builds,
        f"{newton}.failures": errors[newton] / builds,
        f"{newton}.accept_ratio": returned[newton] / acc[newton][0] if acc[newton][0] else 0.0,
        "continuation.detect_and_localize.events": notes["continuation.detect_and_localize"] / builds,
        "continuation.branch_switch.failures": errors["continuation.branch_switch"] / builds,
        "continuation.branch_switch.seeds": notes["continuation.branch_switch"] / builds,
        "symmetry.orbit.images": notes["symmetry.orbit"] / builds,
    })
    return out
