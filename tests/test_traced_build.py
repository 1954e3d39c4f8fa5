"""Lennard-Jones triangle and soft-spring tetrahedron builds under the span tracer.

`perfbench/tracing.py` rebinds the package's public functions to wrappers
that read their arguments and results, so a traced build depends on the
call shapes they expect (`newton_correct(...)[1]`, `branch_switch(...)[0]`,
`trace_branch(...)[0]`, the matrix as the first argument of
`linalg.solve`/`sym_eigen`, calls made through module globals).  The
triangle build takes the switch at a secondary bifurcation and ends its
scalene traces on a crossing, which the Buckingham build of
`perfbench/test_perfbench.py` does not reach.  The tetrahedron build
switches at pitchforks and at transcritical points; each switch is followed
by the traces of its two halves, both started at the event.
"""

import json
import math
from pathlib import Path

import pytest

from cluster_bifurc.diagram import load_diagram

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

LJ_TRIANGLE = {
    "problem": "triangle",
    "potential": {"family": "lennard_jones", "params": {"c1": 1, "c2": 2, "delta1": 12, "delta2": 6}},
    "window": [0.3, 0.9],
    "continuation": {"h_max": 0.2},
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import worker
    return tracing, worker


def test_a_traced_lennard_jones_build_reconciles_and_writes_the_untraced_bytes(tmp_path, perfbench):
    tracing, worker = perfbench
    config = tmp_path / "config.json"
    config.write_text(json.dumps(LJ_TRIANGLE))
    tracer = tracing.Tracer()
    traced = worker.run_build(str(config), tmp_path / "traced", tracer, 0)
    assert traced["rc"] == 0 and traced["error"] is None
    problems, _ = worker.reconcile(tracer, [traced])
    assert problems == []
    plain = worker.run_build(str(config), tmp_path / "plain", None, 1)
    failures, counts = worker.judge("lj-tri-fine", [traced, plain])
    assert failures == []  # both pass the workload's checks, with identical bytes

    diagram = load_diagram((tmp_path / "traced" / "diagram.json").read_bytes())
    kinds = {ev.id: ev.kind for ev in diagram.events}
    secondaries = [ev.parameter for ev in diagram.events if ev.kind == "secondary"]
    switched = [br for br in diagram.branches if kinds.get(br.parent_event) == "secondary"]
    assert switched and counts["diagram.branches"] == len(diagram.branches)
    for br in switched:  # each half ended on the other secondary, where it crossed Fix(S')
        assert all(min(abs(pt.parameter - p) for p in secondaries) < 1e-9
                   for pt in (br.points[0], br.points[-1]))
    layers = tracing.layer_metrics(tracer.spans + tracer.roots, 1)
    assert layers["continuation.branch_switch.calls"] >= 2
    assert layers["continuation.detect_and_localize.events"] >= 1


def test_a_traced_soft_spring_tetrahedron_build_reconciles_and_passes_its_checks(tmp_path, perfbench):
    tracing, worker = perfbench
    import workloads
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.make_config("spring-tet", 0)))
    tracer = tracing.Tracer()
    traced = worker.run_build(str(config), tmp_path / "traced", tracer, 0)
    assert traced["rc"] == 0 and traced["error"] is None
    problems, _ = worker.reconcile(tracer, [traced])
    assert problems == []
    plain = worker.run_build(str(config), tmp_path / "plain", None, 1)
    failures, _ = worker.judge("spring-tet", [traced, plain])
    assert failures == []  # both pass the workload's checks, with identical bytes
    layers = tracing.layer_metrics(tracer.spans + tracer.roots, 1)
    # the switch's two tangents count as its seeds
    assert layers["continuation.branch_switch.seeds"] == 2 * layers["continuation.branch_switch.calls"] >= 8
    # each switch is followed by two traces, its halves, before the next switch
    switches = sorted(sp.t0 for sp in tracer.spans if sp.layer == "continuation.branch_switch")
    traces = [sp.t0 for sp in tracer.spans if sp.layer == "continuation.trace_branch"]
    assert [sum(a < t < b for t in traces) for a, b in zip(switches, switches[1:] + [math.inf])] == \
        [2] * len(switches)
