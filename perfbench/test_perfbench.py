"""Tests of the benchmark's own machinery (tracer, statistics, checks, failure count).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import statistics
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import stats
import tracing
import worker
import workloads
from cluster_bifurc.diagram import load_diagram

ROOT = Path(__file__).resolve().parent.parent


def _span(layer, parent, t0, t1, thread=1):
    sp = tracing.Span(layer, parent, 0, thread)
    sp.t0, sp.t1 = t0, t1
    return sp


def test_self_time_subtracts_union_of_overlapping_children():
    root = _span("build", None, 0.0, 10.0)
    build = _span("cli.build_diagram", root, 1.0, 9.0)
    a = _span("continuation.trace_branch", build, 2.0, 6.0, thread=2)
    b = _span("continuation.trace_branch", build, 3.0, 8.0, thread=3)
    leaf = _span("linalg.solve", a, 2.5, 3.5, thread=2)
    spans = [root, build, a, b, leaf]
    selfs, overlap = tracing.self_times(spans)
    assert selfs[id(build)] == pytest.approx(8.0 - 6.0)  # union [2, 8], not 4 + 5
    assert [selfs[id(s)] for s in (root, a, b, leaf)] == pytest.approx([2.0, 3.0, 5.0, 1.0])
    assert overlap == pytest.approx(3.0)
    assert sum(selfs.values()) - overlap == pytest.approx(root.dur)
    assert tracing.nesting_errors(spans) == 0
    assert tracing.nesting_errors(spans + [_span("linalg.solve", a, 5.0, 7.0)]) == 1
    assert tracing.thread_excess(spans, selfs) == pytest.approx(0.0)
    # a sibling of b on b's thread, overlapping it: nested correctly, but the
    # thread would run two calls at once
    clash = spans + [_span("continuation.trace_branch", build, 7.5, 8.5, thread=3)]
    assert tracing.nesting_errors(clash) == 0
    assert tracing.thread_excess(clash, tracing.self_times(clash)[0]) == pytest.approx(0.5)


def test_union_length_clips_to_the_parent():
    assert tracing.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.5, 6.0) == pytest.approx(3.5)
    assert tracing.union_length([], 0.0, 1.0) == 0.0


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 2.0, 9.0, 3.0, 4.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert stats.summary([1.0, 2.0, 3.0]) == {"median": 2.0, "q1": 1.0, "q3": 3.0, "n": 3}
    assert stats.spread([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5 / 2.5)
    records = [{"round": 1, "t": 4.0}, {"round": 0, "t": 1.0}, {"round": 0, "t": 2.0}, {"round": 1, "t": 6.0}]
    assert stats.round_means(records, "t") == [1.5, 5.0]


def test_seed_zero_is_the_fixture_and_other_seeds_jitter_the_window():
    assert workloads.make_config("lj-tri-fine", 0)["window"] == [0.3, 0.9]
    a, b = workloads.make_config("lj-tri-fine", 1), workloads.make_config("lj-tri-fine", 1)
    assert a == b
    assert a["window"] != [0.3, 0.9]
    assert all(abs(v / w - 1.0) <= workloads.JITTER for v, w in zip(a["window"], [0.3, 0.9]))
    assert workloads.make_configs("lj-tri-fine", 1) == [a]
    fixture = workloads.make_config("buck-tri-coarse", 0)
    assert workloads.make_configs("buck-tri-coarse", 0) == [fixture] * workloads.INPUTS["buck-tri-coarse"]
    inputs = workloads.make_configs("buck-tri-coarse", 1)
    assert len({tuple(cfg["window"]) for cfg in inputs}) == len(inputs) > 1


@pytest.fixture(scope="module")
def traced_buck(tmp_path_factory):
    """One traced build of the buck-tri-coarse workload through the CLI."""
    tmp = tmp_path_factory.mktemp("buck")
    config = tmp / "config.json"
    config.write_text(json.dumps(workloads.make_config("buck-tri-coarse", 0)))
    tracer = tracing.Tracer()
    record = worker.run_build(str(config), tmp / "build0", tracer, 0)
    return tracer, record


def test_traced_build_reconciles_and_parents_pool_spans(traced_buck):
    tracer, record = traced_buck
    assert record["rc"] == 0 and record["error"] is None
    problems, totals = worker.reconcile(tracer, [record])
    assert problems == []
    assert totals["trace.self_sum_s"] - totals["trace.overlap_s"] == pytest.approx(record["wall_s"], abs=2e-3)
    main_thread = threading.get_ident()
    traces = [sp for sp in tracer.spans if sp.layer == "continuation.trace_branch"]
    assert traces and all(sp.parent.layer == "cli.build_diagram" for sp in traces)
    assert any(sp.thread != main_thread for sp in traces)  # ran on the pool
    layers = tracing.layer_metrics(tracer.spans + tracer.roots, 1)
    assert list(layers) + list(tracing.TRACE_TOTALS) == tracing.metric_names()
    assert layers["cli.build_diagram.calls"] == 1
    assert layers["linalg.solve.n5.calls"] > 0
    # bindings are restored once the build ends
    from cluster_bifurc import cli, continuation, linalg
    assert continuation.solve is linalg.solve and not hasattr(cli.trace_branch, "__wrapped__")


def test_checker_accepts_the_build_and_rejects_a_shifted_primary(traced_buck):
    _, record = traced_buck
    diagram = load_diagram((Path(record["out"]) / "diagram.json").read_bytes())
    assert checks.check_diagram("buck-tri-coarse", diagram) == []
    first = min((ev for ev in diagram.events if ev.kind == "primary"), key=lambda ev: ev.parameter)
    diagram.events[diagram.events.index(first)] = replace(first, parameter=first.parameter + 0.05)
    assert any("primary" in e for e in checks.check_diagram("buck-tri-coarse", diagram))


def test_checker_rejects_a_missing_orbit_branch(traced_buck):
    _, record = traced_buck
    diagram = load_diagram((Path(record["out"]) / "diagram.json").read_bytes())
    primary = min((ev for ev in diagram.events if ev.kind == "primary"), key=lambda ev: ev.parameter)
    victim = next(br for br in diagram.branches if br.parent_event == primary.id)
    diagram.branches.remove(victim)
    assert checks.missing_orbit_images(diagram) > 0
    assert any("symmetry group" in e for e in checks.check_diagram("buck-tri-coarse", diagram))


def test_raising_and_non_identical_builds_count_as_failed(traced_buck, tmp_path, monkeypatch):
    _, good = traced_buck
    changed = tmp_path / "changed"
    shutil.copytree(good["out"], changed)
    (changed / "diagram.csv").write_bytes((changed / "diagram.csv").read_bytes() + b"\n")

    def boom(argv):
        raise RuntimeError("injected")

    monkeypatch.setattr(worker.cli, "main", boom)
    raised = worker.run_build("unused.json", tmp_path / "raised")
    assert raised["error"] == "RuntimeError: injected"

    records = [good, raised, dict(good, out=str(changed)), good]
    failures, counts = worker.judge("buck-tri-coarse", records)
    assert len(failures) == 2
    assert "RuntimeError" in failures[0] and "diagram.csv" in failures[1]
    assert counts["diagram.branches"] >= 7
    # each input is compared with its own first build
    failures, _ = worker.judge("buck-tri-coarse", [dict(good, input=0), dict(good, out=str(changed), input=1)])
    assert failures == []


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = tracing.metric_names() + ["diagram.branches", "diagram.events", "diagram.points"]
    assert [m["name"] for m in bench["per_layer"]] == names
    assert len(names) <= 128
    assert [m["unit"] for m in bench["per_layer"]] == [tracing.unit_of(n) for n in names]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS) == set(checks.CHECKS)
