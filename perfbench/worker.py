"""One benchmark run's builds, in a fresh process.

Runs `cluster_bifurc.cli.main(["diagram", ...])` in-process, as a library
user would, in rounds until the measuring time is used up, then checks
every build's output and prints one JSON object as the last line of
standard output.  A round builds each config once, in the order given;
every record carries its round and input index.  With --trace 1 rounds
alternate between untraced and traced, and the result carries per-layer
numbers from the traced builds instead.

    python3 perfbench/worker.py --workload NAME --config CFG [CFG ...] \
        --out DIR --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import stats
import tracing
from cluster_bifurc import cli
from cluster_bifurc.diagram import load_diagram

OUTPUT_FILES = ("diagram.json", "diagram.csv", "diagram.svg")
MIN_ROUNDS = 3
# Stop starting builds past this much build time, whatever --seconds says,
# so that a run ends well within its time limit.
MAX_BUILD_SECONDS = 120.0
# Traced-build reconciliation tolerance: absolute seconds plus share of wall.
RECONCILE_ABS_S = 1e-3
RECONCILE_REL = 1e-3


def _cpu_seconds() -> float:
    """CPU time of this process, all threads, plus that of waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_build(config: str, out_dir: Path, tracer: tracing.Tracer | None = None,
              build: int = 0) -> dict:
    """Time one CLI diagram build; a build that raises is recorded, not re-raised."""
    record = {"out": str(out_dir), "rc": None, "error": None, "traced": tracer is not None}
    if tracer is not None:
        tracer.install()
    try:
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_build(build)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                record["rc"] = cli.main(["diagram", "--config", config, "--out", str(out_dir)])
        except Exception as exc:  # the run goes on; the build counts as failed
            record["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.end_build()
            record["wall_s"] = time.perf_counter() - t0
            record["cpu_s"] = _cpu_seconds() - c0
    finally:
        if tracer is not None:
            tracer.restore()
    return record


def judge(workload: str, records: list[dict]) -> tuple[list[str], dict[str, float]]:
    """Check every build's output; returns failure messages and the diagram
    counts, each a mean over the run's inputs.

    A build fails if it raised, returned a nonzero exit code, lacks an
    output file, fails an output check, or wrote files that are not
    byte-identical to those of the run's first build with output of the
    same input.
    """
    failures: list[str] = []
    references: dict[int, dict[str, bytes]] = {}
    per_input: dict[int, dict[str, int]] = {}
    for i, rec in enumerate(records):
        if rec["error"] is not None or rec["rc"] != 0:
            failures.append(f"build {i}: exit code {rec['rc']}, error {rec['error']}")
            continue
        out = Path(rec["out"])
        try:
            outputs = {name: (out / name).read_bytes() for name in OUTPUT_FILES}
            json.loads((out / "run_meta.json").read_text())
        except (OSError, ValueError) as exc:
            failures.append(f"build {i}: unreadable output ({exc})")
            continue
        key = rec.get("input", 0)
        reference = references.setdefault(key, outputs)
        if outputs != reference:
            differ = [name for name in OUTPUT_FILES if outputs[name] != reference[name]]
            failures.append(f"build {i}: {', '.join(differ)} not byte-identical to the first build")
            continue
        diagram = load_diagram(outputs["diagram.json"])
        errors = checks.check_diagram(workload, diagram)
        if errors:
            failures.append(f"build {i}: " + "; ".join(errors))
            continue
        per_input[key] = checks.diagram_counts(diagram)
    counts = {name: statistics.fmean(c[name] for c in per_input.values())
              for name in next(iter(per_input.values()), {})}
    return failures, counts


def reconcile(tracer: tracing.Tracer, records: list[dict]) -> tuple[list[str], dict[str, float]]:
    """Per traced build: sum(self) - overlap must equal the wall time measured
    outside the tracer, every span must lie inside its parent, and no thread's
    self time may exceed its busy time (see tracing.thread_excess)."""
    problems: list[str] = []
    sums = {"trace.wall_s": 0.0, "trace.self_sum_s": 0.0, "trace.overlap_s": 0.0}
    for root in tracer.roots:
        spans = [sp for sp in tracer.spans if sp.build == root.build] + [root]
        selfs, overlap = tracing.self_times(spans)
        self_sum = sum(selfs.values())
        wall = records[root.build]["wall_s"]
        err = self_sum - overlap - wall
        if abs(err) > RECONCILE_ABS_S + RECONCILE_REL * wall:
            problems.append(f"build {root.build}: sum(self) {self_sum:.6f} - overlap {overlap:.6f} "
                            f"differs from wall {wall:.6f} by {err:.2e} s")
        excess = tracing.thread_excess(spans, selfs)
        if excess > RECONCILE_ABS_S:
            problems.append(f"build {root.build}: a thread's self time exceeds its busy time by {excess:.2e} s")
        nesting = tracing.nesting_errors(spans)
        if nesting:
            problems.append(f"build {root.build}: {nesting} spans outside their parent")
        sums["trace.wall_s"] += wall
        sums["trace.self_sum_s"] += self_sum
        sums["trace.overlap_s"] += overlap
    orphans = sum(1 for sp in tracer.spans if sp.parent is None)
    if orphans:
        problems.append(f"{orphans} spans recorded outside any build")
    builds = max(1, len(tracer.roots))
    return problems, {k: v / builds for k, v in sums.items()}


def write_spans(tracer: tracing.Tracer, path: Path) -> None:
    ids = {id(sp): i for i, sp in enumerate(tracer.roots + tracer.spans)}
    with path.open("w") as fh:
        fh.write("id\tparent\tbuild\tthread\tlayer\tt0\tt1\tthread_cpu\tnote\terror\n")
        for sp in tracer.roots + tracer.spans:
            parent = ids[id(sp.parent)] if sp.parent is not None else -1
            fh.write(f"{ids[id(sp)]}\t{parent}\t{sp.build}\t{sp.thread}\t{sp.layer}\t{sp.t0!r}\t"
                     f"{sp.t1!r}\t{sp.cpu!r}\t{sp.note}\t{sp.error}\n")


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k) for k in (
            "CLUSTER_BIFURC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(checks.CHECKS))
    ap.add_argument("--config", required=True, nargs="+")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = Path(args.out)
    tracer = tracing.Tracer() if args.trace else None

    records: list[dict] = []
    measured = 0.0
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        for index, config in enumerate(args.config):
            i = len(records)
            rec = run_build(config, out / f"build{i}", tracer if traced else None, i)
            rec.update(round=rounds, input=index)
            records.append(rec)
            measured += rec["wall_s"]
        rounds += 1
        next_round = len(args.config) * statistics.median(stats.round_means(records, "wall_s"))
        if rounds >= MIN_ROUNDS and (measured + next_round > args.seconds
                                     or measured > MAX_BUILD_SECONDS):
            break
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    failures, counts = judge(args.workload, records)

    result = {"records": records, "failures": failures, "counts": counts,
              "peak_rss_mb": usage / 1024.0, "env": environment()}
    if tracer is not None:
        plain = stats.round_means([r for r in records if not r["traced"]], "wall_s")
        traced_walls = stats.round_means([r for r in records if r["traced"]], "wall_s")
        problems, totals = reconcile(tracer, records)
        result["trace_problems"] = problems
        layers = tracing.layer_metrics(tracer.spans + tracer.roots, len(tracer.roots))
        layers.update(totals)
        layers["trace_overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain) - 1.0
        result["layers"] = layers
        write_spans(tracer, out / "spans.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
