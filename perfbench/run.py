"""Diagram-build benchmark of cluster_bifurc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is used from `src/` as it
stands.  With --trace 0 the run measures the end-to-end metrics: set-up
time (median over fresh interpreters importing `cluster_bifurc.cli`), then
the diagram builds of one fresh worker process (see worker.py), in rounds
over the workload's inputs (see workloads.py).  Build times are the mean
build time of a round, as measured, median over the run's rounds; set-up
time is reported in reference-host seconds (see hostspeed.py).  With
--trace 1 it reports per-layer numbers from a traced worker instead.

Every metric is printed by name with its unit, sample count and quartiles;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full record of the run
goes to perfbench/out/<workload>-seed<N>-trace<T>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import stats
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
# A run must end within 180 s; the worker is stopped past this deadline.
DEADLINE_S = 170.0
# Time the import, then probe the host speed right after it in the same process.
IMPORT_SNIPPET = ("import sys, time; t0 = time.perf_counter(); import cluster_bifurc.cli; "
                  "t = time.perf_counter() - t0; sys.path.insert(0, sys.argv[1]); import hostspeed; "
                  "print(t, hostspeed.idle_unit())")


def child_env() -> dict[str, str]:
    """The environment of every process the run starts: the program's
    defaults, so a stray CLUSTER_BIFURC_THREADS in the shell is dropped."""
    env = dict(os.environ)
    env.pop("CLUSTER_BIFURC_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(env: dict[str, str], deadline: float) -> list[tuple[float, float]]:
    """(import time, probe unit time) of `cluster_bifurc.cli` in fresh
    interpreters, after one untimed import that leaves the bytecode cache warm."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(BENCH_DIR)], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if i:
            seconds, unit = proc.stdout.split()
            samples.append((float(seconds), float(unit)))
    return samples


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def metric_line(name: str, unit: str, values: list[float]) -> str:
    s = stats.summary(values)
    return (f"{name:44s} {s['median']:14.6f} {unit:6s} n={s['n']:<3d} "
            f"q1={s['q1']:.6f} q3={s['q3']:.6f}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="cluster_bifurc diagram-build benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "cluster_bifurc" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'cluster_bifurc'}; run from a full checkout",
              file=sys.stderr)
        return 2
    out = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    configs = workloads.make_configs(args.workload, args.seed)
    paths = [out / f"config{i}.json" for i in range(len(configs))]
    for path, cfg in zip(paths, configs):
        path.write_text(json.dumps(cfg, indent=2) + "\n")
    env = child_env()

    setup = [] if args.trace else measure_setup(env, deadline)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
             "--config", *map(str, paths), "--out", str(out), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"error: the worker did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: the worker exited with code {proc.returncode}", file=sys.stderr)
        return 3
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    records = run["records"]
    attempted, failed = len(records), len(run["failures"])
    problems = run.get("trace_problems", [])

    env_record = dict(run["env"], commit=git_commit(), seed=args.seed,
                      shell_cluster_bifurc_threads=os.environ.get("CLUSTER_BIFURC_THREADS"))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  windows "
          f"{[cfg['window'] for cfg in configs]}")
    print("environment " + json.dumps(env_record, sort_keys=True))
    for msg in run["failures"] + problems:
        print(f"FAILED: {msg}")
    print(f"builds attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.6f}")
    for key, value in sorted(run["counts"].items()):
        print(f"{key:44s} {value:14.2f} count  (from the output, mean over inputs, deterministic per seed)")

    if args.trace:
        layers = dict(run["layers"], **run["counts"])
        metrics = {name: {"value": value, "unit": tracing.unit_of(name)} for name, value in layers.items()}
        for name, m in metrics.items():
            print(f"{name:44s} {m['value']:14.6f} {m['unit']}")
    else:
        raw_setup = [s for s, _ in setup]
        probe = statistics.median(u for _, u in setup)
        samples = {
            "diagram_s": (stats.round_means(records, "wall_s"), "s"),
            "diagram_cpu_s": (stats.round_means(records, "cpu_s"), "s"),
            "setup_s": ([hostspeed.scale(s, probe) for s in raw_setup], "s"),
            "peak_rss_mb": ([run["peak_rss_mb"]], "MiB"),
        }
        for name, (values, unit) in samples.items():
            print(metric_line(name, unit, values))
        print(metric_line("setup_s as measured (unscaled)", "s", raw_setup))
        print(metric_line("host probe unit (set-up processes)", "s", [u for _, u in setup]))
        metrics = {name: {"value": stats.summary(values)["median"], "unit": unit}
                   for name, (values, unit) in samples.items()}
        run["raw_medians"] = {"setup_s": stats.summary(raw_setup)["median"]}

    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (out / "result.json").write_text(json.dumps(
        {**run, "result": result, "env": env_record, "setup_samples": setup}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
