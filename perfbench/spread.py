"""Repeat the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py [--workloads NAME ...] [--seeds 1-10]
                                [--save A.json] [--against B.json]

Runs `perfbench/run.py --trace 0` once per workload and seed, one run at a
time (all workloads by default), and prints for every end-to-end metric the
median, quartiles, sample count and spread (interquartile distance over
median) of the per-run values, next to the metric's bound from
BENCHMARK.json, and for setup_s the spread of the same times unscaled (see
hostspeed.py).  Each run measures for run_seconds of BENCHMARK.json.  A run
whose output checks fail is listed.  --save writes the summary; --against
compares the medians with a summary saved from another commit (refused if
it was measured with another run length) and marks a metric REGRESSED when
it is worse by more than its bound.  The exit code is 1 if any run was
incorrect or regressed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_seeds(workload: str, seeds: list[int], seconds: float, names: list[str]) -> dict:
    values: dict[str, list[float]] = {n: [] for n in names}
    raw: dict[str, list[float]] = {}
    incorrect = []
    for seed in seeds:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            incorrect.append(seed)
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            incorrect.append(seed)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        saved = json.loads((BENCH_DIR / "out" / f"{workload}-seed{seed}-trace0" / "result.json").read_text())
        for name, value in saved["raw_medians"].items():
            raw.setdefault(name, []).append(value)
        print(f"{workload} seed {seed}: " + "  ".join(f"{n}={v[-1]:.4f}" for n, v in values.items())
              + f"  ({time.monotonic() - started:.1f} s)", flush=True)
    return {"incorrect_seeds": incorrect,
            "metrics": {n: dict(stats.summary(v), spread=stats.spread(v), values=v)
                        for n, v in values.items() if v},
            "unscaled": {n: dict(stats.summary(v), spread=stats.spread(v), values=v)
                         for n, v in raw.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    ap.add_argument("--save", help="write the summary to this JSON file")
    ap.add_argument("--against", help="summary JSON of another commit to compare with")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [m["name"] for m in bench["end_to_end"]]
    other = {}
    if args.against:
        saved = json.loads(Path(args.against).read_text())
        if saved["seconds"] != seconds:
            print(f"error: {args.against} was measured with {saved['seconds']} s runs, "
                  f"BENCHMARK.json sets {seconds} s", file=sys.stderr)
            return 2
        other = saved["workloads"]

    summary = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    failed = False
    for workload in args.workloads:
        ws = summary["workloads"][workload] = run_seeds(workload, parse_seeds(args.seeds), seconds, names)
        failed |= bool(ws["incorrect_seeds"])
        print(f"== {workload}: incorrect seeds {ws['incorrect_seeds'] or 'none'}")
        for m in bench["end_to_end"]:
            s = ws["metrics"].get(m["name"])
            if s is None:
                continue
            line = (f"{m['name']:14s} median {s['median']:.6f} {m['unit']:4s} q1 {s['q1']:.6f} "
                    f"q3 {s['q3']:.6f} n {s['n']} spread {s['spread']:.4f} (bound {m['bound']})")
            if m["name"] in ws["unscaled"]:
                line += f" unscaled spread {ws['unscaled'][m['name']]['spread']:.4f}"
            base = other.get(workload, {}).get("metrics", {}).get(m["name"])
            if base is not None:
                change = (s["median"] - base["median"]) / base["median"]
                worse = change if m["better"] == "lower" else -change
                failed |= worse > m["bound"]
                line += (f"  vs {base['median']:.6f}: {change:+.2%} "
                         f"{'REGRESSED' if worse > m['bound'] else 'ok'}")
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
