"""Run the benchmark over several seeds and save one BENCH_<label>.json point.

    python3 perfbench/trajectory.py --label NAME

For every workload, runs run.py once per seed 1..RUNS with --trace 0, and
once per seed 1..TRACE_RUNS with --trace 1, each as its own process, one at
a time, as BENCHMARK.json's command.  For each metric it reports the median,
quartiles and sample count over the runs, and for the end-to-end metrics
the spread (q3 - q1) / median beside the metric's bound.  The point goes to
perfbench/results/BENCH_<label>.json.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import subprocess
import sys

import run
import workloads

RUNS = 10
TRACE_RUNS = 3
OUT = os.path.join(run.HERE, "results")


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def details(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(run.WORK, "results", f"{workload}-seed{seed}-trace{trace}.json.gz")
    with gzip.open(path, "rt") as handle:
        return json.load(handle)


def describe(values: list[float]) -> dict:
    stats = run.quartiles(values)
    stats["spread"] = (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {"label": args.label, "run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for name in workloads.WORKLOADS:
        lines = [bench_once(name, s, bench["run_seconds"], 0) for s in range(1, RUNS + 1)]
        traced = [bench_once(name, s, bench["run_seconds"], 1) for s in range(1, TRACE_RUNS + 1)]
        entry = {
            "seeds": list(range(1, RUNS + 1)),
            "attempted": sum(line["attempted"] for line in lines + traced),
            "failed": sum(line["failed"] for line in lines + traced),
            "end_to_end": {},
            "per_layer": {},
        }
        for metric, bound in bounds.items():
            stats = describe([line["metrics"][metric]["value"] for line in lines])
            stats["bound"] = bound
            entry["end_to_end"][metric] = stats
            ok = stats["spread"] < bound / 3
            steady = steady and ok
            print(f"{name:10s} {metric:12s} median {stats['median']:10.4f} "
                  f"spread {stats['spread']:.4f} bound {bound} {'ok' if ok else 'WIDE'}")
        # Every per-layer metric of the workload, from the runs' saved
        # details: the result line holds only those all workloads share.
        runs = [details(name, s, 1)["stats"] for s in range(1, TRACE_RUNS + 1)]
        for metric in runs[0]:
            entry["per_layer"][metric] = run.quartiles([stats[metric]["median"] for stats in runs])
        point["workloads"][name] = entry
    point["machine"] = details(name, 1, 0)["machine"]
    path = os.path.join(OUT, f"BENCH_{args.label}.json")
    with open(path, "w") as handle:
        json.dump(point, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}; every spread below a third of its bound: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
