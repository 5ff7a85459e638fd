"""Benchmark of the affine-mixer CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  NAME is one of the workloads in
workloads.py, or `all` to run each in turn.  The seed draws the inputs;
it defaults to the workload's recorded seed, whose outputs are also
compared against reference.json.

Each repetition runs the workload's CLI tasks one at a time, each in a
fresh interpreter (child.py), so every task pays its own imports and
lru_cache table builds as a CLI user does.  Repetitions continue until
--seconds have passed.  With --trace 0 the last line of standard output is
a JSON object with the end-to-end metrics (medians over repetitions):

  task_s       seconds of the workload's tasks, from after the import of
               affine_mixer.cli to the return of cli.main, summed, at the
               reference CPU speed: each task's wall time is scaled by
               PROBE_REF_S over the median time of child.probe_loop run
               just before and just after the task (to the power of the
               workload's workloads.PROBE_WEIGHT), which cancels the
               slowdown other tenants of a shared machine cause
  task_cpu_s   user + sys CPU seconds of the task processes (os.wait4),
               scaled the same way
  setup_s      seconds to import affine_mixer and numpy in a fresh
               interpreter, median over every interpreter of the run,
               scaled by the probe's loop timed around the import
  peak_rss_mb  largest max-RSS among the workload's task processes

The unscaled wall and CPU seconds are in the summary as wall_s and
wall_cpu_s.

With --trace 1 repetitions alternate between untraced and traced runs of
the same tasks, and the metrics are the per-layer numbers of spans.py,
rescaled like task_s, plus trace.overhead_ratio, the traced over the
untraced task_s.  The result line holds those every workload has
(spans.RESULT); the summary holds all of them.  Every output is
checked (checks.py); a task that exits nonzero or fails a check counts as
failed.  A human-readable summary, with quartiles, sample counts,
failed_task_ratio and the machine block, goes to standard error and, with
the spans of one traced repetition, to perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4
CHILD_TIMEOUT_S = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Time of child.probe_loop on an uncontended Intel Xeon core (the
# machine of results/BENCH_seed.json); scaled times read as seconds there.
PROBE_REF_S = 380e-6


def machine() -> dict:
    """CPU count and model, cache sizes, Python version (numpy's comes
    from the task processes)."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "threads_per_task": 1,
    }
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_dir)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(cache_dir, entry, "level")) as handle:
                level = handle.read().strip()
            with open(os.path.join(cache_dir, entry, "size")) as handle:
                size = handle.read().strip()
            if level in ("2", "3"):
                info[f"l{level}"] = size
    except OSError:
        pass
    return info


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], result_path: str, log_path: str, traced: bool = False):
    """Start child.py, wait for it, and return (result dict or None, rusage).

    The benchmark process must stay small: under vfork a child's max-RSS
    starts from its parent's, so files are read as streams and spans are
    reduced as they arrive.
    """
    argv = [sys.executable, os.path.join(HERE, "child.py"), SRC, result_path, str(int(traced))]
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            argv + args, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=log
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, usage
    with open(result_path) as handle:
        result = json.load(handle)
    os.remove(result_path)
    return result, usage


def at_ref_speed(seconds: float, probe_s: float, weight: float = 1.0) -> float:
    """Seconds measured while the probe loop took probe_s, rescaled to the
    loop's reference time; weight is the workload's PROBE_WEIGHT."""
    return seconds * (PROBE_REF_S / probe_s) ** weight


def file_digests(paths: list[str]) -> dict[str, str]:
    out = {}
    for path in paths:
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        out[os.path.basename(path)] = digest.hexdigest()
    return out


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: str, seed: int, reference: dict | None, work: str):
        self.tasks = workloads.make_tasks(workload, seed)
        self.weight = workloads.PROBE_WEIGHT.get(workload, 1.0)
        ref = (reference or {}).get(workload)
        self.reference = ref["tasks"] if ref and ref["seed"] == seed else None
        self.work = work
        self.setup_s: list[float] = []
        self.numpy = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[int, dict | None] = {}
        self.configs = []
        for i, (task, config) in enumerate(self.tasks):
            path = os.path.join(work, f"config-{i}.json")
            with open(path, "w") as handle:
                json.dump(dict(config, task=task), handle)
            self.configs.append(path)

    def probe_setup(self, count: int) -> None:
        for i in range(count):
            result, _ = run_child(
                [], os.path.join(self.work, "probe.json"), os.path.join(self.work, "probe.log")
            )
            if result is None:
                raise RuntimeError("affine_mixer does not import; see " + self.work)
            self.numpy = result["numpy"]
            if i or count == 1:
                self.setup_s.append(at_ref_speed(result["setup_s"], result["setup_probe_s"]))

    def _check(self, i: int, out_dir: str) -> list[str]:
        task, config = self.tasks[i]
        paths = [os.path.join(out_dir, name) for name in checks.OUTPUTS[task]]
        missing = [p for p in paths if not os.path.exists(p)]
        if missing:
            return [f"{task}: missing outputs {missing}"]
        if i in self.digests:
            # Replays of the same config must write the same bytes.
            first = self.digests[i]
            if first is None:
                return [f"{task}: first repetition failed its check"]
            return [] if file_digests(paths) == first else [f"{task}: outputs differ between repetitions"]
        errors = checks.invariants(task, config, out_dir)
        if self.reference is not None:
            errors += checks.compare(self.reference[i]["files"], checks.summarize(task, out_dir))
        self.digests[i] = None if errors else file_digests(paths)
        return errors

    def repetition(self, traced: bool) -> dict:
        """Run every task once; returns the scaled and raw task and CPU
        seconds and the peak RSS, or, when traced, the per-layer metrics."""
        rep = dict.fromkeys(("task_s", "cpu_s", "wall_s", "wall_cpu_s", "rss_mb"), 0.0)
        span_lists = []
        written = 0
        for i, (task, _) in enumerate(self.tasks):
            out_dir = os.path.join(self.work, f"out-{i}")
            shutil.rmtree(out_dir, ignore_errors=True)
            log = os.path.join(self.work, f"task-{i}.log")
            args = [task, "--config", self.configs[i], "--out", out_dir]
            result, usage = run_child(args, os.path.join(self.work, "result.json"), log, traced)
            self.attempted += 1
            cpu_s = usage.ru_utime + usage.ru_stime
            rep["wall_cpu_s"] += cpu_s
            rep["rss_mb"] = max(rep["rss_mb"], usage.ru_maxrss / 1024)
            if result is None or result["rc"] != 0:
                with open(log) as handle:
                    errors = [f"{task}: exited with an error: {handle.read().strip()[-500:]}"]
            else:
                rep["wall_s"] += result["task_s"]
                probe = result["probe_s"]
                rep["task_s"] += at_ref_speed(result["task_s"], probe, self.weight)
                rep["cpu_s"] += at_ref_speed(cpu_s, probe, self.weight)
                self.setup_s.append(at_ref_speed(result["setup_s"], result["setup_probe_s"]))
                errors = self._check(i, out_dir)
                written += sum(
                    os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir)
                )
                if traced:
                    span_lists.append((result["spans"], at_ref_speed(1.0, probe, self.weight)))
            if errors:
                self.failed += 1
                self.errors.extend(errors)
            shutil.rmtree(out_dir, ignore_errors=True)
        if traced:
            rep["layers"] = spans.layer_metrics(span_lists)
            rep["layers"]["cli.bytes_written"] = written
            rep["spans"] = span_lists
        return rep


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def measure(
    workload: str, seed: int, seconds: float, trace: bool, reference: dict | None = None
) -> dict:
    """Run one workload for `seconds` and return its metrics and details."""
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"run-{os.getpid()}-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run = Run(workload, seed, reference, work)
        # The first import of a checkout compiles bytecode; it is not timed.
        run.probe_setup(SETUP_PROBES + 1)
        plain, traced = [], []
        start = last = time.perf_counter()
        while True:
            plain.append(run.repetition(False))
            if trace:
                traced.append(run.repetition(True))
                if len(traced) > 1:
                    del traced[-1]["spans"]
            now = time.perf_counter()
            # Start no repetition that would end past the deadline.
            if now - start + (now - last) > seconds:
                break
            last = now
    finally:
        shutil.rmtree(work, ignore_errors=True)
    extra = {
        "wall_s": quartiles([r["wall_s"] for r in plain]),
        "wall_cpu_s": quartiles([r["wall_cpu_s"] for r in plain]),
    }
    if trace:
        stats = {name: quartiles([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        untraced = quartiles([r["task_s"] for r in plain])
        stats["trace.untraced_task_s"] = untraced
        stats["trace.overhead_ratio"] = quartiles(
            [r["layers"]["trace.task_s"] / untraced["median"] for r in traced]
        )
        units = {name: spans.unit(name) for name in stats}
    else:
        stats = {
            "task_s": quartiles([r["task_s"] for r in plain]),
            "task_cpu_s": quartiles([r["cpu_s"] for r in plain]),
            "setup_s": quartiles(run.setup_s),
            "peak_rss_mb": quartiles([r["rss_mb"] for r in plain]),
        }
        units = {"task_s": "s", "task_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    units.update(wall_s="s", wall_cpu_s="s")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "reference_checked": run.reference is not None,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_task_ratio": run.failed / run.attempted,
        "errors": run.errors[:20],
        "repetitions": len(plain),
        "stats": stats,
        "extra": extra,
        "units": units,
        "machine": dict(machine(), numpy=run.numpy),
        "spans": traced[0]["spans"] if trace else None,
    }


def result_line(res: dict) -> dict:
    """The last line of standard output: the end-to-end metrics, or with
    --trace 1 the per-layer metrics every workload reports (spans.RESULT)."""
    names = spans.RESULT if res["trace"] else list(res["stats"])
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            name: {"value": res["stats"][name]["median"], "unit": res["units"][name]}
            for name in names
        },
    }


def summary(res: dict) -> str:
    lines = [
        f"== {res['workload']} seed={res['seed']} trace={res['trace']} "
        f"repetitions={res['repetitions']} reference_checked={res['reference_checked']}",
        f"   failed_task_ratio = {res['failed_task_ratio']:.4f} ratio "
        f"({res['failed']} of {res['attempted']} tasks)",
    ]
    for name, st in {**res["stats"], **res["extra"]}.items():
        lines.append(
            f"   {name} = {st['median']:.6g} {res['units'][name]} "
            f"(q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n {st['n']})"
        )
    lines += [f"   error: {e}" for e in res["errors"]]
    lines.append("   machine: " + json.dumps(res["machine"], sort_keys=True))
    return "\n".join(lines)


def save(res: dict) -> str:
    """Write the run's details, with the spans of one traced repetition."""
    out_dir = os.path.join(WORK, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json.gz")
    with gzip.open(path, "wt") as handle:
        json.dump(res, handle)
    return path


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "affine_mixer", "cli.py")):
        print(f"no affine_mixer sources under {SRC}", file=sys.stderr)
        return 2
    reference = load_reference()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        seed = workloads.WORKLOADS[name][0] if args.seed is None else args.seed
        res = measure(name, seed, args.seconds, bool(args.trace), reference)
        save(res)
        print(summary(res), file=sys.stderr, flush=True)
        lines[name] = result_line(res)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
