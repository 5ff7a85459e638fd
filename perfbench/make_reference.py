"""Save reference.json: output summaries of every workload at its default seed.

    python3 perfbench/make_reference.py

Run it on a commit whose outputs are trusted; run.py then compares each
default-seed run against these summaries (see checks.py).
"""

from __future__ import annotations

import json
import os
import shutil

import checks
import run
import workloads


def main() -> None:
    reference = {}
    work = os.path.join(run.WORK, "reference")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        for name, (seed, _) in workloads.WORKLOADS.items():
            tasks = []
            for i, (task, config) in enumerate(workloads.make_tasks(name, seed)):
                config_path = os.path.join(work, f"{name}-{i}.json")
                with open(config_path, "w") as handle:
                    json.dump(dict(config, task=task), handle)
                out_dir = os.path.join(work, f"{name}-{i}")
                args = [task, "--config", config_path, "--out", out_dir]
                result, _ = run.run_child(
                    args, os.path.join(work, "result.json"), os.path.join(work, "log")
                )
                if result is None or result["rc"] != 0:
                    raise SystemExit(f"{name}: task {task} failed")
                errors = checks.invariants(task, config, out_dir)
                if errors:
                    raise SystemExit(f"{name}: {errors}")
                tasks.append({"task": task, "files": checks.summarize(task, out_dir)})
            reference[name] = {"seed": seed, "tasks": tasks}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
