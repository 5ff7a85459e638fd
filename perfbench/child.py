"""Run one affine-mixer CLI task in this fresh interpreter and time it.

    python3 child.py SRC_DIR RESULT_JSON TRACE [CLI_ARGS...]

Times the import of affine_mixer (numpy included) and, when CLI_ARGS are
given, the call of affine_mixer.cli.main on them.  The speed probe's loop
runs PROBE_REPEAT times before the import, between the import and the
task, and after the task, so the benchmark can rescale both times to a
reference CPU speed.  TRACE=1 wraps the package's public functions in spans
first.  The timings, the probe medians, the exit code of main and the spans
go to RESULT_JSON; with no CLI_ARGS only the import is timed.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

PROBE_LOOP = 3000
PROBE_OBJECTS = 600
PROBE_REPEAT = 10


def probe_loop() -> float:
    """Seconds this CPU takes for a fixed pure-Python loop just now: integer
    arithmetic, then small objects made and stored, the two kinds of work
    the package's Python code does most."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    table = {}
    for i in range(PROBE_OBJECTS):
        table[i] = (i, str(i))
    return time.perf_counter() - start


def probe_times() -> list[float]:
    return [probe_loop() for _ in range(PROBE_REPEAT)]


def main() -> int:
    src, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    cli_args = sys.argv[4:]
    sys.path.insert(0, src)
    before = probe_times()
    start = time.perf_counter()
    import affine_mixer.cli as cli

    setup_s = time.perf_counter() - start
    between = probe_times()
    import numpy

    result = {
        "setup_s": setup_s,
        "setup_probe_s": statistics.median(before + between),
        "numpy": numpy.__version__,
    }
    if cli_args:
        tracer = None
        if trace:
            import spans

            tracer = spans.install()
        start = time.perf_counter()
        root = tracer.open(spans.ROOT) if tracer else None
        result["rc"] = cli.main(cli_args)
        if tracer:
            tracer.close(root)
        result["task_s"] = time.perf_counter() - start
        result["probe_s"] = statistics.median(between + probe_times())
        if tracer:
            result["spans"] = tracer.spans
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
