"""Spans for the traced run, recorded from outside the package.

`install` wraps public functions of the affine_mixer modules in the task
process; `layer_metrics` turns the recorded spans into per-layer numbers
in the benchmark process.  A span is the list
[name, start_ns, end_ns, parent_index, size, extra]: size is the states or
frequencies the call touched, extra is 1 on the first step of a chain
(step_exact), the step index (product_scan) or the modulus (mixing_time).
The task process is the trace id: one span list per task.
"""

from __future__ import annotations

import functools
import math
import sys
import time

ROOT = "cli.main"

# (module, function) pairs wrapped as plain calls.  cli, fourier and
# evolution bind imported names at import time, so every binding of the
# same function object in the package is replaced, not only the defining
# module's (for example cli.evolve and fourier.tv_distance).
TRACED = (
    ("evolution", "step_exact"),
    ("evolution", "tv_distance"),
    ("evolution", "mixing_time"),
    ("evolution", "evolve"),
    ("evolution", "simulate"),
    ("fourier", "bounds_table"),
    ("fourier", "certificate_rho"),
    ("fourier", "certificate_gamma"),
    ("cli", "run"),
    ("algebra", "classify_regime"),
    ("algebra", "factor_int_poly"),
    ("algebra", "minimal_poly"),
    ("algebra", "eigenvalues"),
    ("algebra", "verify_spectral_identities"),
    ("digitlab", "block_census"),
    ("digitlab", "base_digits"),
    ("digitlab", "generalized_alternations"),
    ("increments", "support_basis"),
)

# Per-layer metrics on the result line of a traced run.  Each is measured
# on every workload (every task runs cli and calls into the library), so
# none is missing or 0; the metrics of layers that run on some workloads
# only are in the run's summary and saved details.
RESULT = (
    "cli.main.self_s",
    "cli.run.self_s",
    "cli.bytes_written",
    "library.self_s",
    "library.calls",
    "trace.task_s",
    "trace.attributed_share",
    "trace.untraced_task_s",
    "trace.overhead_ratio",
)

# Size ladder for step_exact ns per state, by the decade nearest p**k.  The
# workloads draw their moduli in narrow windows that stay clear of the
# half-decades, so every seed of a workload reports the same rungs.
LADDER = (2, 3, 4, 5, 6)


class Tracer:
    """Spans of one task, kept in memory until the task ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, name: str, size: int = 0, extra: int = 0) -> list:
        span = [name, 0, 0, self.stack[-1] if self.stack else -1, size, extra]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self.stack.pop()


def _wrap(tracer: Tracer, name: str, fn, describe=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        size, extra = describe(args) if describe else (0, 0)
        span = tracer.open(name, size, extra)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return traced


def _wrap_scan(tracer: Tracer, name: str, fn):
    """product_scan is a generator: each resumption is one span."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)

        def steps():
            while True:
                span = tracer.open(name, 0, -1)
                try:
                    j, prods = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                span[4], span[5] = len(prods), j
                yield j, prods

        return steps()

    return traced


def _rebind(package: str, original, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == package or mod_name.startswith(package + "."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(package: str = "affine_mixer") -> Tracer:
    """Wrap the traced functions of an imported package; returns the tracer."""
    tracer = Tracer()
    mods = {name: sys.modules[f"{package}.{name}"] for name, _ in TRACED}
    seen_chains: set = set()

    def step_shape(args):
        chain = args[1]
        first = chain not in seen_chains
        seen_chains.add(chain)
        return chain.n_states, int(first)

    describe = {
        "step_exact": step_shape,
        "tv_distance": lambda args: (len(args[0].values), 0),
        "mixing_time": lambda args: (args[0].n_states, args[0].p),
    }
    for mod_name, fn_name in TRACED:
        original = getattr(mods[mod_name], fn_name)
        wrapper = _wrap(tracer, f"{mod_name}.{fn_name}", original, describe.get(fn_name))
        _rebind(package, original, wrapper)

    fourier = mods["fourier"]
    original = fourier.product_scan
    _rebind(package, original, _wrap_scan(tracer, "fourier.product_scan", original))

    cls = mods["evolution"].StateDistribution
    cls.__init__ = _wrap(tracer, "evolution.StateDistribution", cls.__init__)
    return tracer


# ---------------------------------------------------------------- analysis


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if ".us_per_call" in name:
        return "us"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its child spans cover (ns)."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(tasks: list[tuple[list[list], float]]) -> dict[str, float]:
    """Per-layer metrics of one repetition, from the span list of each task
    and the factor that rescales its times to the reference CPU speed.
    Metrics of a layer with no spans are left out, so none reads 0."""
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    steady_ns = steady_states = first_ns = states = 0
    ladder_ns = dict.fromkeys(LADDER, 0)
    ladder_states = dict.fromkeys(LADDER, 0)
    tv_ns = tv_states = 0
    scan_steps = scan_ns = scan_freqs = scan_first_ns = 0
    task_ns = 0
    for spans, scale in tasks:
        for (name, start, end, _, size, extra), own in zip(spans, self_times(spans)):
            dur = (end - start) * scale
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own * scale
            if name == ROOT:
                task_ns += dur
            elif name == "evolution.step_exact":
                states += size
                if extra:
                    first_ns += dur
                else:
                    steady_ns += dur
                    steady_states += size
                    rung = min(max(round(math.log10(size)), LADDER[0]), LADDER[-1])
                    ladder_ns[rung] += dur
                    ladder_states[rung] += size
            elif name == "evolution.tv_distance":
                tv_ns += dur
                tv_states += size
            elif name == "fourier.product_scan":
                if extra == 0:
                    scan_first_ns += dur
                elif extra > 0:
                    scan_steps += 1
                    scan_ns += dur
                    scan_freqs += size

    def per(num: float, den: float) -> float | None:
        return num / den if den else None

    def self_s(name: str) -> float | None:
        return self_ns[name] / 1e9 if name in self_ns else None

    def if_ran(name: str, value: float) -> float | None:
        return value if name in calls else None

    step, scan = "evolution.step_exact", "fourier.product_scan"
    out: dict[str, float | None] = {
        "evolution.step_exact.calls": calls.get(step),
        "evolution.step_exact.self_s": self_s(step),
        "evolution.step_exact.us_per_call": per((steady_ns + first_ns) / 1e3, calls.get(step, 0)),
        "evolution.step_exact.ns_per_state": per(steady_ns, steady_states),
        "evolution.step_exact.first_call_s": if_ran(step, first_ns / 1e9),
    }
    for rung in LADDER:
        out[f"evolution.step_exact.ns_per_state.pk_1e{rung}"] = per(
            ladder_ns[rung], ladder_states[rung]
        )
    out.update(
        {
            "evolution.states_stepped": if_ran(step, states),
            "evolution.StateDistribution.calls": calls.get("evolution.StateDistribution"),
            "evolution.StateDistribution.self_s": self_s("evolution.StateDistribution"),
            "evolution.tv_distance.calls": calls.get("evolution.tv_distance"),
            "evolution.tv_distance.self_s": self_s("evolution.tv_distance"),
            "evolution.tv_distance.ns_per_state": per(tv_ns, tv_states),
            "evolution.mixing_time.self_s": self_s("evolution.mixing_time"),
            "evolution.evolve.self_s": self_s("evolution.evolve"),
            "evolution.simulate.self_s": self_s("evolution.simulate"),
            "fourier.product_scan.steps": if_ran(scan, scan_steps),
            "fourier.product_scan.self_s": self_s(scan),
            "fourier.product_scan.ns_per_freq": per(scan_ns, scan_freqs),
            "fourier.product_scan.first_step_s": if_ran(scan, scan_first_ns / 1e9),
            "fourier.bounds_table.self_s": self_s("fourier.bounds_table"),
            "fourier.certificate_rho.calls": calls.get("fourier.certificate_rho"),
            "fourier.certificate_rho.self_s": self_s("fourier.certificate_rho"),
            "fourier.certificate_gamma.self_s": self_s("fourier.certificate_gamma"),
            "cli.main.self_s": self_s(ROOT),
            "cli.run.self_s": self_s("cli.run"),
            "algebra.classify_regime.self_s": self_s("algebra.classify_regime"),
            "algebra.factor_int_poly.self_s": self_s("algebra.factor_int_poly"),
            "algebra.minimal_poly.calls": calls.get("algebra.minimal_poly"),
            "algebra.eigenvalues.calls": calls.get("algebra.eigenvalues"),
            "algebra.eigenvalues.self_s": self_s("algebra.eigenvalues"),
            "algebra.verify_spectral_identities.calls": calls.get("algebra.verify_spectral_identities"),
            "algebra.verify_spectral_identities.self_s": self_s(
                "algebra.verify_spectral_identities"
            ),
            "digitlab.block_census.self_s": self_s("digitlab.block_census"),
            "digitlab.base_digits.calls": calls.get("digitlab.base_digits"),
            "digitlab.base_digits.self_s": self_s("digitlab.base_digits"),
            "digitlab.generalized_alternations.self_s": self_s(
                "digitlab.generalized_alternations"
            ),
            "increments.support_basis.self_s": self_s("increments.support_basis"),
            # Every wrapped function outside cli: the library's own time.
            "library.self_s": sum(v for k, v in self_ns.items() if not k.startswith("cli.")) / 1e9,
            "library.calls": sum(v for k, v in calls.items() if not k.startswith("cli.")),
            "trace.task_s": task_ns / 1e9,
            # Share of the task inside the wrapped functions; time in a
            # function the wrappers miss stays in cli.main's self time.
            "trace.attributed_share": 1 - self_ns[ROOT] / task_ns,
        }
    )
    return {name: value for name, value in out.items() if value is not None}
