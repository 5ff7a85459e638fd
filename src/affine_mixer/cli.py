"""Batch experiment driver.

Usage:
    affine-mixer <task> --config cfg.json [--out DIR] [--seed N] [--eps F] [--n-cap N]

Tasks: classify, evolve, bounds, mixing-sweep, digit-census,
verify-identities.  The config is a JSON object (schema in the README);
command line flags override config values.  Every run is deterministic
given its seed: replaying a config reproduces byte-identical outputs.
On failure a machine readable record {"error": {"kind", "message"}} goes
to stderr and the exit status is nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import IO, Iterable, Iterator, Optional, Sequence

import numpy as np

from .algebra import (
    DEFAULT_L_MAX,
    IntMatrix,
    classify_regime,
    det_int,
    exact_int,
    json_float,
    minimal_poly,
    verify_spectral_identities,
)
from .digitlab import block_census
from .errors import AffineMixerError, ConfigInvalid, InsufficientData, StateSpaceTooLarge
from .evolution import (
    DEFAULT_N_CAP,
    ChainSpec,
    evolve,
    mixing_time,
    simulate,
    tv_distance,
)
from .fourier import bounds_table
from .increments import IncrementDistribution, support_basis

# the config keys each task needs
_REQUIRED = {
    "classify": ("matrix",),
    "evolve": ("matrix", "increments", "p", "n"),
    "bounds": ("matrix", "increments", "p", "n"),
    "mixing-sweep": ("matrix", "increments", "p_list"),
    "digit-census": ("p", "sigma"),
    "verify-identities": ("matrix",),
}
TASKS = tuple(_REQUIRED)
DEFAULT_EPS = 0.25
DEFAULT_OUT = "reports"
FIT_MODELS = ("pow_p", "log", "loglog")
IDENTITY_J_MAX = 10
# the least value of each integer config key that has one (README schema)
_MINIMUMS = {
    "p": 2,
    "p_list": 2,
    "n": 0,
    "n_cap": 0,
    "l_max": 1,
    "sigma": 2,
    "t": 1,
    "r": 1,
    "seed": 0,
    "trials": 1,
}


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _list(value) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list, got {value!r}")
    return value


def _ints(values) -> tuple[int, ...]:
    return tuple(exact_int(v) for v in values)


# how each config value is read from JSON; every other key holds one integer
_PARSERS = {
    "matrix": lambda rows: IntMatrix.from_rows([_ints(row) for row in rows]),
    "increments": IncrementDistribution.from_json,
    "x0": _ints,
    "p_list": _ints,
    "eps": json_float,
    "fit_models": lambda names: tuple(_string(name) for name in _list(names)),
    "out": _string,
}


@dataclass
class SweepRow:
    """One modulus of a mixing sweep."""

    p: int
    regime: str
    n_mix: Optional[float]
    ln_p: float
    ln_p_ln_ln_p: float
    p_sq: int
    admissible: bool
    reason: str = ""


@dataclass
class FitResult:
    model: str
    coefficient: float
    intercept: float
    rms_residual: float
    points: int


@dataclass
class ExperimentConfig:
    """Validated experiment description; see the README for the schema."""

    task: str
    matrix: Optional[IntMatrix] = None
    increments: Optional[IncrementDistribution] = None
    x0: Optional[tuple[int, ...]] = None
    p: Optional[int] = None
    p_list: Optional[tuple[int, ...]] = None
    n: Optional[int] = None
    eps: float = DEFAULT_EPS
    n_cap: int = DEFAULT_N_CAP
    l_max: int = DEFAULT_L_MAX
    sigma: Optional[int] = None
    t: Optional[int] = None
    r: int = 1
    seed: int = 0
    trials: Optional[int] = None
    fit_models: tuple[str, ...] = field(default=FIT_MODELS)
    out: Optional[str] = None

    @classmethod
    def from_json(cls, obj: dict, task: Optional[str] = None) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigInvalid("config must be a JSON object")
        cfg_task = obj.get("task", task)
        if cfg_task is None:
            raise ConfigInvalid("no task given (config key 'task' or subcommand)")
        if task is not None and cfg_task != task:
            raise ConfigInvalid(
                f"config task {cfg_task!r} conflicts with subcommand {task!r}"
            )
        if cfg_task not in TASKS:
            raise ConfigInvalid(f"unknown task {cfg_task!r}; expected one of {TASKS}")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {unknown}")
        values = {}
        for name, value in obj.items():
            if name != "task":
                try:
                    values[name] = _PARSERS.get(name, exact_int)(value)
                except (TypeError, ValueError, KeyError, OverflowError) as err:
                    raise ConfigInvalid(f"malformed config value {name!r}: {err!r}") from err
        cfg = cls(task=cfg_task, **values)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        missing = [name for name in _REQUIRED[self.task] if getattr(self, name) is None]
        if missing:
            raise ConfigInvalid(f"task {self.task!r} needs config keys: {missing}")
        if self.task == "mixing-sweep" and not self.p_list:
            raise ConfigInvalid("p_list must be nonempty")
        if not 0 < self.eps < 1:
            raise ConfigInvalid("eps must lie in (0, 1)")
        if self.matrix is not None:
            k = self.matrix.k
            if self.x0 is not None and len(self.x0) != k:
                raise ConfigInvalid(f"x0 has length {len(self.x0)}; the matrix has dimension {k}")
            if self.increments is not None and self.increments.k != k:
                raise ConfigInvalid(
                    f"increments have k = {self.increments.k}; the matrix has dimension {k}"
                )
        values = [(name, getattr(self, name)) for name in _MINIMUMS if name != "p_list"]
        values += [("p_list", p) for p in self.p_list or ()]
        low = [f"{name} = {v}" for name, v in values if v is not None and v < _MINIMUMS[name]]
        if low:
            raise ConfigInvalid(f"out of range: {low}; minimums are {_MINIMUMS}")
        bad = [m for m in self.fit_models if m not in FIT_MODELS]
        if bad:
            raise ConfigInvalid(f"unknown fit models {bad}; expected subset of {FIT_MODELS}")


def fit_exponent(rows: Sequence[SweepRow], model: str) -> FitResult:
    """Least-squares growth fit over the usable sweep rows.

    pow_p fits ln n_mix against ln p (slope = the power of p); log fits
    n_mix against ln p; loglog fits n_mix against ln p * ln ln p.  All fits
    include an intercept and report the RMS residual of the fitted value.
    """
    if model not in FIT_MODELS:
        raise ValueError(f"unknown model {model!r}")
    usable = [
        row for row in rows if row.admissible and row.n_mix is not None and row.n_mix >= 1
    ]
    if len(usable) < 3:
        raise InsufficientData(
            f"{len(usable)} usable rows; need at least 3 for a fit"
        )
    x = np.array([row.ln_p_ln_ln_p if model == "loglog" else row.ln_p for row in usable])
    y = np.array([float(row.n_mix) for row in usable])
    if model == "pow_p":
        y = np.log(y)
    coeff, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (coeff * x + intercept)) ** 2)))
    return FitResult(
        model=model,
        coefficient=float(coeff),
        intercept=float(intercept),
        rms_residual=rms,
        points=len(usable),
    )


def mixing_sweep(config: ExperimentConfig) -> list[SweepRow]:
    """One SweepRow per requested p; inadmissible p are kept, flagged with
    the failing gcd, and per-p errors are recorded without stopping."""
    assert config.matrix is not None and config.increments is not None
    a = config.matrix
    mu = config.increments
    regime = classify_regime(a, config.l_max).regime.value
    basis = support_basis(mu, a)
    det_a = det_int(a)
    rows: list[SweepRow] = []
    for p in config.p_list or ():
        ln_p = math.log(p)
        lnln = ln_p * math.log(ln_p) if p > 2 else 0.0
        reasons = []
        if math.gcd(det_a, p) != 1:
            reasons.append(f"gcd(det(A),p)={math.gcd(det_a, p)}")
        if math.gcd(basis.det, p) != 1:
            reasons.append(f"gcd(det(B),p)={math.gcd(basis.det, p)}")
        n_mix, reason = None, "; ".join(reasons)
        if not reasons:
            try:
                n_mix = mixing_time(ChainSpec(a, mu, p), config.eps, config.n_cap)
                reason = "" if n_mix is not None else "unmixed"
            except StateSpaceTooLarge as err:
                reason = f"error: {err.kind}"
        rows.append(SweepRow(p, regime, n_mix, ln_p, lnln, p * p, not reasons, reason))
    if not any(row.admissible for row in rows):
        raise ConfigInvalid("no admissible modulus in p_list")
    return rows


@contextlib.contextmanager
def _atomic(path: str) -> Iterator[IO[str]]:
    """A text handle on path + ".tmp", renamed to path on success, removed on failure."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_json(path: str, obj: dict) -> str:
    with _atomic(path) as handle:
        handle.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def _write_report(
    out_dir: str, stem: str, header: Sequence[str], rows: Iterable[Sequence], summary: dict
) -> list[str]:
    """Write stem.csv (header, then rows) and stem.json (summary) into
    out_dir; returns both paths."""
    csv_path = os.path.join(out_dir, stem + ".csv")
    with _atomic(csv_path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return [csv_path, _write_json(os.path.join(out_dir, stem + ".json"), summary)]


def _digit_strings(blocks: np.ndarray, sigma: int) -> list[str]:
    """One string per row of a (m, t) digit array: the digits concatenated
    when sigma <= 10, joined with '-' otherwise."""
    if sigma <= 10:
        chars = np.add(blocks, ord("0"), dtype=np.uint8)
        return chars.view(f"S{blocks.shape[1]}").ravel().astype(str).tolist()
    return ["-".join(map(str, row)) for row in blocks.tolist()]


def _poly_json(poly) -> list[int]:
    return list(poly.coeffs)


def _run_classify(config: ExperimentConfig, out_dir: str) -> list[str]:
    profile = classify_regime(config.matrix, config.l_max)
    report = {
        "matrix": [list(row) for row in config.matrix.rows],
        "det": det_int(config.matrix),
        "regime": profile.regime.value,
        "char_poly": _poly_json(profile.char_poly),
        "min_poly": _poly_json(profile.min_poly),
        "d": profile.d,
        "eigenvalues": [[z.real, z.imag] for z in profile.eigenvalues],
        "factors": [
            {
                "coeffs": _poly_json(poly),
                "multiplicity": mult,
                "order": list(order) if order is not None else None,
            }
            for (poly, mult), order in zip(profile.factors, profile.root_orders)
        ],
        "remainder": _poly_json(profile.remainder) if profile.remainder else None,
    }
    return [_write_json(os.path.join(out_dir, "classify.json"), report)]


def _run_evolve(config: ExperimentConfig, out_dir: str) -> list[str]:
    chain = ChainSpec(config.matrix, config.increments, config.p, config.x0)
    dist = evolve(chain, config.n)
    summary = {
        "p": chain.p,
        "k": chain.k,
        "n": config.n,
        "x0": list(chain.x0),
        "tv": tv_distance(dist),
    }
    if config.trials:
        empirical = simulate(chain, config.n, config.trials, config.seed)
        summary["trials"] = config.trials
        summary["seed"] = config.seed
        summary["tv_empirical_vs_exact"] = 0.5 * float(
            np.abs(empirical.values - dist.values).sum()
        )
    return _write_report(
        out_dir, "evolve", ("index", "probability"), enumerate(dist.values.tolist()), summary
    )


def _run_bounds(config: ExperimentConfig, out_dir: str) -> list[str]:
    chain = ChainSpec(config.matrix, config.increments, config.p, config.x0)
    rows = bounds_table(chain, config.n, config.l_max)
    return _write_report(
        out_dir,
        "bounds",
        ("n", "tv", "upper", "lower_best", "alpha_witness", "certificate"),
        (
            (
                row.n,
                row.tv,
                row.upper,
                row.lower_best,
                row.alpha_witness,
                row.certificate,
            )
            for row in rows
        ),
        {
            "p": chain.p,
            "k": chain.k,
            "n_max": config.n,
            "final_tv": rows[-1].tv,
            "final_upper": rows[-1].upper,
            "final_lower_best": rows[-1].lower_best,
        },
    )


def _run_mixing_sweep(config: ExperimentConfig, out_dir: str) -> list[str]:
    rows = mixing_sweep(config)
    fits = []
    for model in config.fit_models:
        try:
            fits.append(asdict(fit_exponent(rows, model)))
        except InsufficientData as err:
            fits.append({"model": model, "error": str(err)})
    return _write_report(
        out_dir,
        "sweep",
        ("p", "regime", "n_mix", "ln_p", "ln_p_ln_ln_p", "p_sq", "admissible", "reason"),
        (
            (
                row.p,
                row.regime,
                row.n_mix,
                row.ln_p,
                row.ln_p_ln_ln_p,
                row.p_sq,
                int(row.admissible),
                row.reason,
            )
            for row in rows
        ),
        {"eps": config.eps, "n_cap": config.n_cap, "fits": fits},
    )


def _run_digit_census(config: ExperimentConfig, out_dir: str) -> list[str]:
    census = block_census(config.p, config.sigma, config.t, config.r)
    p, r = census.p, census.r
    return _write_report(
        out_dir,
        "census",
        ("a", "block_index", "digits", "alternations"),
        zip(
            np.repeat(np.arange(1, p), r).tolist(),
            np.tile(np.arange(r), p - 1).tolist(),
            _digit_strings(census.digits.reshape(-1, census.t), census.sigma),
            census.alternations.ravel().tolist(),
        ),
        {
            "p": census.p,
            "sigma": census.sigma,
            "t": census.t,
            "r": census.r,
            "distinct_per_index": list(census.distinct_per_index),
            "min_alternations": census.min_alternations,
            "histogram": {str(key): val for key, val in census.histogram.items()},
        },
    )


def _run_verify_identities(config: ExperimentConfig, out_dir: str) -> list[str]:
    d = minimal_poly(config.matrix).degree
    rows = []
    for e in range(1, d + 1):
        for j in range(IDENTITY_J_MAX + 1):
            ok, residual = verify_spectral_identities(config.matrix, e, j)
            rows.append((e, j, int(ok), residual))
    return _write_report(
        out_dir,
        "identities",
        ("e", "j", "ok", "residual"),
        rows,
        {
            "matrix": [list(row) for row in config.matrix.rows],
            "d": d,
            "j_max": IDENTITY_J_MAX,
            "all_ok": all(row[2] for row in rows),
            "max_residual": max([0.0] + [row[3] for row in rows]),
        },
    )


_RUNNERS = {
    "classify": _run_classify,
    "evolve": _run_evolve,
    "bounds": _run_bounds,
    "mixing-sweep": _run_mixing_sweep,
    "digit-census": _run_digit_census,
    "verify-identities": _run_verify_identities,
}


def run(config: ExperimentConfig, out_dir: Optional[str] = None) -> list[str]:
    """Execute one experiment; returns the list of files written."""
    target = out_dir or config.out or DEFAULT_OUT
    os.makedirs(target, exist_ok=True)
    return _RUNNERS[config.task](config, target)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="affine-mixer",
        description="Experiments on affine recursions X' = AX + B (mod p).",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for name in TASKS:
        task_parser = sub.add_parser(name)
        task_parser.add_argument("--config", required=True, help="JSON config path")
        task_parser.add_argument("--out", help="output directory (default: reports)")
        task_parser.add_argument("--seed", type=int, help="override config seed")
        task_parser.add_argument("--eps", type=float, help="override config eps")
        task_parser.add_argument("--n-cap", type=int, help="override config n_cap")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as handle:
            raw = json.load(handle)
        config = ExperimentConfig.from_json(raw, task=args.task)
        for name in ("seed", "eps", "n_cap"):
            if getattr(args, name) is not None:
                setattr(config, name, getattr(args, name))
        config.validate()
        written = run(config, args.out)
    except Exception as err:  # every failure ends in one machine readable record
        kind = err.kind if isinstance(err, AffineMixerError) else type(err).__name__
        json.dump({"error": {"kind": kind, "message": str(err)}}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
