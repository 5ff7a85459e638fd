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
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .algebra import IntMatrix, det_int, exact_int, verify_spectral_identities
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
from .fourier import DEFAULT_L_MAX, bounds_table
from .increments import IncrementDistribution, admissible_modulus, support_basis
from .algebra import classify_regime

TASKS = (
    "classify",
    "evolve",
    "bounds",
    "mixing-sweep",
    "digit-census",
    "verify-identities",
)
DEFAULT_EPS = 0.25
DEFAULT_OUT = "reports"
FIT_MODELS = ("pow_p", "log", "loglog")
IDENTITY_J_MAX = 10
# the least value of each integer config key that has one (README schema)
_MINIMUMS = {"p": 2, "p_list": 2, "n": 0, "l_max": 1, "sigma": 2, "t": 1, "r": 1, "trials": 1}


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
        try:
            matrix = (
                IntMatrix.from_rows([[exact_int(v) for v in row] for row in obj["matrix"]])
                if "matrix" in obj
                else None
            )
            increments = (
                IncrementDistribution.from_json(obj["increments"])
                if "increments" in obj
                else None
            )
            x0 = tuple(exact_int(c) for c in obj["x0"]) if "x0" in obj else None
            p_list = (
                tuple(exact_int(v) for v in obj["p_list"]) if "p_list" in obj else None
            )
            fit_models = tuple(obj.get("fit_models", FIT_MODELS))
            cfg = cls(
                task=cfg_task,
                matrix=matrix,
                increments=increments,
                x0=x0,
                p=exact_int(obj["p"]) if "p" in obj else None,
                p_list=p_list,
                n=exact_int(obj["n"]) if "n" in obj else None,
                eps=float(obj.get("eps", DEFAULT_EPS)),
                n_cap=exact_int(obj.get("n_cap", DEFAULT_N_CAP)),
                l_max=exact_int(obj.get("l_max", DEFAULT_L_MAX)),
                sigma=exact_int(obj["sigma"]) if "sigma" in obj else None,
                t=exact_int(obj["t"]) if "t" in obj else None,
                r=exact_int(obj.get("r", 1)),
                seed=exact_int(obj.get("seed", 0)),
                trials=exact_int(obj["trials"]) if "trials" in obj else None,
                fit_models=fit_models,
                out=obj.get("out"),
            )
        except (TypeError, ValueError) as err:
            raise ConfigInvalid(f"malformed config value: {err}") from err
        cfg.validate()
        return cfg

    def validate(self) -> None:
        need = {
            "classify": ("matrix",),
            "evolve": ("matrix", "increments", "p", "n"),
            "bounds": ("matrix", "increments", "p", "n"),
            "mixing-sweep": ("matrix", "increments", "p_list"),
            "digit-census": ("p", "sigma"),
            "verify-identities": ("matrix",),
        }[self.task]
        missing = [name for name in need if getattr(self, name) is None]
        if missing:
            raise ConfigInvalid(f"task {self.task!r} needs config keys: {missing}")
        if self.task == "mixing-sweep" and not self.p_list:
            raise ConfigInvalid("p_list must be nonempty")
        if not 0 < self.eps < 1:
            raise ConfigInvalid("eps must lie in (0, 1)")
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
    if model == "pow_p":
        x = np.array([row.ln_p for row in usable])
        y = np.log(np.array([float(row.n_mix) for row in usable]))
    elif model == "log":
        x = np.array([row.ln_p for row in usable])
        y = np.array([float(row.n_mix) for row in usable])
    else:
        x = np.array([row.ln_p_ln_ln_p for row in usable])
        y = np.array([float(row.n_mix) for row in usable])
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
        if reasons:
            rows.append(
                SweepRow(p, regime, None, ln_p, lnln, p * p, False, "; ".join(reasons))
            )
            continue
        try:
            n_mix = mixing_time(ChainSpec(a, mu, p), config.eps, config.n_cap)
        except StateSpaceTooLarge as err:
            rows.append(
                SweepRow(p, regime, None, ln_p, lnln, p * p, True, f"error: {err.kind}")
            )
            continue
        reason = "" if n_mix is not None else "unmixed"
        rows.append(SweepRow(p, regime, n_mix, ln_p, lnln, p * p, True, reason))
    if not any(row.admissible for row in rows):
        raise ConfigInvalid("no admissible modulus in p_list")
    return rows


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj: dict) -> None:
    _write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomic(path, buf.getvalue())


def _digit_string(digits: Sequence[int], sigma: int) -> str:
    sep = "" if sigma <= 10 else "-"
    return sep.join(str(d) for d in digits)


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
    path = os.path.join(out_dir, "classify.json")
    _write_json(path, report)
    return [path]


def _run_evolve(config: ExperimentConfig, out_dir: str) -> list[str]:
    chain = ChainSpec(config.matrix, config.increments, config.p, config.x0)
    dist = evolve(chain, config.n)
    csv_path = os.path.join(out_dir, "evolve.csv")
    _write_csv(
        csv_path,
        ("index", "probability"),
        [(i, v) for i, v in enumerate(dist.values)],
    )
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
    json_path = os.path.join(out_dir, "evolve.json")
    _write_json(json_path, summary)
    return [csv_path, json_path]


def _run_bounds(config: ExperimentConfig, out_dir: str) -> list[str]:
    chain = ChainSpec(config.matrix, config.increments, config.p, config.x0)
    rows = bounds_table(chain, config.n, config.l_max)
    csv_path = os.path.join(out_dir, "bounds.csv")
    _write_csv(
        csv_path,
        ("n", "tv", "upper", "lower_best", "alpha_witness", "certificate"),
        [
            (
                row.n,
                row.tv,
                row.upper,
                row.lower_best,
                str(row.alpha_witness),
                "" if row.certificate is None else row.certificate,
            )
            for row in rows
        ],
    )
    json_path = os.path.join(out_dir, "bounds.json")
    _write_json(
        json_path,
        {
            "p": chain.p,
            "k": chain.k,
            "n_max": config.n,
            "final_tv": rows[-1].tv,
            "final_upper": rows[-1].upper,
            "final_lower_best": rows[-1].lower_best,
        },
    )
    return [csv_path, json_path]


def _run_mixing_sweep(config: ExperimentConfig, out_dir: str) -> list[str]:
    rows = mixing_sweep(config)
    csv_path = os.path.join(out_dir, "sweep.csv")
    _write_csv(
        csv_path,
        ("p", "regime", "n_mix", "ln_p", "ln_p_ln_ln_p", "p_sq", "admissible", "reason"),
        [
            (
                row.p,
                row.regime,
                "" if row.n_mix is None else row.n_mix,
                row.ln_p,
                row.ln_p_ln_ln_p,
                row.p_sq,
                int(row.admissible),
                row.reason,
            )
            for row in rows
        ],
    )
    fits = []
    for model in config.fit_models:
        try:
            result = fit_exponent(rows, model)
        except InsufficientData as err:
            fits.append({"model": model, "error": str(err)})
            continue
        fits.append(
            {
                "model": result.model,
                "coefficient": result.coefficient,
                "intercept": result.intercept,
                "rms_residual": result.rms_residual,
                "points": result.points,
            }
        )
    json_path = os.path.join(out_dir, "sweep.json")
    _write_json(json_path, {"eps": config.eps, "n_cap": config.n_cap, "fits": fits})
    return [csv_path, json_path]


def _run_digit_census(config: ExperimentConfig, out_dir: str) -> list[str]:
    census = block_census(config.p, config.sigma, config.t, config.r)
    csv_path = os.path.join(out_dir, "census.csv")
    _write_csv(
        csv_path,
        ("a", "block_index", "digits", "alternations"),
        [
            (
                row.a,
                row.block_index,
                _digit_string(row.block.digits, census.sigma),
                row.alternations,
            )
            for row in census.rows
        ],
    )
    json_path = os.path.join(out_dir, "census.json")
    _write_json(
        json_path,
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
    return [csv_path, json_path]


def _run_verify_identities(config: ExperimentConfig, out_dir: str) -> list[str]:
    from .algebra import minimal_poly

    d = minimal_poly(config.matrix).degree
    rows = []
    worst = 0.0
    all_ok = True
    for e in range(1, d + 1):
        for j in range(IDENTITY_J_MAX + 1):
            ok, residual = verify_spectral_identities(config.matrix, e, j)
            rows.append((e, j, int(ok), residual))
            worst = max(worst, residual)
            all_ok = all_ok and ok
    csv_path = os.path.join(out_dir, "identities.csv")
    _write_csv(csv_path, ("e", "j", "ok", "residual"), rows)
    json_path = os.path.join(out_dir, "identities.json")
    _write_json(
        json_path,
        {
            "matrix": [list(row) for row in config.matrix.rows],
            "d": d,
            "j_max": IDENTITY_J_MAX,
            "all_ok": all_ok,
            "max_residual": worst,
        },
    )
    return [csv_path, json_path]


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
        if args.seed is not None:
            config.seed = args.seed
        if args.eps is not None:
            config.eps = args.eps
        if args.n_cap is not None:
            config.n_cap = args.n_cap
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
