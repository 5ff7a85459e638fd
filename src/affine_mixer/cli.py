"""Batch experiment driver.

Usage (or python -m affine_mixer <task> ...):
    affine-mixer <task> --config cfg.json [--out DIR] [--seed N] [--eps F] [--n-cap N]
    affine-mixer -h | --help

Tasks: classify, evolve, bounds, mixing-sweep, digit-census,
verify-identities.  The config is a JSON object (schema in the README);
command line flags override config values.  A flag is spelled in full,
as --flag value or --flag=value; given twice, its last value counts.
Every run is deterministic given its seed: replaying a config reproduces
byte-identical outputs.  On success the written paths are printed and
the exit status is 0.  On failure, a malformed command line included, a
machine readable record {"error": {"kind", "message"}} goes to stderr
and the exit status is 1.
"""

from __future__ import annotations

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
    Regime,
    _IdentityChecker,
    classify_regime,
    det_int,
    exact_int,
    json_float,
    minimal_poly,
)
from .digitlab import BlockCensus, block_census
from .errors import AffineMixerError, ConfigInvalid, InsufficientData, StateSpaceTooLarge
from .evolution import (
    DEFAULT_N_CAP,
    ChainSpec,
    _half_abs_sum,
    evolve,
    mixing_time,
    simulate,
    tv_distance,
)
from .fourier import bounds_table
from .increments import IncrementDistribution, support_basis

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
# the largest l_max the schema accepts: the torsion search's cost grows
# faster than linearly in it
MAX_L_MAX = 256
# rows of evolve.csv and census.csv laid out, compressed and written at a
# time: a block's byte matrix, its mask and its compressed copy take a few
# hundred kB, and 2**16 rows made the census writer set the digit-census
# task's peak resident memory
_ROW_BLOCK = 2**13
# values of a law keyed by one np.unique and repr-ed at a time, and the
# reprs kept for later batches: batches of 2**13 values wrote a two-point
# law of 497,025 states about 40% slower
_LAW_BLOCK = 2**16
_USAGE = "affine-mixer <task> --config cfg.json [--out DIR] [--seed N] [--eps F] [--n-cap N]"
# each command line flag and the reader of its value
_FLAGS = {"--config": str, "--out": str, "--seed": int, "--eps": float, "--n-cap": int}


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
        missing = [name for name in _TASKS[self.task][1] if getattr(self, name) is None]
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
        if self.l_max > MAX_L_MAX:
            raise ConfigInvalid(f"l_max = {self.l_max} exceeds the maximum {MAX_L_MAX}")
        bad = [m for m in self.fit_models if m not in FIT_MODELS]
        if bad:
            raise ConfigInvalid(f"unknown fit models {bad}; expected subset of {FIT_MODELS}")


def fit_exponent(rows: Sequence[SweepRow], model: str) -> FitResult:
    """Least-squares growth fit over the usable sweep rows.

    pow_p fits ln n_mix against ln p (slope = the power of p); log fits
    n_mix against ln p; loglog fits n_mix against ln p * ln ln p.  All fits
    include an intercept and report the RMS residual of the fitted value.
    A fit needs at least 3 usable rows and at least 2 distinct p among them
    (a line through points at one x is not determined); otherwise
    InsufficientData is raised.
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
    distinct = len({row.p for row in usable})
    if distinct < 2:
        raise InsufficientData(
            f"usable rows hold {distinct} distinct p; need at least 2 for a fit"
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
    regime = classify_regime(a, config.l_max).regime
    # in the paper's fast regimes n_mix is O(log p), within the dense
    # prefix, so no row hints another
    slow = regime not in (Regime.NON_UNIT_MODULUS, Regime.ROOTS_OF_INTEGER_EXPANDING)
    basis = support_basis(mu, a)
    det_a = det_int(a)
    rows: list[SweepRow] = []
    # (ln p, p, n_mix) of the rows answered, in a slow regime
    answered: list[tuple[float, int, int]] = []
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
            chain = ChainSpec(a, mu, p)
            hint = None
            if answered:
                # n_mix grows as p**2 in the slow regimes
                _, near, n_near = min(answered, key=lambda row: abs(row[0] - ln_p))
                hint = n_near * p * p // (near * near)
            try:
                n_mix = mixing_time(chain, config.eps, config.n_cap, hint=hint)
                reason = "" if n_mix is not None else "unmixed"
            except StateSpaceTooLarge as err:
                reason = f"error: {err.kind}"
            if slow and n_mix is not None:
                answered.append((ln_p, p, n_mix))
        rows.append(SweepRow(p, regime.value, n_mix, ln_p, lnln, p * p, not reasons, reason))
    if not any(row.admissible for row in rows):
        raise ConfigInvalid("no admissible modulus in p_list")
    return rows


@contextlib.contextmanager
def _atomic(path: str, binary: bool = False) -> Iterator[IO]:
    """A handle on path + ".tmp", renamed to path on success, removed on
    failure: a byte handle when binary, else a text handle that translates
    no newlines."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="") as handle:
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


def _decimal(values: np.ndarray) -> np.ndarray:
    """Nonnegative integers in decimal, as a (len(values), width) uint8
    matrix of right-aligned digits, NUL-padded on the left."""
    width = len(str(int(values.max())))
    cells = np.zeros((len(values), width), dtype=np.uint8)
    # from the units up, in unsigned ints, whose division by a constant
    # numpy vectorises; a leading 0 stays NUL
    rest = values.astype(np.uint32 if width < 10 else np.uint64)
    for j in range(width - 1, -1, -1):
        quotient = rest // 10
        digit = rest - 10 * quotient + ord("0")
        if j < width - 1:
            digit *= rest > 0
        cells[:, j] = digit
        rest = quotient
    return cells


def _write_rows(handle: IO[bytes], columns: Sequence[np.ndarray]) -> None:
    """Write csv rows, the bytes csv.writer gives for the same cells, none
    of which needs quoting.

    Each column is a 1-D array of nonnegative integers, written in decimal,
    or a (rows, width) uint8 matrix of NUL-padded cell bytes.  The rows go
    out _ROW_BLOCK at a time, whatever the length of the columns: a block
    is laid out as one fixed-width uint8 matrix, cells NUL-padded with a
    comma after each and a newline after the last, and one boolean
    compress drops the NULs.
    """
    for start in range(0, len(columns[0]), _ROW_BLOCK):
        block = [c[start : start + _ROW_BLOCK] for c in columns]
        cells = [_decimal(c) if c.ndim == 1 else c for c in block]
        rows = np.empty((len(cells[0]), sum(c.shape[1] + 1 for c in cells)), dtype=np.uint8)
        at = 0
        for cell in cells:
            rows[:, at : at + cell.shape[1]] = cell
            at += cell.shape[1] + 1
            rows[:, at - 1] = ord(",")
        rows[:, -1] = ord("\n")
        flat = rows.reshape(-1)
        handle.write(flat[flat != 0])


def _write_law(path: str, values: np.ndarray) -> str:
    """Write a law as the csv rows "index,probability", the bytes csv.writer
    gives over enumerate(values.tolist()), in batches of _LAW_BLOCK values.
    Each distinct value of a batch is found by one np.unique over its bit
    pattern, so 0.0 and -0.0 stay apart, and repr-ed once; the reprs are
    kept for later batches until they number a batch's worth.  A batch's
    rows go out through _write_rows, _ROW_BLOCK at a time."""
    bits = values.view(np.int64)
    reprs: dict[int, bytes] = {}
    with _atomic(path, binary=True) as handle:
        handle.write(b"index,probability\n")
        for start in range(0, len(bits), _LAW_BLOCK):
            keys, inverse = np.unique(bits[start : start + _LAW_BLOCK], return_inverse=True)
            if len(reprs) >= _LAW_BLOCK:
                reprs.clear()
            texts = []
            for key, value in zip(keys.tolist(), keys.view(np.float64).tolist()):
                text = reprs.get(key)
                if text is None:
                    text = reprs[key] = repr(value).encode()
                texts.append(text)
            cells = np.array(texts)[inverse]
            index = np.arange(start, start + len(cells))
            _write_rows(handle, (index, cells.view(np.uint8).reshape(len(cells), -1)))
    return path


def _joined(blocks: np.ndarray) -> np.ndarray:
    """The rows of an (m, t) digit array as a cell matrix: each row's
    digits in decimal, joined by '-'.  Digits past 2**64 (Python ints in
    an object array) go through str one at a time."""
    m, t = blocks.shape
    digits = blocks.reshape(-1)
    if digits.dtype == object:
        text = digits.astype(bytes)
        cells = text.view(np.uint8).reshape(len(text), -1)
    else:
        cells = _decimal(digits)
    width = cells.shape[1]
    runs = np.zeros((m, t, width + 1), dtype=np.uint8)
    runs[:, :, :width] = cells.reshape(m, t, width)
    runs[:, :-1, width] = ord("-")
    return runs.reshape(m, -1)


def _write_census(path: str, census: BlockCensus) -> str:
    """Write census.csv, one row "a,block_index,digits,alternations" per
    block.  The columns are built and written _ROW_BLOCK rows at a time,
    so beside the census's arrays the writer holds one block's worth.  A
    block's digits are concatenated when sigma <= 10 and joined with '-'
    otherwise."""
    r = census.r
    digits = census.digits.reshape(-1, census.t)
    alternations = census.alternations.reshape(-1)
    with _atomic(path, binary=True) as handle:
        handle.write(b"a,block_index,digits,alternations\n")
        for start in range(0, len(digits), _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, len(digits))
            blocks = digits[start:stop]
            index = np.arange(start, stop)
            cells = blocks + ord("0") if census.sigma <= 10 else _joined(blocks)
            _write_rows(handle, (index // r + 1, index % r, cells, alternations[start:stop]))
    return path


def _dataclass_table(rows: Sequence) -> tuple[list[str], Iterator[list]]:
    """Header and cells of nonempty dataclass rows, one column per field; booleans as 0/1."""
    names = [f.name for f in fields(rows[0])]
    values = ((getattr(row, n) for n in names) for row in rows)
    return names, ([int(v) if isinstance(v, bool) else v for v in row] for row in values)


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
        # the floats of 0.5 * |empirical - exact|.sum(), with no difference array
        emp, exact = empirical.values, dist.values
        summary["tv_empirical_vs_exact"] = _half_abs_sum(
            len(exact), lambda out, part: np.subtract(emp[part], exact[part], out=out)
        )
        del empirical, emp  # freed before the exact law is written
    return [
        _write_law(os.path.join(out_dir, "evolve.csv"), dist.values),
        _write_json(os.path.join(out_dir, "evolve.json"), summary),
    ]


def _run_bounds(config: ExperimentConfig, out_dir: str) -> list[str]:
    chain = ChainSpec(config.matrix, config.increments, config.p, config.x0)
    rows = bounds_table(chain, config.n, config.l_max)
    return _write_report(
        out_dir,
        "bounds",
        *_dataclass_table(rows),
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
        *_dataclass_table(rows),
        {"eps": config.eps, "n_cap": config.n_cap, "fits": fits},
    )


def _run_digit_census(config: ExperimentConfig, out_dir: str) -> list[str]:
    census = block_census(config.p, config.sigma, config.t, config.r)
    return [
        _write_census(os.path.join(out_dir, "census.csv"), census),
        _write_json(
            os.path.join(out_dir, "census.json"),
            {
                "p": census.p,
                "sigma": census.sigma,
                "t": census.t,
                "r": census.r,
                "distinct_per_index": list(census.distinct_per_index),
                "min_alternations": census.min_alternations,
                "histogram": {str(key): val for key, val in census.histogram.items()},
            },
        ),
    ]


def _run_verify_identities(config: ExperimentConfig, out_dir: str) -> list[str]:
    checker = _IdentityChecker(config.matrix, minimal_poly(config.matrix))
    d = checker.d
    rows = []
    for e in range(1, d + 1):
        for j, (ok, residual) in enumerate(checker.check(e, range(IDENTITY_J_MAX + 1))):
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


# task -> (runner, required config keys)
_TASKS = {
    "classify": (_run_classify, ("matrix",)),
    "evolve": (_run_evolve, ("matrix", "increments", "p", "n")),
    "bounds": (_run_bounds, ("matrix", "increments", "p", "n")),
    "mixing-sweep": (_run_mixing_sweep, ("matrix", "increments", "p_list")),
    "digit-census": (_run_digit_census, ("p", "sigma")),
    "verify-identities": (_run_verify_identities, ("matrix",)),
}
TASKS = tuple(_TASKS)


def run(config: ExperimentConfig, out_dir: Optional[str] = None) -> list[str]:
    """Execute one experiment; returns the list of files written."""
    target = out_dir or config.out or DEFAULT_OUT
    os.makedirs(target, exist_ok=True)
    runner, _ = _TASKS[config.task]
    return runner(config, target)


def _json_int(literal: str) -> int:
    """A JSON integer literal's value; one longer than Python's int digit
    limit (4300 by default) is a ConfigInvalid, not a bare ValueError."""
    try:
        return int(literal)
    except ValueError as err:
        raise ConfigInvalid(f"integer of {len(literal)} characters: {err}") from err


def _parse_argv(argv: Sequence[str]) -> tuple[str, dict]:
    """The task and the flag values of a command line, keyed by config name
    (--n-cap as n_cap): one of TASKS first, then --flag value or
    --flag=value pairs, the last value of a repeated flag kept.  A
    malformed command line is a ConfigInvalid."""
    if not argv or argv[0] not in TASKS:
        raise ConfigInvalid(f"expected a task first, one of {TASKS}; got {list(argv[:1])}")
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        read = _FLAGS.get(flag)
        if read is None:
            raise ConfigInvalid(f"unexpected argument {token!r}; flags are {list(_FLAGS)}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ConfigInvalid(f"flag {flag} needs a value")
        try:
            values[flag[2:].replace("-", "_")] = read(value)
        except ValueError as err:
            raise ConfigInvalid(f"flag {flag}: {err}") from err
    if "config" not in values:
        raise ConfigInvalid("the flag --config is required")
    return argv[0], values


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        # python -OO strips docstrings; the usage line still prints
        print(__doc__.strip() if __doc__ else _USAGE)
        return 0
    try:
        task, flags = _parse_argv(argv)
        with open(flags["config"]) as handle:
            raw = json.load(handle, parse_int=_json_int)
        config = ExperimentConfig.from_json(raw, task=task)
        for name in ("seed", "eps", "n_cap"):
            if name in flags:
                setattr(config, name, flags[name])
        config.validate()
        written = run(config, flags.get("out"))
    except Exception as err:  # every failure ends in one machine readable record
        kind = err.kind if isinstance(err, AffineMixerError) else type(err).__name__
        json.dump({"error": {"kind": kind, "message": str(err)}}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    # run this way the module is a second copy beside the one the package
    # imported, and would define main without calling it
    sys.exit("run the CLI as python -m affine_mixer <task> (or affine-mixer <task>)")
