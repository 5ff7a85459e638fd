"""Output checks for the benchmark's CLI tasks.

Two checks, both on the files a task wrote:

* `invariants` holds on every seed: the paper's bound sandwich
  lower_best <= tv <= sqrt(upper) on each bounds row, an evolved law that
  sums to 1, a digit census whose histogram totals (p - 1) * r, and the
  row counts and flags each task's config implies.
* `compare` matches a task's outputs against a reference summary saved
  from an earlier commit for the workload's default seed.  Integer and
  string fields must match exactly; float fields within the absolute
  tolerance FLOAT_TOL names for them.

Large CSVs are summarised rather than stored: a hash of the exact columns,
the float columns at SAMPLES evenly spaced rows, and their sums.  Files
are read as streams so the benchmark process stays small; see run.py.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

# Absolute tolerance per float field, in CSV columns and JSON keys alike.
FLOAT_TOL = {
    "ln_p": 1e-12,
    "ln_p_ln_ln_p": 1e-12,
    "coefficient": 1e-6,
    "intercept": 1e-6,
    "rms_residual": 1e-6,
    "tv": 1e-9,
    "final_tv": 1e-9,
    "upper": 1e-6,
    "final_upper": 1e-6,
    "lower_best": 1e-9,
    "final_lower_best": 1e-9,
    "certificate": 1e-9,
    "probability": 1e-12,
    "tv_empirical_vs_exact": 1e-9,
    "eigenvalues": 1e-6,
    "residual": 1e-6,
    "max_residual": 1e-6,
}
SAMPLES = 256
BOUND_SLACK = 1e-12

OUTPUTS = {
    "classify": ("classify.json",),
    "evolve": ("evolve.csv", "evolve.json"),
    "bounds": ("bounds.csv", "bounds.json"),
    "mixing-sweep": ("sweep.csv", "sweep.json"),
    "digit-census": ("census.csv", "census.json"),
    "verify-identities": ("identities.csv", "identities.json"),
}


def _rows(path: str):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        for row in reader:
            yield header, row


def _column(path: str, name: str):
    """The nonempty cells of one float column, as a stream."""
    for header, row in _rows(path):
        cell = row[header.index(name)]
        if cell:
            yield float(cell)


def summarize_csv(path: str) -> dict:
    """Header, row count, hash of the exact columns, sampled float columns
    and float column sums of a CSV output."""
    with open(path, newline="") as handle:
        n_rows = sum(1 for _ in handle) - 1
    stride = max(1, -(-n_rows // SAMPLES))
    digest = hashlib.sha256()
    header: list[str] = []
    samples: dict[str, list] = {}
    for i, (header, row) in enumerate(_rows(path)):
        floats = [cell for name, cell in zip(header, row) if name in FLOAT_TOL]
        exact = [cell for name, cell in zip(header, row) if name not in FLOAT_TOL]
        digest.update(("\x1f".join(exact) + "\n").encode())
        if i % stride == 0:
            samples[str(i)] = [float(cell) if cell else cell for cell in floats]
    return {
        "header": header,
        "rows": n_rows,
        "exact_sha256": digest.hexdigest(),
        "samples": samples,
        "sums": {
            name: math.fsum(_column(path, name)) for name in header if name in FLOAT_TOL
        },
    }


def summarize(task: str, out_dir: str) -> dict:
    """Reference summary of every output file of one task."""
    out = {}
    for name in OUTPUTS[task]:
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            out[name] = summarize_csv(path)
        else:
            with open(path) as handle:
                out[name] = json.load(handle)
    return out


def _close(key: str, ref, got, where: str, errors: list[str], scale: int = 1) -> None:
    tol = FLOAT_TOL.get(key)
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            errors.append(f"{where}: keys {sorted(got)} != {sorted(ref)}")
            return
        for sub in ref:
            _close(sub if sub in FLOAT_TOL else key, ref[sub], got[sub], f"{where}.{sub}", errors, scale)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            errors.append(f"{where}: length {len(got)} != {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _close(key, r, g, f"{where}[{i}]", errors, scale)
    elif tol is not None and isinstance(ref, float) and isinstance(got, float):
        if not abs(ref - got) <= tol * scale:
            errors.append(f"{where}: {got!r} differs from {ref!r} by more than {tol * scale}")
    elif type(ref) is not type(got) or ref != got:
        errors.append(f"{where}: {got!r} != {ref!r}")


def compare(reference: dict, got: dict) -> list[str]:
    """Mismatches between a task's output summary and its reference."""
    errors: list[str] = []
    for name, ref in reference.items():
        if name not in got:
            errors.append(f"{name}: missing")
            continue
        if not name.endswith(".csv"):
            _close("", ref, got[name], name, errors)
            continue
        for part in ("header", "rows", "exact_sha256"):
            _close("", ref[part], got[name][part], f"{name}:{part}", errors)
        ref_cols = [col for col in ref["header"] if col in FLOAT_TOL]
        for row, ref_vals in ref["samples"].items():
            got_vals = got[name]["samples"].get(row)
            if got_vals is None:
                errors.append(f"{name}: sampled row {row} missing")
                continue
            for col, r, g in zip(ref_cols, ref_vals, got_vals):
                _close(col, r, g, f"{name}[{row}].{col}", errors)
        for col, total in ref["sums"].items():
            _close(col, total, got[name]["sums"].get(col), f"{name}:sum({col})", errors, ref["rows"])
    return errors


def _fail(errors: list[str], cond: bool, message: str) -> None:
    if not cond:
        errors.append(message)


def invariants(task: str, config: dict, out_dir: str) -> list[str]:
    """Violations of the properties every correct output has, on any seed."""
    errors: list[str] = []
    path = lambda name: os.path.join(out_dir, name)  # noqa: E731
    if task == "bounds":
        n_rows = 0
        for header, row in _rows(path("bounds.csv")):
            rec = dict(zip(header, row))
            tv, upper, lower = float(rec["tv"]), float(rec["upper"]), float(rec["lower_best"])
            _fail(errors, lower <= tv + BOUND_SLACK, f"bounds n={rec['n']}: lower_best {lower} > tv {tv}")
            _fail(
                errors,
                tv <= math.sqrt(upper) + BOUND_SLACK,
                f"bounds n={rec['n']}: tv {tv} > sqrt(upper) {math.sqrt(upper)}",
            )
            n_rows += 1
        _fail(errors, n_rows == config["n"] + 1, f"bounds: {n_rows} rows for n = {config['n']}")
    elif task == "evolve":
        k = len(config["matrix"])
        n_rows = sum(1 for _ in _rows(path("evolve.csv")))
        total = math.fsum(_column(path("evolve.csv"), "probability"))
        low = min(_column(path("evolve.csv"), "probability"))
        _fail(errors, n_rows == config["p"] ** k, f"evolve: {n_rows} states")
        _fail(errors, abs(total - 1.0) <= 1e-9, f"evolve: probabilities sum to {total}")
        _fail(errors, low >= 0.0, "evolve: negative probability")
    elif task == "digit-census":
        with open(path("census.json")) as handle:
            census = json.load(handle)
        expected = (config["p"] - 1) * config["r"]
        total = sum(census["histogram"].values())
        _fail(errors, total == expected, f"census: histogram totals {total}, not {expected}")
        n_rows = sum(1 for _ in _rows(path("census.csv")))
        _fail(errors, n_rows == expected, f"census: {n_rows} rows, not {expected}")
    elif task == "mixing-sweep":
        rows = [dict(zip(header, row)) for header, row in _rows(path("sweep.csv"))]
        _fail(
            errors,
            [int(r["p"]) for r in rows] == config["p_list"],
            "sweep: rows do not follow p_list",
        )
        _fail(
            errors,
            all(r["n_mix"].isdigit() and int(r["n_mix"]) >= 1 for r in rows),
            "sweep: a modulus did not mix",
        )
    elif task == "verify-identities":
        with open(path("identities.json")) as handle:
            summary = json.load(handle)
        n_rows = sum(1 for _ in _rows(path("identities.csv")))
        _fail(errors, summary["all_ok"] is True, "identities: not all ok")
        _fail(errors, n_rows == summary["d"] * (summary["j_max"] + 1), f"identities: {n_rows} rows")
    elif task == "classify":
        with open(path("classify.json")) as handle:
            report = json.load(handle)
        k = len(config["matrix"])
        _fail(errors, report["matrix"] == config["matrix"], "classify: matrix differs from config")
        _fail(
            errors,
            report["char_poly"][0] == (-1) ** k * report["det"],
            "classify: char_poly(0) != (-1)^k det",
        )
        _fail(errors, len(report["eigenvalues"]) == k, "classify: eigenvalue count")
    return errors
