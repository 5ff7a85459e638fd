"""Config validation, sweep fits, report files, and the console entry point."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from affine_mixer import (
    AffineMixerError,
    ConfigInvalid,
    ExperimentConfig,
    InsufficientData,
    SweepRow,
    fit_exponent,
    mixing_sweep,
    run,
)
from affine_mixer import cli, errors
from affine_mixer.cli import _ROW_BLOCK, TASKS, _write_census, _write_law, _write_report, main
from affine_mixer.digitlab import block_census
from affine_mixer.evolution import STATE_CAP_ENV
from common import time_limit


def cfg_evolve(tmp_path, **overrides):
    obj = {
        "task": "evolve",
        "matrix": [[2]],
        "increments": {"k": 1, "support": [[0], [1]], "probs": [0.5, 0.5]},
        "p": 3,
        "n": 2,
    }
    obj.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    return path


def test_from_json_validation():
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_json([])  # not an object
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_json({"matrix": [[2]]})  # no task anywhere
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_json({"task": "evolve"}, task="bounds")
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_json({"task": "frobnicate"})
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_json({"task": "classify", "matrix": [[2]], "zz": 1})
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_json({"task": "classify", "matrix": "nope"})


def test_from_json_missing_task_keys():
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_json({"task": "classify"})
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_json({"task": "evolve", "matrix": [[2]], "p": 3})
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_json({"task": "digit-census", "p": 5})
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_json(
            {
                "task": "mixing-sweep",
                "matrix": [[1]],
                "increments": {"k": 1, "support": [[0], [1]], "probs": [0.5, 0.5]},
                "p_list": [],
            }
        )


def test_from_json_eps_and_models():
    base = {"task": "classify", "matrix": [[2]]}
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_json({**base, "eps": 1.5})
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_json({**base, "fit_models": ["cubic"]})
    cfg = ExperimentConfig.from_json({**base, "eps": 0.4})
    assert cfg.eps == 0.4
    assert cfg.fit_models == ("pow_p", "log", "loglog")


def synthetic_rows(fn, ps=(5, 7, 11, 13, 17, 19, 23, 29, 31)):
    rows = []
    for p in ps:
        ln_p = math.log(p)
        rows.append(
            SweepRow(
                p=p,
                regime="UnitRootMixed",
                n_mix=fn(p),
                ln_p=ln_p,
                ln_p_ln_ln_p=ln_p * math.log(ln_p),
                p_sq=p * p,
                admissible=True,
            )
        )
    return rows


def test_fit_exponent_power_law():
    fit = fit_exponent(synthetic_rows(lambda p: 3.0 * p * p), "pow_p")
    assert fit.coefficient == pytest.approx(2.0, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)
    assert fit.rms_residual < 1e-12
    assert fit.points == 9


def test_fit_exponent_log_model():
    fit = fit_exponent(synthetic_rows(lambda p: 7.0 * math.log(p) + 2.0), "log")
    assert fit.coefficient == pytest.approx(7.0, abs=1e-9)
    assert fit.intercept == pytest.approx(2.0, abs=1e-9)


def test_fit_exponent_loglog_model():
    fit = fit_exponent(
        synthetic_rows(lambda p: 4.0 * math.log(p) * math.log(math.log(p)) + 1.0),
        "loglog",
    )
    assert fit.coefficient == pytest.approx(4.0, abs=1e-9)


def test_fit_exponent_skips_unusable_rows():
    rows = synthetic_rows(lambda p: float(p * p))
    rows[0].admissible = False
    rows[1].n_mix = None
    rows[2].n_mix = 0.0  # below the n_mix >= 1 floor used for the ln fit
    fit = fit_exponent(rows, "pow_p")
    assert fit.points == 6


def test_fit_exponent_insufficient_data():
    rows = synthetic_rows(lambda p: float(p), ps=(5, 7))
    with pytest.raises(InsufficientData):
        fit_exponent(rows, "pow_p")
    with pytest.raises(ValueError):
        fit_exponent(synthetic_rows(lambda p: float(p)), "cubic")


def test_fit_exponent_needs_two_distinct_moduli():
    rows = synthetic_rows(lambda p: float(p), ps=(7, 7, 7, 7))
    for model in ("pow_p", "log", "loglog"):
        with pytest.raises(InsufficientData, match="1 distinct p"):
            fit_exponent(rows, model)
    # two distinct moduli among the usable rows are enough
    assert fit_exponent(synthetic_rows(lambda p: float(p), ps=(7, 7, 11)), "log").points == 3


def sweep_config(matrix, p_list, k=1, **overrides):
    support = [[0] * k, [1] + [0] * (k - 1)]
    obj = {
        "task": "mixing-sweep",
        "matrix": matrix,
        "increments": {"k": k, "support": support, "probs": [0.5, 0.5]},
        "p_list": p_list,
    }
    obj.update(overrides)
    return ExperimentConfig.from_json(obj)


def test_mixing_sweep_slow_chain_grows():
    rows = mixing_sweep(sweep_config([[1]], [5, 7, 9]))
    times = [row.n_mix for row in rows]
    assert all(t is not None for t in times)
    assert times[0] < times[1] < times[2]
    assert all(row.regime == "UnitRootMixed" for row in rows)
    assert all(row.admissible for row in rows)


def test_mixing_sweep_flags_inadmissible():
    rows = mixing_sweep(sweep_config([[0, 1], [2, 0]], [2, 5], k=2))
    assert not rows[0].admissible
    assert rows[0].n_mix is None
    assert "gcd(det(A),p)=2" in rows[0].reason
    assert "gcd(det(B),p)=2" in rows[0].reason
    assert rows[1].admissible


def test_mixing_sweep_unmixed_rows():
    rows = mixing_sweep(sweep_config([[1]], [101], n_cap=3))
    assert rows[0].admissible
    assert rows[0].n_mix is None
    assert rows[0].reason == "unmixed"


def test_mixing_sweep_needs_one_admissible():
    with pytest.raises(ConfigInvalid):
        mixing_sweep(sweep_config([[0, 1], [2, 0]], [2], k=2))


def test_run_classify_report(tmp_path):
    cfg = ExperimentConfig.from_json({"task": "classify", "matrix": [[0, 1], [2, 0]]})
    paths = run(cfg, str(tmp_path))
    assert paths == [str(tmp_path / "classify.json")]
    report = json.loads((tmp_path / "classify.json").read_text())
    assert report["regime"] == "RootsOfIntegerExpanding"
    assert report["char_poly"] == [-2, 0, 1]
    assert report["min_poly"] == [-2, 0, 1]
    assert report["d"] == 2
    assert report["det"] == -2
    assert report["factors"][0]["order"] == [2, 2]
    assert report["remainder"] is None


def test_run_evolve_reports(tmp_path):
    cfg = ExperimentConfig.from_json(
        json.loads(cfg_evolve(tmp_path).read_text()), task="evolve"
    )
    paths = run(cfg, str(tmp_path / "out"))
    with open(paths[0]) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["index", "probability"]
    assert [r[1] for r in rows[1:]] == ["0.5", "0.25", "0.25"]
    summary = json.loads((tmp_path / "out" / "evolve.json").read_text())
    assert summary["tv"] == pytest.approx(1 / 6, abs=1e-15)
    assert "tv_empirical_vs_exact" not in summary


def test_run_evolve_with_trials(tmp_path):
    cfg = ExperimentConfig.from_json(
        json.loads(cfg_evolve(tmp_path, trials=2000, seed=9).read_text()),
        task="evolve",
    )
    run(cfg, str(tmp_path / "out"))
    summary = json.loads((tmp_path / "out" / "evolve.json").read_text())
    assert summary["trials"] == 2000
    assert summary["seed"] == 9
    assert 0 <= summary["tv_empirical_vs_exact"] < 0.2


def test_run_bounds_reports(tmp_path):
    cfg = ExperimentConfig.from_json(
        {
            "task": "bounds",
            "matrix": [[0, -1], [1, 0]],
            "increments": {"k": 2, "support": [[0, 0], [1, 0]], "probs": [0.5, 0.5]},
            "p": 11,
            "n": 5,
        }
    )
    paths = run(cfg, str(tmp_path))
    with open(paths[0]) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["n", "tv", "upper", "lower_best", "alpha_witness", "certificate"]
    assert len(rows) == 7
    gamma = 4 * math.pi**2
    for record in rows[1:]:
        n = int(record[0])
        tv = float(record[1])
        assert tv * tv <= float(record[2]) + 1e-9
        assert tv >= float(record[3]) - 1e-9
        assert float(record[5]) == pytest.approx(
            0.5 * (1 - gamma / 121) ** (n / 2), abs=1e-12
        )
    summary = json.loads((tmp_path / "bounds.json").read_text())
    assert summary["n_max"] == 5
    assert summary["final_tv"] >= summary["final_lower_best"] - 1e-9


def test_run_sweep_reports(tmp_path):
    cfg = sweep_config([[1]], [5, 7, 9, 11, 13])
    paths = run(cfg, str(tmp_path))
    with open(paths[0]) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "p", "regime", "n_mix", "ln_p", "ln_p_ln_ln_p", "p_sq", "admissible", "reason",
    ]
    assert len(rows) == 6
    report = json.loads((tmp_path / "sweep.json").read_text())
    assert report["eps"] == 0.25
    by_model = {fit["model"]: fit for fit in report["fits"]}
    assert set(by_model) == {"pow_p", "log", "loglog"}
    assert 1.5 <= by_model["pow_p"]["coefficient"] <= 2.5


def test_run_census_reports(tmp_path):
    cfg = ExperimentConfig.from_json({"task": "digit-census", "p": 5, "sigma": 2})
    paths = run(cfg, str(tmp_path))
    with open(paths[0]) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["a", "block_index", "digits", "alternations"]
    assert rows[1] == ["1", "0", "001", "1"]
    report = json.loads((tmp_path / "census.json").read_text())
    assert report["distinct_per_index"] == [True]
    assert report["histogram"] == {"1": 4}


def test_run_census_wide_base_separator(tmp_path):
    cfg = ExperimentConfig.from_json(
        {"task": "digit-census", "p": 5, "sigma": 16, "t": 2}
    )
    paths = run(cfg, str(tmp_path))
    with open(paths[0]) as handle:
        rows = {r[0]: r[2] for r in list(csv.reader(handle))[1:]}
    assert rows["4"] == "12-12"  # 4/5 = 0.CC... in base 16


def reference_census_files(p, sigma, t, r):
    """census.csv and census.json text written one (a, block) row at a time."""
    census = block_census(p, sigma, t, r)
    sep = "" if sigma <= 10 else "-"
    lines = ["a,block_index,digits,alternations"]
    rows = zip(census.digits.tolist(), census.alternations.tolist())
    for a, (blocks, alts) in enumerate(rows, start=1):
        for i, (block, alt) in enumerate(zip(blocks, alts)):
            lines.append(f"{a},{i},{sep.join(str(d) for d in block)},{alt}")
    summary = {
        "p": census.p,
        "sigma": census.sigma,
        "t": census.t,
        "r": census.r,
        "distinct_per_index": list(census.distinct_per_index),
        "min_alternations": min(map(min, census.alternations.tolist())),
        "histogram": {str(key): val for key, val in census.histogram.items()},
    }
    return "\n".join(lines) + "\n", json.dumps(summary, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "p, sigma, t, r",
    [(2, 2, None, 1), (7, 7, 3, 2), (1009, 10, None, 3), (997, 3, 40, 1), (211, 16, 3, 2), (101, 10**18, None, 2)],
)
def test_census_files_match_per_row_writer(tmp_path, p, sigma, t, r):
    obj = {"task": "digit-census", "p": p, "sigma": sigma, "r": r}
    if t is not None:
        obj["t"] = t
    csv_path, json_path = run(ExperimentConfig.from_json(obj), str(tmp_path))
    expected_csv, expected_json = reference_census_files(p, sigma, t, r)
    with open(csv_path, "rb") as handle:
        assert handle.read() == expected_csv.encode()
    with open(json_path, "rb") as handle:
        assert handle.read() == expected_json.encode()


def census_files(directory, obj) -> tuple[bytes, bytes]:
    csv_path, json_path = run(ExperimentConfig.from_json(obj), str(directory))
    with open(csv_path, "rb") as csv_file, open(json_path, "rb") as json_file:
        return csv_file.read(), json_file.read()


# sigma up to 2**64 + 2**10: digits in uint8 up to uint64, and past 2**64 in
# an object array of Python ints
@settings(max_examples=80, deadline=None)
@given(
    p=st.integers(2, 60),
    sigma=st.one_of(st.integers(2, 40), st.integers(2**63 - 2**10, 2**64 + 2**10)),
    t=st.none() | st.integers(1, 6),
    r=st.integers(1, 3),
    block=st.integers(1, 8),
)
@example(p=23, sigma=10**20, t=2, r=2, block=3)
def test_property_census_files_match_per_row_writer_at_any_block(p, sigma, t, r, block):
    obj = {"task": "digit-census", "p": p, "sigma": sigma, "r": r}
    if t is not None:
        obj["t"] = t
    expected = tuple(text.encode() for text in reference_census_files(p, sigma, t, r))
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_ROW_BLOCK", block)
        assert census_files(directory, obj) == expected


def test_census_left_absent_when_a_block_fails(tmp_path, monkeypatch):
    # the census streams into census.csv.tmp a block at a time; a failure
    # after its first block removes that and writes no census.json
    calls = []

    def write_rows(*args, _original=cli._write_rows):
        calls.append(os.listdir(tmp_path))
        if len(calls) == 2:
            raise RuntimeError("block failed")
        return _original(*args)

    monkeypatch.setattr(cli, "_ROW_BLOCK", 4)
    monkeypatch.setattr(cli, "_write_rows", write_rows)
    cfg = ExperimentConfig.from_json({"task": "digit-census", "p": 11, "sigma": 2})
    with pytest.raises(RuntimeError, match="block failed"):
        run(cfg, str(tmp_path))
    assert calls == [["census.csv.tmp"]] * 2
    assert os.listdir(tmp_path) == []  # neither census.csv nor census.csv.tmp


def traced_peak(work) -> int:
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rows", [2**18, 2**21])
def test_law_writer_memory_does_not_grow_with_the_rows(tmp_path, rows):
    # runs of 16 equal values: a block holds 4096 distinct ones, so at 2**21
    # rows the reprs kept for later blocks reach a block's worth and are
    # dropped (kept, they would reach 2**17 and the peak some 24 MB); the
    # 2**21-row file itself is about 57 MB
    values = np.repeat(np.random.default_rng(rows).random(rows // 16), 16)
    path = str(tmp_path / "evolve.csv")
    assert traced_peak(lambda: _write_law(path, values)) <= 20 * 2**20
    assert os.path.getsize(path) > rows * 20


@pytest.mark.parametrize("p, r", [(10_007, 10), (100_003, 10)])
def test_census_writer_memory_does_not_grow_with_the_rows(tmp_path, p, r):
    # beyond the census's own arrays: 10**5 and 10**6 rows, written a block
    # of _ROW_BLOCK rows at a time
    census = block_census(p, 2, None, r)
    path = str(tmp_path / "census.csv")
    assert traced_peak(lambda: _write_census(path, census)) <= 10 * 2**20
    assert os.path.getsize(path) > (p - 1) * r * 20


def test_block_census_memory_stays_near_its_arrays():
    # tracemalloc peak over the bytes of the digits and alternations the
    # census keeps: beside them only the long division's remainders, one
    # block's codes and the alternation masks (2.6 here); an int64 copy of
    # each block's digits for a matmul to codes, and np.unique's hash
    # table, took it to 3.88
    block_census(7, 2, None, 2)  # one-off first-call work stays out of the peak
    peak = traced_peak(lambda: block_census(100_003, 2, None, 2))
    census = block_census(100_003, 2, None, 2)
    assert peak <= 3.25 * (census.digits.nbytes + census.alternations.nbytes)


def test_main_census_over_state_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(STATE_CAP_ENV, "20")
    text = json.dumps({"task": "digit-census", "p": 11, "sigma": 2, "r": 3})
    code, record = run_main_on_text(tmp_path, capsys, "digit-census", text)
    assert code == 1
    assert record["error"]["kind"] == "StateSpaceTooLarge"


def test_main_census_over_digit_budget(tmp_path, capsys):
    # 2 * 10**12 digits: refused before the long division allocates them
    text = json.dumps({"task": "digit-census", "p": 3, "sigma": 2, "t": 10**12})
    code, record = run_main_on_text(tmp_path, capsys, "digit-census", text)
    assert code == 1
    assert record["error"]["kind"] == "StateSpaceTooLarge"


def test_report_left_absent_when_rows_fail(tmp_path):
    def rows():
        yield 0, 0.5
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        _write_report(str(tmp_path), "evolve", ("index", "probability"), rows(), {})
    assert os.listdir(tmp_path) == []  # neither evolve.csv nor evolve.csv.tmp


def csv_law(values: np.ndarray) -> bytes:
    """evolve.csv as csv.writer writes it, row by row: the oracle of the
    block writer _write_law."""
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(("index", "probability"))
    writer.writerows(enumerate(values.tolist()))
    return handle.getvalue().encode()


def written_law(directory, values: np.ndarray) -> bytes:
    path = os.path.join(str(directory), "evolve.csv")
    assert _write_law(path, values) == path
    with open(path, "rb") as handle:
        return handle.read()


# 0.0 and -0.0 have equal values but different bits; 5e-324 is the least
# subnormal; repr switches to exponent form between 1e-4 and 9.999e-05
# and from 1e16 on
AWKWARD_FLOATS = [0.0, -0.0, 5e-324, 9.999e-05, 1e-4, 1e16, 0.1, 1 / 3, 2.5e-7, 1.0]


@pytest.mark.parametrize("length", [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1])
def test_law_writer_matches_csv_writer(tmp_path, length):
    rng = np.random.default_rng(length)
    values = rng.choice(np.array(AWKWARD_FLOATS + list(rng.random(500))), size=length)
    # one value on both sides of the block boundary, and every awkward value
    # in the last (possibly one-row) block too
    values[_ROW_BLOCK - 2 : _ROW_BLOCK] = -0.0
    values[-len(AWKWARD_FLOATS) :] = AWKWARD_FLOATS
    assert written_law(tmp_path, values) == csv_law(values)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=False), max_size=40).map(np.array),
    block=st.integers(1, 8),
)
def test_property_law_writer_matches_csv_writer_at_any_block(values, block):
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_ROW_BLOCK", block)
        assert written_law(directory, values) == csv_law(values)


def test_law_left_absent_when_a_block_fails(tmp_path, monkeypatch):
    # the block writer streams into evolve.csv.tmp; a failure after its
    # first block removes that and leaves no evolve.csv
    calls = []

    def unique(*args, _original=np.unique, **kwargs):
        calls.append(os.listdir(tmp_path))
        if len(calls) == 2:
            raise RuntimeError("block failed")
        return _original(*args, **kwargs)

    monkeypatch.setattr(cli.np, "unique", unique)
    with pytest.raises(RuntimeError, match="block failed"):
        _write_law(str(tmp_path / "evolve.csv"), np.full(_ROW_BLOCK + 1, 0.5))
    assert calls == [["evolve.csv.tmp"]] * 2
    assert os.listdir(tmp_path) == []  # neither evolve.csv nor evolve.csv.tmp


def test_run_identities_reports(tmp_path):
    cfg = ExperimentConfig.from_json(
        {"task": "verify-identities", "matrix": [[2, 1], [1, 1]]}
    )
    paths = run(cfg, str(tmp_path))
    with open(paths[0]) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["e", "j", "ok", "residual"]
    assert len(rows) == 1 + 2 * 11  # d = 2, j = 0..10
    assert all(r[2] == "1" for r in rows[1:])
    report = json.loads((tmp_path / "identities.json").read_text())
    assert report["all_ok"] is True
    assert report["max_residual"] <= 1e-8


FAIR_1D = {"k": 1, "support": [[0], [1]], "probs": [0.5, 0.5]}
FAIR_2D = {"k": 2, "support": [[0, 0], [1, 0]], "probs": [0.5, 0.5]}


def test_main_sweep_records_a_modulus_over_the_state_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(STATE_CAP_ENV, "1000")
    obj = {"matrix": [[2]], "increments": FAIR_1D, "p_list": [101, 1009, 103, 107]}
    code, record = run_main_on_text(tmp_path, capsys, "mixing-sweep", json.dumps(obj))
    assert (code, record) == (0, None)
    with open(tmp_path / "out" / "sweep.csv") as handle:
        rows = {row["p"]: row for row in csv.DictReader(handle)}
    over = rows.pop("1009")
    assert (over["admissible"], over["n_mix"], over["reason"]) == (
        "1",
        "",
        "error: StateSpaceTooLarge",
    )
    assert all(row["n_mix"] and not row["reason"] for row in rows.values())
    fits = json.loads((tmp_path / "out" / "sweep.json").read_text())["fits"]
    assert [fit["points"] for fit in fits] == [3, 3, 3]


def test_main_sweep_records_a_modulus_past_float_range(tmp_path, capsys):
    # p**k = 10**400 + 1 is refused by the state cap before anything prices
    # it in floats, so that row is a typed error and the others are written
    big = 10**400 + 1
    obj = {"matrix": [[2]], "increments": FAIR_1D, "p_list": [101, big, 103, 107]}
    code, record = run_main_on_text(tmp_path, capsys, "mixing-sweep", json.dumps(obj))
    assert (code, record) == (0, None)
    with open(tmp_path / "out" / "sweep.csv") as handle:
        rows = {row["p"]: row for row in csv.DictReader(handle)}
    over = rows.pop(str(big))
    assert (over["n_mix"], over["reason"]) == ("", "error: StateSpaceTooLarge")
    assert [row["n_mix"] for row in rows.values()] == ["7", "7", "7"]


def test_main_config_with_an_integer_past_the_digit_limit_is_config_invalid(tmp_path, capsys):
    # Python refuses to read an int of more than 4300 digits from text; that
    # refusal, raised inside json.load, ends in a ConfigInvalid record
    obj = {"matrix": [[2]], "increments": FAIR_1D, "p_list": [101, "BIG"]}
    text = json.dumps(obj).replace('"BIG"', "7" * 5002)
    code, record = run_main_on_text(tmp_path, capsys, "mixing-sweep", text)
    assert code == 1
    assert record["error"]["kind"] == "ConfigInvalid"
    assert "5002" in record["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_replay_is_byte_identical(tmp_path):
    cfgs = [
        sweep_config([[1]], [5, 7, 9, 11, 13]),
        ExperimentConfig.from_json({"task": "digit-census", "p": 101, "sigma": 2}),
        ExperimentConfig.from_json(
            json.loads(cfg_evolve(tmp_path, trials=500, seed=3).read_text()),
            task="evolve",
        ),
    ]
    for i, cfg in enumerate(cfgs):
        first = run(cfg, str(tmp_path / f"a{i}"))
        second = run(cfg, str(tmp_path / f"b{i}"))
        assert [p.rsplit("/", 1)[1] for p in first] == [
            p.rsplit("/", 1)[1] for p in second
        ]
        for pa, pb in zip(first, second):
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read(), pa


def test_main_happy_path(tmp_path, capsys):
    code = main(
        [
            "evolve",
            "--config",
            str(cfg_evolve(tmp_path)),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed == [
        str(tmp_path / "out" / "evolve.csv"),
        str(tmp_path / "out" / "evolve.json"),
    ]


def test_main_sweep_over_one_repeated_modulus_fits_nothing(tmp_path, capsys):
    # np.polyfit over three equal ln p was rank-deficient and only warned,
    # so sweep.json used to report a made-up slope with rms ~ 1e-16
    config = {
        "task": "mixing-sweep",
        "matrix": [[1]],
        "increments": {"k": 1, "support": [[0], [1]], "probs": [0.5, 0.5]},
        "p_list": [101, 101, 101],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["mixing-sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert [fit["model"] for fit in report["fits"]] == ["pow_p", "log", "loglog"]
    for fit in report["fits"]:
        assert set(fit) == {"model", "error"}
        assert "1 distinct p" in fit["error"]


def test_main_seed_override_changes_empirical_tv(tmp_path):
    path = cfg_evolve(tmp_path, trials=400, seed=1)
    outs = []
    for seed in ("10", "11"):
        main(["evolve", "--config", str(path), "--out", str(tmp_path / seed), "--seed", seed])
        outs.append(json.loads((tmp_path / seed / "evolve.json").read_text()))
    assert outs[0]["seed"] == 10 and outs[1]["seed"] == 11
    assert outs[0]["tv_empirical_vs_exact"] != outs[1]["tv_empirical_vs_exact"]


def test_main_error_record_on_singular_matrix(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"task": "classify", "matrix": [[1, 1], [1, 1]]}))
    code = main(["classify", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["kind"] == "SingularMatrix"
    assert "singular" in record["error"]["message"]


def test_main_error_record_on_missing_config(tmp_path, capsys):
    code = main(["classify", "--config", str(tmp_path / "absent.json")])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["kind"] == "FileNotFoundError"


def test_main_error_record_on_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["classify", "--config", str(path)])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["kind"] == "JSONDecodeError"


def test_main_task_conflict(tmp_path, capsys):
    path = cfg_evolve(tmp_path)
    code = main(["bounds", "--config", str(path)])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["kind"] == "ConfigInvalid"


def test_main_flag_override_revalidated(tmp_path, capsys):
    path = cfg_evolve(tmp_path)
    code = main(["evolve", "--config", str(path), "--eps", "2.0"])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["kind"] == "ConfigInvalid"


def test_main_bounds_zero_spread_law_long_run(tmp_path, capsys):
    # one support point: rho = 0, while ||T||**(2j) outgrows a float
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "task": "bounds",
                "matrix": [[2]],
                "increments": {"k": 1, "support": [[0]], "probs": [1.0]},
                "p": 101,
                "n": 600,
            }
        )
    )
    code = main(["bounds", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    with open(tmp_path / "out" / "bounds.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [int(row["n"]) for row in rows] == list(range(601))
    assert {row["certificate"] for row in rows} == {"0.5"}


def run_main_on_text(tmp_path, capsys, task, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code = main([task, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    return code, (json.loads(err) if err else None)


@pytest.mark.parametrize(
    "matrix, increments, certificates",
    [
        # a conjugate of the quarter turn: gamma carries ||T||**6, about 10**720
        (
            [[10**60, -(10**120) - 1], [1, -(10**60)]],
            FAIR_2D,
            ["0.5", "0.41040592281130683", "", ""],
        ),
        # rho carries the squared support gap, 10**800
        ([[2]], {"k": 1, "support": [[0], [10**400]], "probs": [0.5, 0.5]}, ["0.5", "", "", ""]),
    ],
)
def test_main_bounds_certificate_constants_past_float_range(
    tmp_path, capsys, matrix, increments, certificates
):
    obj = {"matrix": matrix, "increments": increments, "p": 11, "n": 3}
    code, record = run_main_on_text(tmp_path, capsys, "bounds", json.dumps(obj))
    assert (code, record) == (0, None)
    with open(tmp_path / "out" / "bounds.csv", newline="") as handle:
        assert [row["certificate"] for row in csv.DictReader(handle)] == certificates


@pytest.mark.parametrize(
    "task, extra",
    [
        ("classify", {}),
        ("verify-identities", {}),
        ("mixing-sweep", {"increments": FAIR_2D, "p_list": [11, 13]}),
    ],
)
def test_main_roots_past_float_range_are_out_of_range(tmp_path, capsys, task, extra):
    obj = dict(extra, matrix=[[10**200, 1], [0, 10**200 + 1]])
    code, record = run_main_on_text(tmp_path, capsys, task, json.dumps(obj))
    assert code == 1
    assert record["error"]["kind"] == "OutOfRange"
    assert list((tmp_path / "out").iterdir()) == []


def test_main_classifies_a_quadratic_with_a_tiny_root(tmp_path, capsys):
    # x^2 - 100000 x - 1: the sweep's regime column classifies A, whose small
    # root the closed form cancels to noise that the residual check refuses
    support = [[0, 0], [1, 0], [0, 1]]
    increments = {"k": 2, "support": support, "probs": [1 / 3] * 3}
    obj = {"matrix": [[100000, 1], [1, 0]], "increments": increments, "p_list": [11, 13, 17]}
    code, record = run_main_on_text(tmp_path, capsys, "mixing-sweep", json.dumps(obj))
    assert (code, record) == (0, None)
    with open(tmp_path / "out" / "sweep.csv") as handle:
        assert {row["regime"] for row in csv.DictReader(handle)} == {"NonUnitModulus"}


def test_main_identities_of_integer_eigenvalues_past_2_53_are_exact(tmp_path, capsys):
    # the eigenvalues 2**53 + 1 and 2**53 + 3 have no float; rounded, they
    # fail the identities by 1e160
    obj = {"matrix": [[2**53 + 1, 1], [0, 2**53 + 3]]}
    code, record = run_main_on_text(tmp_path, capsys, "verify-identities", json.dumps(obj))
    assert (code, record) == (0, None)
    report = json.loads((tmp_path / "out" / "identities.json").read_text())
    assert (report["all_ok"], report["max_residual"]) == (True, 0.0)


@pytest.mark.filterwarnings("error")  # stderr holds the record alone
def test_main_identities_of_irrational_eigenvalues_one_float_apart_are_typed(tmp_path, capsys):
    # 10**31 +- sqrt(2) round to one float, which must not be taken for an
    # integer eigenvalue: its exact residual is past float range
    obj = {"matrix": [[10**31, 2], [1, 10**31]]}
    code, record = run_main_on_text(tmp_path, capsys, "verify-identities", json.dumps(obj))
    if code:
        kind = getattr(errors, record["error"]["kind"], None)
        assert isinstance(kind, type) and issubclass(kind, AffineMixerError), record
    else:
        assert record is None


@pytest.mark.filterwarnings("error")  # stderr holds the record alone
def test_main_identities_past_float_range_are_out_of_range(tmp_path, capsys):
    # x^3 - 10**70 x - 1: T**6 already overflows, and a residual of inf or
    # nan must not reach the report, nor pass as ok
    obj = {"matrix": [[0, 0, 1], [1, 0, 10**70], [0, 1, 0]]}
    code, record = run_main_on_text(tmp_path, capsys, "verify-identities", json.dumps(obj))
    assert code == 1
    assert record["error"]["kind"] == "OutOfRange"
    assert list((tmp_path / "out").iterdir()) == []


EVOLVE_BASE = {
    "task": "evolve",
    "matrix": [[2]],
    "increments": {"k": 1, "support": [[0], [1]], "probs": [0.5, 0.5]},
    "p": 3,
    "n": 2,
}


@pytest.mark.parametrize(
    "override",
    [
        {"matrix": [[2.7]]},
        {"matrix": [[float("inf")]]},
        {"increments": {"k": 1, "support": [[0], [0.5]], "probs": [0.5, 0.5]}},
        {"increments": {"k": 1.5, "support": [[0], [1]], "probs": [0.5, 0.5]}},
        {"x0": [0.5]},
        {"p": 3.5},
        {"p_list": [101, 103.5]},
        {"n": float("nan")},
        {"n_cap": 1e3 + 0.5},
        {"l_max": float("-inf")},
        {"sigma": 2.5},
        {"t": 1.5},
        {"r": 1.25},
        {"seed": 0.5},
        {"trials": 10.5},
        {"seed": True},
        {"p": "3"},
    ],
)
def test_main_rejects_non_integral_config_integers(tmp_path, capsys, override):
    text = json.dumps({**EVOLVE_BASE, **override})
    code, record = run_main_on_text(tmp_path, capsys, "evolve", text)
    assert code == 1
    assert record["error"]["kind"] == "ConfigInvalid"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"task": "classify", "matrix": [[2.7, 0], [0, 3]]}',
        '{"task": "classify", "matrix": [[1e400]]}',
    ],
)
def test_main_rejects_truncated_or_overflowing_matrix(tmp_path, capsys, text):
    code, record = run_main_on_text(tmp_path, capsys, "classify", text)
    assert code == 1
    assert record["error"]["kind"] == "ConfigInvalid"
    assert "expected an integer" in record["error"]["message"]


def test_integral_floats_are_read_as_integers():
    cfg = ExperimentConfig.from_json({**EVOLVE_BASE, "matrix": [[2.0]], "p": 3.0, "n": 2.0})
    assert cfg.matrix.rows == ((2,),)
    assert (cfg.p, cfg.n) == (3, 2)
    assert all(type(v) is int for v in (cfg.p, cfg.n, cfg.matrix.rows[0][0]))


@pytest.mark.parametrize(
    "override",
    [
        {"p": 1},
        {"p": 0},
        {"p": -7},
        {"task": "mixing-sweep", "p_list": [101, 0]},
        {"l_max": 0},
        {"n": -1},
        {"task": "digit-census", "sigma": 1},
        {"t": 0},
        {"r": 0},
        {"trials": 0},
    ],
)
def test_main_enforces_documented_ranges(tmp_path, capsys, override):
    obj = {**EVOLVE_BASE, **override}
    code, record = run_main_on_text(tmp_path, capsys, obj["task"], json.dumps(obj))
    assert code == 1
    assert record["error"]["kind"] == "ConfigInvalid"


@pytest.mark.parametrize("task", ["classify", "bounds"])
@pytest.mark.parametrize("l_max", [257, 10**9])
def test_main_rejects_l_max_above_the_maximum(tmp_path, capsys, task, l_max):
    obj = {**EVOLVE_BASE, "task": task, "l_max": l_max}
    code, record = run_main_on_text(tmp_path, capsys, task, json.dumps(obj))
    assert code == 1
    assert record["error"]["kind"] == "ConfigInvalid"
    assert "256" in record["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_l_max_maximum_is_accepted(tmp_path, capsys):
    obj = {**EVOLVE_BASE, "task": "classify", "l_max": 256}
    assert run_main_on_text(tmp_path, capsys, "classify", json.dumps(obj)) == (0, None)


@pytest.mark.parametrize("task", ["evolve", "bounds"])
def test_main_refuses_dense_work_over_the_cap(tmp_path, capsys, task):
    # at p = 3 a dense step costs about 57 us, nearly all of it fixed
    # overhead: 10**6 steps are about a minute of work, 10**9 about 16 h;
    # the refusal comes before the first step
    for n, count in ((10**9, 3909000003909), (10**6, 3909003909)):
        obj = {**EVOLVE_BASE, "task": task, "n": n}
        code, record = run_main_on_text(tmp_path, capsys, task, json.dumps(obj))
        assert code == 1
        assert record["error"]["kind"] == "StateSpaceTooLarge"
        assert f"(n + 1) * (p**k + cap // 1024) = {count}" in record["error"]["message"]
        assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("task", ["evolve", "bounds"])
def test_main_dense_work_cap_boundary(tmp_path, capsys, monkeypatch, task):
    # with a state cap of 10, (n + 1) * 3 may reach 64 * 10 = 640: n = 212
    monkeypatch.setenv(STATE_CAP_ENV, "10")
    for n, expected in ((212, 0), (213, 1)):
        obj = {**EVOLVE_BASE, "task": task, "n": n}
        (tmp_path / str(n)).mkdir()
        code, record = run_main_on_text(tmp_path / str(n), capsys, task, json.dumps(obj))
        assert code == expected
    assert record["error"]["kind"] == "StateSpaceTooLarge"


@pytest.mark.parametrize("task", ["evolve", "bounds"])
def test_main_runs_a_law_whose_weights_miss_one_by_a_rounding(tmp_path, capsys, task):
    # the weights sum to 1 - 9e-13, which the schema accepts; unnormalised,
    # 200 dense steps would drift the law's total past the 1e-10 check
    increments = {"k": 1, "support": [[0], [1]], "probs": [0.5, 0.4999999999991]}
    obj = {**EVOLVE_BASE, "task": task, "increments": increments, "n": 200}
    assert run_main_on_text(tmp_path, capsys, task, json.dumps(obj)) == (0, None)


def test_main_sweep_dense_fallback_stays_within_the_budget(tmp_path, capsys, monkeypatch):
    # eps = 1e-300 lies within round-off of every Fourier tv, so each
    # modulus falls back to dense stepping; a cap of 300 allows about 1,700
    # such steps at p <= 17, far short of n_cap
    monkeypatch.setenv(STATE_CAP_ENV, "300")
    obj = {
        **EVOLVE_BASE,
        "task": "mixing-sweep",
        "matrix": [[1]],
        "p_list": [11, 13, 17],
        "eps": 1e-300,
        "n_cap": 10**9,
    }
    with time_limit(10.0):
        code, record = run_main_on_text(tmp_path, capsys, "mixing-sweep", json.dumps(obj))
    assert (code, record) == (0, None)
    with open(tmp_path / "out" / "sweep.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["reason"] for row in rows] == ["error: StateSpaceTooLarge"] * 3


@pytest.mark.parametrize(
    "trials, n, message",
    [
        (10**9, 2, "trials = 1000000000 exceeds"),
        (10**6, 10**3, "* (n + 1) = 1004909906 exceeds"),
    ],
)
def test_main_refuses_trials_over_the_cap(tmp_path, capsys, trials, n, message):
    # 10**9 trajectories at p = 3, n = 2 would ask for an 8 GB state array;
    # the refusal comes before the first draw
    obj = {**EVOLVE_BASE, "n": n, "trials": trials}
    code, record = run_main_on_text(tmp_path, capsys, "evolve", json.dumps(obj))
    assert code == 1
    assert record["error"]["kind"] == "StateSpaceTooLarge"
    assert message in record["error"]["message"]
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
def test_main_rejects_malformed_state_cap(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv(STATE_CAP_ENV, raw)
    code, record = run_main_on_text(tmp_path, capsys, "evolve", json.dumps(EVOLVE_BASE))
    assert code == 1
    assert record["error"]["kind"] == "ConfigInvalid"
    assert STATE_CAP_ENV in record["error"]["message"]


def test_main_maps_unexpected_exception_to_record(tmp_path, capsys, monkeypatch):
    import affine_mixer.cli as cli

    def broken(config, out_dir):
        raise RuntimeError("runner fell over")

    monkeypatch.setitem(cli._RUNNERS, "classify", broken)
    text = json.dumps({"task": "classify", "matrix": [[2]]})
    code, record = run_main_on_text(tmp_path, capsys, "classify", text)
    assert code == 1
    assert record == {"error": {"kind": "RuntimeError", "message": "runner fell over"}}


@pytest.mark.parametrize(
    "override",
    [
        {"eps": "0.3"},
        {"eps": True},
        {"increments": {"k": 1, "support": [[0], [1]], "probs": ["0.5", "0.5"]}},
        {"out": 5},
        {"fit_models": [1]},
        {"increments": {"k": 1, "support": [[0], [1]]}},
        {"increments": [1, [[0], [1]], [0.5, 0.5]]},
        {"eps": 10**400},
    ],
)
def test_main_rejects_mistyped_config_values(tmp_path, capsys, override):
    text = json.dumps({**EVOLVE_BASE, **override})
    code, record = run_main_on_text(tmp_path, capsys, "evolve", text)
    assert code == 1
    assert record["error"]["kind"] == "ConfigInvalid"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fit_models", [{"log": 1}, "", "log"])
def test_main_rejects_fit_models_that_are_not_a_list(tmp_path, capsys, fit_models):
    obj = {**EVOLVE_BASE, "task": "mixing-sweep", "p_list": [5, 7, 11], "fit_models": fit_models}
    code, record = run_main_on_text(tmp_path, capsys, "mixing-sweep", json.dumps(obj))
    assert code == 1
    assert record["error"]["kind"] == "ConfigInvalid"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override",
    [
        {"x0": [0, 0]},
        {"x0": []},
        {"increments": {"k": 2, "support": [[0, 0], [1, 0]], "probs": [0.5, 0.5]}},
        {
            "task": "mixing-sweep",
            "p_list": [5, 7],
            "increments": {"k": 2, "support": [[0, 0], [1, 0]], "probs": [0.5, 0.5]},
        },
    ],
)
def test_main_rejects_dimension_mismatch(tmp_path, capsys, override):
    obj = {**EVOLVE_BASE, **override}
    code, record = run_main_on_text(tmp_path, capsys, obj["task"], json.dumps(obj))
    assert code == 1
    assert record["error"]["kind"] == "ConfigInvalid"
    assert "dimension" in record["error"]["message"]


@pytest.mark.parametrize(
    "override",
    [
        {"seed": -1, "trials": 10},
        {"task": "mixing-sweep", "p_list": [5, 7], "n_cap": -1},
    ],
)
def test_main_rejects_negative_seed_and_n_cap(tmp_path, capsys, override):
    obj = {**EVOLVE_BASE, **override}
    code, record = run_main_on_text(tmp_path, capsys, obj["task"], json.dumps(obj))
    assert code == 1
    assert record["error"]["kind"] == "ConfigInvalid"


ERROR_KINDS = {cls.kind for cls in AffineMixerError.__subclasses__()}
# one wrong value of each JSON type; numbers stay small so no run is long
WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(-3, 40) | st.sampled_from([float("nan"), float("inf")]),
    st.text(max_size=3),
    st.lists(st.integers(-2, 3), max_size=3),
    st.lists(st.lists(st.integers(-2, 3), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["k", "support", "probs", "x"]), st.integers(-1, 2)),
)


@st.composite
def schema_shaped_configs(draw):
    """A schema-valid config for one task in which up to two keys, and
    maybe one key of increments, are dropped, mistyped or resized."""
    task = draw(st.sampled_from(TASKS))
    k = draw(st.integers(1, 2))
    entry = st.integers(-3, 3)
    matrix = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    support = draw(
        st.lists(st.lists(entry, min_size=k, max_size=k), min_size=1, max_size=3, unique_by=tuple)
    )
    obj = {
        "task": task,
        "matrix": matrix,
        "increments": {"k": k, "support": support, "probs": [1 / len(support)] * len(support)},
        "x0": draw(st.lists(entry, min_size=k, max_size=k)),
        "p": draw(st.integers(2, 23 if k == 1 else 7)),
        "p_list": draw(st.lists(st.integers(2, 30), min_size=1, max_size=4)),
        "n": draw(st.integers(0, 12)),
        "eps": draw(st.floats(0.05, 0.95)),
        "n_cap": draw(st.integers(0, 300)),
        "l_max": draw(st.integers(1, 8)),
        "sigma": draw(st.integers(2, 16)),
        "t": draw(st.integers(1, 4)),
        "r": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 99)),
        "trials": draw(st.integers(1, 40)),
        "fit_models": draw(st.lists(st.sampled_from(["pow_p", "log", "loglog"]), max_size=3)),
        "out": "ignored",
    }
    for key in draw(st.lists(st.sampled_from(sorted(obj)), max_size=2, unique=True)):
        _break(draw, obj, key)
    if draw(st.integers(0, 3)) == 0 and isinstance(obj.get("increments"), dict):
        _break(draw, obj["increments"], draw(st.sampled_from(["k", "support", "probs"])))
    return task, obj


def _break(draw, obj, key):
    """Drop obj[key], give it a wrong value, or make a list one longer or shorter."""
    action = draw(st.sampled_from(["drop", "wrong", "resize"]))
    if action == "drop":
        obj.pop(key, None)
    elif action == "resize" and isinstance(obj.get(key), list):
        obj[key] = obj[key][:-1] if draw(st.booleans()) else obj[key] + obj[key][:1]
    else:
        obj[key] = draw(WRONG)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=schema_shaped_configs())
def test_property_random_configs_end_in_result_or_typed_error(case):
    task, obj = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as handle:
            json.dump(obj, handle)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([task, "--config", path, "--out", os.path.join(tmp, "out")])
    if code != 0:
        assert code == 1
        record = json.loads(err.getvalue())
        assert record["error"]["kind"] in ERROR_KINDS, (obj, record)


def run_python(tmp_path, obj, *args, task="classify"):
    """python *args with the task's argv on obj, in a fresh interpreter."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path_list = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_list))}
    argv = [task, "--config", str(path), "--out", str(tmp_path / "out")]
    return subprocess.run([sys.executable, *args, *argv], capture_output=True, text=True, env=env)


def run_module(tmp_path, obj, module="affine_mixer"):
    """python -m module classify on obj in a fresh interpreter."""
    return run_python(tmp_path, obj, "-m", module)


def test_digit_census_never_imports_numpy_ma(tmp_path):
    # in numpy 2.x np.unique imports numpy.ma on its first call; the census
    # decides distinctness by a sort, so its task never loads it
    script = (
        "import sys\n"
        "from affine_mixer.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    obj = {"p": 1009, "sigma": 2, "r": 2}
    done = run_python(tmp_path, obj, "-c", script, task="digit-census")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


CLASSIFY = {"task": "classify", "matrix": [[2, 1], [1, 1]]}


def test_cli_task_never_imports_argparse_or_gettext(tmp_path):
    # the command line is read from a table of flags; argparse and the
    # gettext it imports cost a cold task a few ms
    script = (
        "import sys\n"
        "from affine_mixer.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
    )
    done = run_python(tmp_path, CLASSIFY, "-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_module_entry_runs_the_cli(tmp_path):
    done = run_module(tmp_path, {"task": "classify", "matrix": [[2, 1], [1, 1]]})
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == str(tmp_path / "out" / "classify.json") + "\n"


def test_module_entry_failure_is_one_json_record(tmp_path):
    done = run_module(tmp_path, {"task": "classify", "matrix": [[1, 1], [1, 1]]})
    assert done.returncode == 1 and done.stdout == ""
    assert json.loads(done.stderr)["error"]["kind"] == "SingularMatrix"
    assert done.stderr.count("\n") == 1


def test_cli_module_run_as_a_script_fails_loudly(tmp_path):
    # runpy executes cli.py as __main__, where nothing else calls main: the
    # run must fail rather than exit 0 with no report
    obj = {"task": "classify", "matrix": [[2, 1], [1, 1]]}
    done = run_module(tmp_path, obj, "affine_mixer.cli")
    assert done.returncode != 0
    assert "python -m affine_mixer <task>" in done.stderr
    assert not (tmp_path / "out").exists()

# CFG and OUT stand for the config path and the out directory
MALFORMED_ARGV = {
    "empty": [],
    "no task": ["--config", "CFG", "--out", "OUT"],
    "unknown task": ["classify-all", "--config", "CFG", "--out", "OUT"],
    "no config": ["classify", "--out", "OUT"],
    "unknown flag": ["classify", "--config", "CFG", "--out", "OUT", "--trials", "3"],
    "abbreviated flag": ["classify", "--conf", "CFG", "--out", "OUT"],
    "underscored flag": ["classify", "--config", "CFG", "--out", "OUT", "--n_cap", "3"],
    "stray argument": ["classify", "CFG", "--config", "CFG", "--out", "OUT"],
    "flag without a value": ["classify", "--out", "OUT", "--config", "CFG", "--seed"],
    "flag before a flag": ["classify", "--config", "CFG", "--out", "OUT", "--eps", "--seed", "1"],
    "unreadable int": ["classify", "--config", "CFG", "--out", "OUT", "--seed", "abc"],
    "unreadable int, = form": ["classify", "--config", "CFG", "--out", "OUT", "--n-cap=1.5"],
    "unreadable float": ["classify", "--config", "CFG", "--out", "OUT", "--eps", "quarter"],
}


def argv_on(tmp_path, tokens):
    """tokens with CFG and OUT replaced by a classify config and an out
    directory in tmp_path."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CLASSIFY))
    spelled = {"CFG": str(path), "OUT": str(tmp_path / "out")}
    return [spelled.get(token, token) for token in tokens]


@pytest.mark.parametrize("tokens", MALFORMED_ARGV.values(), ids=MALFORMED_ARGV)
def test_main_malformed_argv_is_one_config_invalid_record(tmp_path, capsys, monkeypatch, tokens):
    monkeypatch.chdir(tmp_path)  # where the default out directory would go
    assert main(argv_on(tmp_path, tokens)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"]["kind"] == "ConfigInvalid"
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_main_reads_flag_equals_value_and_keeps_a_repeated_flags_last_value(tmp_path, capsys):
    path = cfg_evolve(tmp_path, trials=400, seed=1)
    argv = ["evolve", f"--config={path}", "--out=" + str(tmp_path / "out"), "--seed", "10"]
    assert main([*argv, "--seed=11"]) == 0
    assert json.loads((tmp_path / "out" / "evolve.json").read_text())["seed"] == 11
    assert capsys.readouterr().out.splitlines()[0] == str(tmp_path / "out" / "evolve.csv")


@pytest.mark.parametrize(
    "tokens",
    [["-h"], ["--help"], ["classify", "--help"], ["unknown", "--config", "CFG", "-h"]],
    ids=["-h", "--help", "after a task", "after an unknown task"],
)
def test_main_help_prints_the_usage(tmp_path, capsys, monkeypatch, tokens):
    monkeypatch.chdir(tmp_path)
    assert main(argv_on(tmp_path, tokens)) == 0
    out, err = capsys.readouterr()
    assert out == cli.__doc__.strip() + "\n" and err == ""
    assert "affine-mixer <task> --config cfg.json" in out
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_module_entry_unknown_task_is_one_json_record(tmp_path):
    done = run_python(tmp_path, CLASSIFY, "-m", "affine_mixer", task="classify-all")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert json.loads(done.stderr)["error"]["kind"] == "ConfigInvalid"
    assert not (tmp_path / "out").exists()


def test_module_entry_help_without_docstrings(tmp_path):
    done = run_python(tmp_path, CLASSIFY, "-OO", "-m", "affine_mixer", "--help")
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("affine-mixer <task> --config cfg.json")


# argv values of each flag's type, placeholders and junk; no '/' or '.'
# alone, so an out directory drawn from them stays inside the working one
ARGV_VALUES = st.one_of(
    st.integers(-2, 10**6).map(str),
    st.floats(0, 2).map(repr),
    st.sampled_from(["CFG", "OUT", "nan", "inf", "abc", "", "-1", "1e-3"]),
    st.text(alphabet="ab-=h1", max_size=6),
)
FLAGS = ["--config", "--out", "--seed", "--eps", "--n-cap"]
ARGV_TOKENS = st.one_of(
    st.sampled_from(TASKS),
    st.sampled_from(FLAGS),
    st.builds("{}={}".format, st.sampled_from(FLAGS), ARGV_VALUES),
    ARGV_VALUES,
    st.sampled_from(["-h", "--help", "--", "-", "--conf", "--n_cap", "classify-all"]),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    tokens=st.one_of(
        st.lists(ARGV_TOKENS, max_size=8),
        st.lists(ARGV_TOKENS, max_size=6).map(lambda t: ["classify", "--config", "CFG", *t]),
    )
)
def test_property_any_argv_ends_in_a_result_or_one_record(tokens):
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            argv = argv_on(pathlib.Path(tmp), tokens)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                code = main(argv)
        finally:
            os.chdir(home)
    if "-h" in tokens or "--help" in tokens:
        assert code == 0 and out.getvalue() == cli.__doc__.strip() + "\n"
    elif code == 1:
        assert err.getvalue().count("\n") == 1
        assert set(json.loads(err.getvalue())["error"]) == {"kind", "message"}
    else:
        assert code == 0 and err.getvalue() == ""
