"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans
import workloads


def _bench() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_same_seed_gives_same_configs():
    for name in workloads.WORKLOADS:
        assert workloads.make_tasks(name, 7) == workloads.make_tasks(name, 7)
        assert workloads.make_tasks(name, 7) != workloads.make_tasks(name, 8)


def test_benchmark_json_names_every_workload():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_result_line_has_every_per_layer_metric():
    assert [m["name"] for m in _bench()["per_layer"]] == list(spans.RESULT)
    assert all(m["unit"] == spans.unit(m["name"]) for m in _bench()["per_layer"])


def test_probe_weight_is_the_exponent_of_the_speed_ratio():
    assert run.at_ref_speed(3.0, run.PROBE_REF_S / 4) == pytest.approx(12.0)
    assert run.at_ref_speed(3.0, run.PROBE_REF_S / 4, 0.5) == pytest.approx(6.0)
    assert set(workloads.PROBE_WEIGHT) <= set(workloads.WORKLOADS)


def test_self_time_subtracts_children():
    # root [0, 100] with children [10, 40] and [50, 60]; grandchild [20, 30]
    trace = [
        ["cli.main", 0, 100, -1, 0, 0],
        ["cli.run", 10, 40, 0, 0, 0],
        ["evolution.step_exact", 20, 30, 1, 100, 1],
        ["evolution.step_exact", 50, 60, 0, 9990, 0],
    ]
    assert spans.self_times(trace) == [60, 20, 10, 10]
    layers = spans.layer_metrics([(trace, 2.0)])
    assert layers["trace.task_s"] == pytest.approx(200e-9)
    assert layers["trace.attributed_share"] == pytest.approx(0.4)
    assert layers["evolution.step_exact.self_s"] == pytest.approx(40e-9)
    assert layers["evolution.step_exact.calls"] == 2
    assert layers["evolution.states_stepped"] == 10090
    assert layers["library.self_s"] == pytest.approx(40e-9)
    assert layers["library.calls"] == 2
    # p**k = 9990 counts for its nearest decade, as p = 10007 does
    assert layers["evolution.step_exact.ns_per_state.pk_1e4"] == pytest.approx(20 / 9990)
    # layers and ladder rungs with no spans are left out, not reported as 0
    assert not any(name.startswith(("fourier.", "algebra.")) for name in layers)
    assert "evolution.step_exact.ns_per_state.pk_1e3" not in layers
    assert all(layers.values())


def test_every_layer_function_is_wrapped():
    # Each traced function must be replaced at every binding in the
    # package, or its time would fall into cli.main.self_s.
    sys.path.insert(0, run.SRC)
    import affine_mixer.cli  # noqa: F401

    package = {
        name: mod for name, mod in sys.modules.items() if name.startswith("affine_mixer")
    }
    wanted = {}
    extra = (("fourier", "product_scan"), ("evolution", "StateDistribution"))
    for mod_name, attr in spans.TRACED + extra:
        fn = getattr(package[f"affine_mixer.{mod_name}"], attr)
        wanted[f"{mod_name}.{attr}"] = fn.__init__ if isinstance(fn, type) else fn
    assert len(wanted) == 20
    spans.install()
    for mod in package.values():
        for attr, value in vars(mod).items():
            assert all(value is not fn for fn in wanted.values()), f"{mod.__name__}.{attr}"
    state = package["affine_mixer.evolution"].StateDistribution
    assert state.__init__ is not wanted["evolution.StateDistribution"]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return str(tmp_path_factory.mktemp("work"))


def _run_task(work: str, task: str, config: dict, traced: bool = False) -> tuple[dict, str]:
    config_path = os.path.join(work, f"{task}.json")
    with open(config_path, "w") as handle:
        json.dump(dict(config, task=task), handle)
    out_dir = os.path.join(work, f"{task}-out")
    args = [task, "--config", config_path, "--out", out_dir]
    result, _ = run.run_child(
        args, os.path.join(work, "result.json"), os.path.join(work, "log"), traced
    )
    assert result is not None and result["rc"] == 0
    return result, out_dir


def test_traced_task_records_layer_spans(work):
    chain = {"matrix": [[2, 1], [1, 1]], "increments": workloads.FAIR_2D, "p": 11}
    names = set()
    for task, extra in (("bounds", {"n": 4}), ("evolve", {"n": 3, "trials": 10})):
        result, _ = _run_task(work, task, dict(chain, **extra), traced=True)
        trace = result["spans"]
        assert trace[0][0] == spans.ROOT and trace[0][3] == -1
        assert sum(spans.self_times(trace)) == trace[0][2] - trace[0][1]
        names |= {span[0] for span in trace}
    # Bindings looked up by the callers (cli.evolve, fourier.tv_distance,
    # fourier.product_scan) are wrapped, not only the defining modules.
    assert {
        "cli.run",
        "evolution.evolve",
        "evolution.simulate",
        "evolution.step_exact",
        "evolution.tv_distance",
        "evolution.StateDistribution",
        "fourier.bounds_table",
        "fourier.product_scan",
        "fourier.certificate_rho",
    } <= names


@pytest.fixture(scope="module")
def sweep_output(work):
    name = "sweep-slow"
    seed = workloads.WORKLOADS[name][0]
    [(task, config)] = workloads.make_tasks(name, seed)
    result, out_dir = _run_task(work, task, config)
    return task, config, out_dir, run.load_reference()[name]["tasks"][0]["files"], result


def test_speed_probe_is_timed_around_the_task(sweep_output):
    result = sweep_output[4]
    assert 0 < result["setup_probe_s"] < 0.01
    assert 0 < result["probe_s"] < 0.01


def test_reference_matches_own_output(sweep_output):
    task, config, out_dir, ref, _ = sweep_output
    assert checks.invariants(task, config, out_dir) == []
    assert checks.compare(ref, checks.summarize(task, out_dir)) == []


def test_corrupted_reference_is_caught(sweep_output):
    task, _, out_dir, ref, _ = sweep_output
    got = checks.summarize(task, out_dir)
    inside = copy.deepcopy(ref)
    inside["sweep.csv"]["samples"]["0"][0] += 1e-13  # ln_p, tolerance 1e-12
    assert checks.compare(inside, got) == []
    for corrupt in (
        lambda r: r["sweep.csv"]["samples"]["0"].__setitem__(0, r["sweep.csv"]["samples"]["0"][0] + 1e-9),
        lambda r: r["sweep.csv"].__setitem__("exact_sha256", "0" * 64),
        lambda r: r["sweep.json"]["fits"][0].__setitem__("points", 5),
        lambda r: r["sweep.json"]["fits"][0].__setitem__("coefficient", 2.1),
    ):
        bad = copy.deepcopy(ref)
        corrupt(bad)
        assert checks.compare(bad, got)


def _write_csv(path: str, rows: list[str]) -> None:
    with open(path, "w") as handle:
        handle.write("\n".join(rows) + "\n")


def test_invariants_catch_broken_outputs(tmp_path):
    out = str(tmp_path)
    _write_csv(os.path.join(out, "evolve.csv"), ["index,probability", "0,0.5", "1,0.4", "2,0.0", "3,0.0"])
    errors = checks.invariants("evolve", {"matrix": [[1, 0], [0, 1]], "p": 2}, out)
    assert any("sum" in e for e in errors)
    _write_csv(
        os.path.join(out, "bounds.csv"),
        ["n,tv,upper,lower_best,alpha_witness,certificate", "0,0.9,0.64,0.5,1,"],
    )
    errors = checks.invariants("bounds", {"n": 0}, out)
    assert any("sqrt(upper)" in e for e in errors)
    with open(os.path.join(out, "census.json"), "w") as handle:
        json.dump({"histogram": {"1": 3}}, handle)
    _write_csv(os.path.join(out, "census.csv"), ["a,block_index,digits,alternations"] + ["1,0,01,1"] * 4)
    errors = checks.invariants("digit-census", {"p": 5, "r": 1}, out)
    assert any("histogram" in e for e in errors)


def test_failed_task_ratio_counts_a_corrupted_reference():
    name = "sweep-slow"
    seed = workloads.WORKLOADS[name][0]
    good = run.measure(name, seed, 0, False, run.load_reference())
    assert good["reference_checked"] and good["failed_task_ratio"] == 0
    line = run.result_line(good)
    assert line["correct"] and line["attempted"] == 1
    assert [m["name"] for m in _bench()["end_to_end"]] == list(line["metrics"])

    bad_reference = run.load_reference()
    bad_reference[name]["tasks"][0]["files"]["sweep.json"]["fits"][0]["coefficient"] += 1e-3
    bad = run.measure(name, seed, 0, True, bad_reference)
    assert bad["failed_task_ratio"] == 1.0
    line = run.result_line(bad)
    assert not line["correct"]
    assert [m["name"] for m in _bench()["per_layer"]] == list(line["metrics"])
    assert all(m["value"] for m in line["metrics"].values())
    # The summary keeps the metrics of the layers that ran, and only those.
    assert "evolution.step_exact.calls" in bad["stats"]
    assert "fourier.product_scan.steps" not in bad["stats"]
    assert all(stat["median"] for stat in bad["stats"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-slow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
