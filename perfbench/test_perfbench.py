"""Tests of the benchmark's input generator and its output contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import host
import run
import workloads as W
from dtoda import cli

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((W.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_gives_byte_identical_configs(name):
    workload = W.WORKLOADS[name]
    first = W.generate_configs(workload, 3)
    assert first == W.generate_configs(workload, 3)
    assert first != W.generate_configs(workload, 4)
    assert len(set(first)) == workload.pool


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_generated_config_passes_load_config(name, tmp_path):
    workload = W.WORKLOADS[name]
    fixture = cli.load_config(str(W.FIXTURES / workload.fixture))
    for seed in (0, 1):
        for i, text in enumerate(W.generate_configs(workload, seed)):
            path = tmp_path / f"{seed}-{i}.json"
            path.write_text(text)
            config = cli.load_config(str(path))
            assert config.order == workload.order
            assert config.tolerances == fixture.tolerances
            assert config.terms == fixture.terms


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_reports_every_metric_of_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify-sigma16",
         "--seed", "0", "--seconds", "0.01", "--trace", str(trace)],
        cwd=W.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-sigma16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _check(name, residual, tolerance, error=""):
    return {"name": name, "kind": "check", "residual": residual,
            "tolerance": tolerance, "passed": residual <= tolerance,
            "error": error}


def test_baseline_failures_are_bounded():
    workload = W.WORKLOADS["verify-sigma16"]
    fixture = cli.load_config(str(W.FIXTURES / workload.fixture))
    jacobian = workload.baseline_failures["jacobian"].ceiling
    underflow = "WindowUnderflowError: window underflow"
    cases = [
        (_check("jacobian", jacobian, 2e-6), True),
        (_check("jacobian", 2 * jacobian, 2e-6), False),
        (_check("special_logtau", float("inf"), 1e-9, underflow), True),
        (_check("special_logtau", float("inf"), 1e-9, "ValueError: x"), False),
        (_check("special_logtau", 2e-9, 1e-9), False),
        (_check("plemelj", 2e-9, 1e-9), False),
    ]
    for item, admitted in cases:
        others = [_check(name, 0.0, 1.0) for name in W.selected_checks(workload)
                  if name != item["name"]]
        op = {"items": sorted(others + [item], key=lambda it: it["name"])}
        assert (run.problems(workload, fixture, op) == []) is admitted, item


def test_baseline_medians_are_bounded():
    workload = W.WORKLOADS["tables-poly64"]
    limit = workload.baseline_failures["faber_identity"].median
    ops = [{"items": [_check("faber_identity", r, 1e-9)]}
           for r in (0.0, limit, 2 * limit)]
    assert run.baseline_problems(workload, ops) == []
    ops.append({"items": [_check("faber_identity", 2 * limit, 1e-9)]})
    assert len(run.baseline_problems(workload, ops)) == 1


def test_check_names_are_the_fixture_selections():
    sigma = json.loads((W.FIXTURES / "fixture_sigma.json").read_text())
    assert set(run.check_names()) == set(sigma["tolerances"]) | set(W.TABLE_CHECKS)


def test_clock_scales_each_interval_by_the_reference_around_it():
    clock = host.Clock()
    clock.refs = [host.REFERENCE_S, 2 * host.REFERENCE_S, 2 * host.REFERENCE_S]
    assert clock.normalise([3.0, 4.0]) == pytest.approx([2.0, 2.0])
    with pytest.raises(ValueError):
        clock.normalise([1.0])
