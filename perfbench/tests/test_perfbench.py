"""Tests of the benchmark itself, at the smoke profile's tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import FULL, SMOKE, Pins, load_pins, per_layer_names, run_workload  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_json_names_every_metric_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_names(FULL)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", trace, "--profile", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = run.END_TO_END if trace == "0" else per_layer_names(SMOKE)
    assert set(result["metrics"]) == set(want)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload, key, wrong", [
    ("certify-n4", "search/n3s5-noprune-norm/candidates", 14951),
    ("certify-n4", "certify/dimension/n3/dimension", 5),
    ("verify-large", "verify-large/n9/basis/scan/sha256", "0" * 64),
    ("verify-large", "verify-large/v5/n7/drop/verify/witness", ["1,1,1", "2,2,2"]),
    ("oracle-sweep", "oracle-sweep/v5/n4/two_basic/resolving", []),
])
def test_corrupted_pin_counts_as_a_failed_op(workload, key, wrong, capsys):
    pins = load_pins(SMOKE)
    assert key in pins.values
    good = run_workload(workload, 5, 0, False, SMOKE, pins)
    assert good["failed"] == 0
    pins.values[key] = wrong
    bad = run_workload(workload, 5, 0, False, SMOKE, Pins(pins.values))
    assert bad["attempted"] == good["attempted"]
    assert 1 <= bad["failed"] <= bad["attempted"]
    assert key in capsys.readouterr().err


def test_wall_clock_limit_kills_the_workload_process_group():
    argv = ["--workload", "certify-n4", "--seed", "0", "--seconds", "30",
            "--trace", "0"]
    t0 = time.monotonic()
    with pytest.raises(run.TimedOut):
        run.run_child(argv, time.monotonic() + 1.0)
    assert time.monotonic() - t0 < 10


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "oracle-sweep", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_repeat_for_a_seed_and_vary_across_variants():
    def texts(variant):
        return [f.text for f in workloads.verify_large_inputs(
            workloads.Run(SMOKE, variant, Pins({})))]
    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


def test_host_speed_has_a_sample_even_for_a_run_shorter_than_its_period():
    with workloads.HostSpeed() as host:
        pass
    assert all(len(times) >= 1 for times in host.samples.values())
    assert set(host.samples) == set(workloads.KERNEL_REFERENCE_S)
    assert host.slowdown() > 0
