"""BENCHMARK.json against the benchmark contract, and against the code."""

import json
import os
import re
import shutil
import subprocess
import sys

from bench.probes import LAYERS
from bench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_schema_limits():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert s["paths"] == ["bench"] and s["command"] == ["python3", "bench/run.py"]
    assert isinstance(s["run_seconds"], int) and 1 <= s["run_seconds"] <= 60
    assert 2 <= len(s["workloads"]) <= 8
    assert 1 <= len(s["end_to_end"]) <= 16 and 1 <= len(s["per_layer"]) <= 128
    names = []
    for workload in s["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in s["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in s["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in s["end_to_end"] + s["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_setup_s_is_declared_with_the_largest_bound():
    metrics = {m["name"]: m for m in spec()["end_to_end"]}
    assert metrics["setup_s"]["unit"] == "s" and metrics["setup_s"]["better"] == "lower"
    assert metrics["setup_s"]["bound"] == max(m["bound"] for m in metrics.values())


def test_workloads_and_layers_are_the_ones_the_code_has():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"] for m in s["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.self_us", f"{layer}.calls"} <= per_layer
    assert "other.self_us" in per_layer


def test_the_time_budget_of_all_driver_runs_fits():
    """4 + 22 x workloads runs, each run_seconds plus set-ups, in 3420 s."""
    s = spec()
    runs = 4 + 22 * len(s["workloads"])
    per_run_overhead = 8.0  # three set-ups of the slowest workload, measured
    assert runs * (s["run_seconds"] + per_run_overhead) <= 3420


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ the command
    must exit non-zero, quickly, without a result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_null", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert done.returncode != 0
    assert b'"metrics"' not in done.stdout
