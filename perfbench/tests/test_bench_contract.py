"""BENCHMARK.json agrees with what run.py prints, and the harness refuses to
run without the program's source."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_keys_and_workloads():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert list(workloads.WHY) == list(workloads.GENERATORS)


def test_end_to_end_metrics_match_the_harness():
    e2e = SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in e2e} == run.E2E_UNITS
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_per_layer_metrics_match_the_harness():
    layers = SPEC["per_layer"]
    assert [m["name"] for m in layers] == run.gated_layer_metrics()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in layers)
    assert len(layers) <= 128


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-512", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
