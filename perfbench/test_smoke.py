"""Tests of the benchmark itself, kept out of the repository's test suite.

    python3 -m pytest perfbench

runs the smoke mode (every workload on its smallest inputs, outputs
checked, traced-run self-check on) and the refusal to run without sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_checks_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600,
                          check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    workloads = {key.split("/")[0] for key in result["metrics"]}
    assert workloads == {"search-real", "search-complex", "harness",
                         "analysis"}
    for line in proc.stdout.splitlines():
        if line.split()[1:2] == ["self_check"]:
            assert " matches " in line, line


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "harness", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
