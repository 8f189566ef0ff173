"""Smoke test for the benchmark: one small job per workload, all metrics printed.

Run from the repository root with ``python -m pytest affwbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "affwbench" / "run.py"


def test_smoke_prints_every_metric_and_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]


def test_refuses_to_run_without_the_library(tmp_path):
    bench = tmp_path / "affwbench"
    bench.mkdir()
    for f in (ROOT / "affwbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "affwbench/run.py", "--workload", "weyl-heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
