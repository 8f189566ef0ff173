"""The BENCH file layout of ``bench/record.py``, on a stub benchmark script."""

import importlib.util
import json
import subprocess
import textwrap
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parent.parent / "bench" / "record.py"

# prints a machine line and a result object whose slowest_job_s is seed / SPEED;
# a traced run adds the per-layer cli.self_s, seed / (10 SPEED)
STUB = textwrap.dedent("""\
    import argparse, json
    SPEED = {speed}
    ap = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        ap.add_argument(flag)
    a = ap.parse_args()
    print('machine: {{"nproc": 2, "cpu": "stub"}}')
    print("ok: nothing to report")
    metrics = {{"slowest_job_s": {{"value": int(a.seed) / SPEED, "unit": "s"}},
               "failed_frac": {{"value": 0.5, "unit": "ratio"}}}}
    if a.trace == "1":
        metrics["cli.self_s"] = {{"value": int(a.seed) / (10 * SPEED), "unit": "s"}}
    print(json.dumps({{"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}}))
""")

SPEC = {"end_to_end": [{"name": "slowest_job_s", "unit": "s", "better": "lower", "bound": 0.25},
                       {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.1},
                       {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "cli.self_s", "unit": "s", "better": "lower"},
                      {"name": "fusion.self_s", "unit": "s", "better": "lower"}]}


@pytest.fixture
def record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _checkout(path: Path, speed: int) -> None:
    path.mkdir(exist_ok=True)
    (path / "stub.py").write_text(STUB.format(speed=speed))
    (path / "BENCHMARK.json").write_text(json.dumps(SPEC))


def _git(path: Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost", *args],
                   cwd=path, check=True, capture_output=True)


def test_record_keeps_every_run_as_printed(record, tmp_path):
    root = tmp_path / "repo"
    _checkout(root, 1)
    _git(root, "init", "-q")
    _git(root, "add", ".")
    _git(root, "commit", "-q", "-m", "stub")
    assert record.main(["--tag", "t", "--root", str(root), "--runner", "stub.py", "--out", str(tmp_path),
                        "--workloads", "w1", "w2", "--seeds", "3", "4", "--seconds", "0"]) == 0
    data = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert set(data) == {"tag", "commit", "seconds", "machine", "workloads"}
    assert data["tag"] == "t" and len(data["commit"]) == 40 and data["seconds"] == 0
    assert data["machine"] == {"nproc": 2, "cpu": "stub"}
    assert list(data["workloads"]) == ["w1", "w2"]
    runs = data["workloads"]["w1"]["runs"]
    assert [(r["seed"], r["trace"], r["side"], r["exit"]) for r in runs] == [
        (3, 0, "head", 0), (3, 1, "head", 0), (4, 0, "head", 0), (4, 1, "head", 0)]
    assert runs[0]["result"] == {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        "slowest_job_s": {"value": 3.0, "unit": "s"}, "failed_frac": {"value": 0.5, "unit": "ratio"}}}
    assert "summary" not in data["workloads"]["w1"]


def test_record_against_a_revision_alternates_and_counts_wins(record, tmp_path):
    root = tmp_path / "repo"
    _checkout(root, 1)
    _git(root, "init", "-q")
    _git(root, "add", ".")
    _git(root, "commit", "-q", "-m", "slow stub")
    _checkout(root, 2)  # the checkout is twice as fast as its committed parent
    _git(root, "commit", "-q", "-am", "fast stub")
    assert record.main(["--tag", "pair", "--root", str(root), "--runner", "stub.py", "--out", str(tmp_path),
                        "--workloads", "w", "--seeds", "2", "4", "6", "--trace", "0",
                        "--against", "HEAD~1"]) == 0
    data = json.loads((tmp_path / "BENCH_pair.json").read_text())
    assert data["against"]["rev"] == "HEAD~1" and len(data["against"]["commit"]) == 40
    runs = data["workloads"]["w"]["runs"]
    assert [(r["seed"], r["side"]) for r in runs] == [
        (2, "parent"), (2, "head"), (4, "head"), (4, "parent"), (6, "parent"), (6, "head")]
    summary = data["workloads"]["w"]["summary"]
    assert set(summary) == {"slowest_job_s", "failed_frac"}  # solve_s was never printed
    assert summary["slowest_job_s"] == {
        "better": "lower", "pairs": 3, "wins": 3,
        "parent": {"median": 4.0, "q1": 2.0, "q3": 6.0, "runs": 3},
        "head": {"median": 2.0, "q1": 1.0, "q3": 3.0, "runs": 3},
    }
    assert summary["failed_frac"]["wins"] == 0  # ties count for neither side


def test_record_summarises_per_layer_metrics_over_traced_pairs(record, tmp_path):
    root = tmp_path / "repo"
    _checkout(root, 1)
    _git(root, "init", "-q")
    _git(root, "add", ".")
    _git(root, "commit", "-q", "-m", "slow stub")
    _checkout(root, 2)
    _git(root, "commit", "-q", "-am", "fast stub")
    assert record.main(["--tag", "traced", "--root", str(root), "--runner", "stub.py", "--out", str(tmp_path),
                        "--workloads", "w", "--seeds", "4", "--trace", "0", "1",
                        "--against", "HEAD~1"]) == 0
    summary = json.loads((tmp_path / "BENCH_traced.json").read_text())["workloads"]["w"]["summary"]
    assert set(summary) == {"slowest_job_s", "failed_frac", "cli.self_s"}  # fusion.self_s never printed
    # the end-to-end metrics come from the untraced pair only, with a win count
    assert summary["slowest_job_s"]["pairs"] == 1 and summary["slowest_job_s"]["wins"] == 1
    # a per-layer metric: each side's value over the traced pairs, and no win count
    assert summary["cli.self_s"] == {
        "better": "lower", "pairs": 1,
        "parent": {"median": 0.4, "q1": 0.4, "q3": 0.4, "runs": 1},
        "head": {"median": 0.2, "q1": 0.2, "q3": 0.2, "runs": 1},
    }
