"""Record runs of the benchmark (``affwbench/run.py``) in a ``BENCH_<tag>.json`` file.

Run from anywhere; the checkout is the one holding this script:

    python3 bench/record.py --tag mytag --workloads exact-series --seeds 1 2 3
    python3 bench/record.py --tag mytag --workloads exact-series --seeds 61 62 --trace 0 --against HEAD~1

Each run is ``run.py --workload W --seed S --seconds T --trace X`` in a
subprocess.  The file keeps, per run, the exit code and the result object the
run printed as its last line, as printed; a failed run or one with
``correct: false`` is kept as it is, and no run is dropped.  The first run's
``machine:`` line describes the host.

With ``--against REV`` the committed files of REV are unpacked under a
scratch directory (``git archive``), and every (workload, seed, trace) runs on
REV and on the checkout, alternating which side goes first.  Per workload the
file then adds, for each end-to-end metric that BENCHMARK.json declares, each
side's median and quartiles over its untraced runs and the number of pairs
the checkout won (ties count for neither), and for each per-layer metric each
side's median and quartiles over its ``--trace 1`` runs, with no win count:
one traced pair shows where a saving sits, not that it holds.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, check=True).stdout


def unpack(root: Path, rev: str, scratch: Path) -> Path:
    """The committed files of ``rev`` under ``scratch``."""
    dest = scratch / "parent"
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git(root, "archive", rev))) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_one(checkout: Path, runner: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, runner, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(l[len("machine: "):]) for l in lines if l.startswith("machine: ")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    run = {"seed": seed, "trace": trace, "exit": proc.returncode, "machine": machine, "result": result}
    if result is None:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def metric(run: dict, name: str):
    try:
        return run["result"]["metrics"][name]["value"]
    except (KeyError, TypeError):
        return None


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def summary(pairs: list[tuple[dict, dict]], end_to_end: list[dict], per_layer: list[dict]) -> dict:
    """Per end-to-end metric, over the untraced pairs: both sides' spread and
    the pairs the checkout won.  Per per-layer metric, over the traced pairs:
    both sides' spread."""
    out = {}
    for trace, metrics in ((0, end_to_end), (1, per_layer)):
        for m in metrics:
            got = [(metric(p, m["name"]), metric(h, m["name"])) for p, h in pairs if p["trace"] == trace]
            got = [(p, h) for p, h in got if p is not None and h is not None]
            if not got:
                continue
            out[m["name"]] = {
                "better": m["better"],
                "parent": spread([p for p, _ in got]),
                "head": spread([h for _, h in got]),
                "pairs": len(got),
            }
            if trace == 0:
                sign = 1 if m["better"] == "lower" else -1
                out[m["name"]]["wins"] = sum(sign * (p - h) > 0 for p, h in got)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True, help="the file is BENCH_<tag>.json")
    ap.add_argument("--workloads", nargs="+", default=["weyl-heavy", "label-heavy", "exact-series"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--trace", nargs="+", type=int, choices=[0, 1], default=[0, 1])
    ap.add_argument("--against", metavar="REV", help="alternate runs of REV and of the checkout")
    ap.add_argument("--root", type=Path, default=ROOT, help="the checkout (default: the one holding this script)")
    ap.add_argument("--runner", default="affwbench/run.py", help="the benchmark script, relative to the checkout")
    ap.add_argument("--out", type=Path, default=ROOT / "bench", help="directory of the BENCH file")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    head = git(root, "rev-parse", "HEAD").decode().strip()
    record = {"tag": args.tag, "commit": head, "seconds": args.seconds, "machine": None, "workloads": {}}
    scratch = Path(tempfile.mkdtemp(prefix="affw-bench-")) if args.against else None
    try:
        parent = None
        if args.against:
            parent = unpack(root, args.against, scratch)
            record["against"] = {"rev": args.against,
                                 "commit": git(root, "rev-parse", args.against).decode().strip()}
        for workload in args.workloads:
            runs, pairs = [], []
            for i, (seed, trace) in enumerate((s, t) for s in args.seeds for t in args.trace):
                if parent is None:
                    runs.append({"side": "head", **run_one(root, args.runner, workload, seed, args.seconds, trace)})
                    continue
                order = [("parent", parent), ("head", root)]
                pair = {}
                for side, checkout in order if i % 2 == 0 else order[::-1]:
                    pair[side] = {"side": side, **run_one(checkout, args.runner, workload, seed, args.seconds, trace)}
                    runs.append(pair[side])
                pairs.append((pair["parent"], pair["head"]))
            record["machine"] = record["machine"] or next(
                (r["machine"] for r in runs if r["side"] == "head" and r["machine"]), None)
            record["workloads"][workload] = {"runs": runs}
            if pairs:
                record["workloads"][workload]["summary"] = summary(
                    pairs, spec["end_to_end"], spec["per_layer"])
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
