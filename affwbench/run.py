"""Benchmark for affw: run one workload and print its metrics as JSON.

Run from the root of a source checkout:

    python3 affwbench/run.py --workload weyl-heavy --seed 1 --seconds 42 --trace 0

The workload's job list (``jobs.py``) runs as a closed loop, one job after
another in this one process, in whole passes for as long as another pass
fits in ``--seconds`` (counted from process start, set-up included); with
``--trace 0`` the time left then goes to single repeats of the jobs that
still fit.  Every output is checked against ``oracles.py``.  With ``--trace 0``
the last line carries the end-to-end metrics; with ``--trace 1`` untraced
and traced passes alternate and the last line carries the per-layer
metrics, while the span tree goes to ``affwbench/out/``.  ``--smoke`` runs
one small job per workload and checks that every metric named in
BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()

# One BLAS thread, set before numpy loads: the workloads use at most two
# threads, and only the streamed job starts a second one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import jobs  # noqa: E402
from spans import LAYERS, Recorder, layer_table, op_totals, span_tree  # noqa: E402

# glibc's malloc_trim hands freed heap back to the OS; absent elsewhere.
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
if _malloc_trim is not None:
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 7

END_TO_END_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "slowest_job_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}


def fail(msg: str) -> int:
    print(f"affwbench: {msg}", file=sys.stderr)
    return 2


def load_library():
    """Put the checkout's ``src`` first on the path; affw must come from there."""
    src = ROOT / "src"
    if not (src / "affw" / "__init__.py").is_file():
        raise RuntimeError(f"no affw sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))


def import_workload(workload: str):
    for mod in jobs.WORKLOAD_MODULES[workload]:
        importlib.import_module(f"affw.{mod}")


# -- machine description ------------------------------------------------------------


def machine() -> dict:
    import numpy
    import sympy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "ram_gib": round(ram, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "numba": "installed" if importlib.util.find_spec("numba") else "absent",
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# -- setup ------------------------------------------------------------------------------


def setup_probe(args) -> int:
    """Child process: import and generate the job list, then report ready."""
    import_workload(args.workload)
    jobs.build(args.workload, args.seed, smoke=args.smoke)
    print("ready", flush=True)
    return 0


def measure_setup(args, samples: int) -> list[float]:
    """Wall time from process start to the first job, in fresh processes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait()
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"setup probe failed (exit {rc})")
        out.append(dt)
    return out


# -- passes ---------------------------------------------------------------------------


def run_pass(job_list, indices, traced: bool, work_root: Path) -> dict:
    """Run the jobs at ``indices`` of ``job_list`` once each, in that order."""
    rec = Recorder(traced)
    dirs = []
    for i in indices:
        d = work_root / f"job{i}"
        d.mkdir(parents=True)
        dirs.append(d)
    sympy_cache = sys.modules.get("sympy.core.cache")
    records = []
    t0 = time.perf_counter()
    for i, work in zip(indices, dirs):
        job = job_list[i]
        # each job starts as a fresh process would: no sympy cache, and no
        # heap left over from the job before, whatever the seeded order
        if sympy_cache is not None:
            sympy_cache.clear_cache()
        gc.collect()
        if _malloc_trim is not None:
            _malloc_trim(0)
        rec.job_id, rec.failed_layer = job.name, None
        tj = time.perf_counter()
        sid = rec.begin("job") if traced else None
        err = None
        try:
            job.fn(rec, work)
        except Exception as e:
            err = e
        finally:
            if sid is not None:
                rec.end(sid)
        records.append((i, job, time.perf_counter() - tj, err, rec.failed_layer))
    solve = time.perf_counter() - t0
    shutil.rmtree(work_root)
    return {"traced": traced, "full": len(indices) == len(job_list), "solve_s": solve,
            "t0": t0, "spans": rec.spans, "counts": dict(rec.counts),
            "jobs": [outcome(*r) for r in records]}


def outcome(index, job, seconds, err, failed_layer) -> dict:
    rec = {"index": index, "job": job.name, "seconds": seconds, "status": "ok"}
    if err is None:
        if job.known:
            rec["note"] = f"known failure no longer happens: {job.known[0]}"
        return rec
    kind = getattr(err, "kind", type(err).__name__)
    rec["error"] = f"{kind}: {err}"
    rec["layer"] = getattr(err, "layer", None) or failed_layer or "benchmark"
    known = job.known is not None and kind == job.known[0] and job.known[1] in str(err)
    rec["status"] = "known_failure" if known else "failed"
    return rec


def run_passes(job_list, seconds: float, trace: bool) -> list[dict]:
    """Whole passes while the longest pass so far still fits in ``seconds``
    from process start; with tracing U/T alternate and there are at least
    two.  Without tracing, the time left goes to single repeats of the jobs,
    in list order, each while its longest time so far still fits."""
    work_root = OUT_DIR / f"work-{os.getpid()}"
    everything = list(range(len(job_list)))
    passes = []

    def left():
        return seconds - (time.perf_counter() - START)

    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(job_list, everything, traced, work_root))
        longest = max(p["solve_s"] for p in passes)
        if longest > left() and (not trace or len(passes) >= 2):
            break
    if trace:
        return passes
    worst = [max(p["jobs"][i]["seconds"] for p in passes) for i in everything]
    while True:
        fits = [i for i in everything if worst[i] <= left()]
        if not fits:
            return passes
        for i in fits:
            if worst[i] <= left():
                passes.append(run_pass(job_list, [i], False, work_root))
                worst[i] = max(worst[i], passes[-1]["jobs"][0]["seconds"])


# -- metrics ----------------------------------------------------------------------------


def failed_share(p: dict) -> float:
    """(failed + 1) / (attempted + 1): a share of failed jobs that is never 0."""
    failed = sum(j["status"] != "ok" for j in p["jobs"])
    return (failed + 1) / (len(p["jobs"]) + 1)


def mean_job_times(passes) -> list[float]:
    """Each job's mean time over its repeats in the run.  The repeats are
    spread over the whole run, so the mean is the job's time at the host's
    average speed over the run, which co-tenants swing by up to 1.9x.  On a
    2-vCPU KVM guest it spread less from run to run than the fastest or the
    median repeat did, over two 10-seed rounds per workload."""
    times: dict[int, list[float]] = {}
    for p in passes:
        for j in p["jobs"]:
            times.setdefault(j["index"], []).append(j["seconds"])
    return [statistics.fmean(times[i]) for i in sorted(times)]


def end_to_end(passes, setup) -> dict:
    per_job = mean_job_times(passes)
    values = {
        "solve_s": sum(per_job),
        "setup_s": statistics.median(setup),
        "slowest_job_s": max(per_job),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": statistics.median(
            failed_share(p) for p in passes if p["full"] and not p["traced"]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def chosen_traced_pass(passes) -> dict:
    """The traced pass with the median solve time (the lower one of two)."""
    traced = sorted((p for p in passes if p["traced"]), key=lambda p: p["solve_s"])
    return traced[(len(traced) - 1) // 2]


def per_layer(passes) -> tuple[dict, dict]:
    p = chosen_traced_pass(passes)
    plain = statistics.median(q["solve_s"] for q in passes if not q["traced"])
    ops = op_totals(p["spans"])
    counts = p["counts"]
    table = layer_table(p["spans"], p["solve_s"])

    def rate(count, op):
        return counts.get(count, 0) / ops[op] if ops.get(op) else 0.0

    m = {}
    for op in ("liealg.build", "affine.labels", "modular.smatrix", "modular.conservative",
               "fusion.find_vacuum", "fusion.verlinde", "fusion.iso", "qseries.character",
               "qseries.kw_numerator", "qseries.series", "opecalc.bracket", "cli.smatrix",
               "cli.fusion"):
        m[f"{op}_s"] = (ops.get(op, 0.0), "s")
    m["liealg.weyl_elements_per_s"] = (rate("liealg.weyl_elements", "liealg.weyl_stream"), "1/s")
    m["modular.weyl_terms_per_s"] = (rate("modular.weyl_terms", "modular.smatrix"), "1/s")
    for name in ("affine.labels", "modular.weyl_terms", "fusion.table_entries",
                 "qseries.character_coeffs", "qseries.theta_points", "opecalc.brackets",
                 "cli.nonzero_exits"):
        m[name] = (counts.get(name, 0), "count")
    m["modular.checkpoint_bytes"] = (counts.get("modular.checkpoint_bytes", 0), "B")
    m["cli.bytes_written"] = (counts.get("cli.bytes_written", 0), "B")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (table[layer], "s")
        m[f"{layer}.failed"] = (
            sum(j["status"] != "ok" and j.get("layer") == layer for j in p["jobs"]), "count")
    m["trace.unaccounted_s"] = (table["unaccounted"], "s")
    m["trace.solve_s"] = (p["solve_s"], "s")
    m["trace.overhead_s"] = (p["solve_s"] - plain, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, table


# -- reporting --------------------------------------------------------------------------


def write_json(path: Path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, default=str) + "\n")


def report_jobs(passes) -> tuple[int, int]:
    """Print every failure by name; return (attempted, unexpected failures)."""
    attempted = failed = 0
    seen = set()
    for p in passes:
        for j in p["jobs"]:
            attempted += 1
            failed += j["status"] == "failed"
            line = (j["status"], j["job"], j.get("layer"), j.get("error") or j.get("note"))
            if (j["status"] != "ok" or "note" in j) and line not in seen:
                seen.add(line)
                print(f"{j['status']}: {j['job']} [{j.get('layer', '-')}] {line[3]}")
    return attempted, failed


def strip_pass(p: dict) -> dict:
    return {k: v for k, v in p.items() if k not in ("spans", "t0")}


def run_workload(args) -> int:
    setup = [] if args.trace else measure_setup(args, 1 if args.smoke else SETUP_SAMPLES)
    import_workload(args.workload)
    job_list = jobs.build(args.workload, args.seed, smoke=args.smoke)
    passes = run_passes(job_list, args.seconds, bool(args.trace))
    info = machine()
    print("machine: " + json.dumps(info, sort_keys=True))
    attempted, failed = report_jobs(passes)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": info, "setup_samples_s": setup,
              "passes": [strip_pass(p) for p in passes]}
    if args.trace:
        metrics, table = per_layer(passes)
        p = chosen_traced_pass(passes)
        write_json(OUT_DIR / f"{tag}-spans.json", {
            "workload": args.workload, "seed": args.seed, "machine": info,
            "traced_solve_s": p["solve_s"], "self_time_s": table,
            "spans": span_tree(p["spans"], p["t0"]),
        })
        for layer, secs in table.items():
            print(f"self time {layer:12s} {secs:10.4f} s")
    else:
        metrics = end_to_end(passes, setup)
    result["metrics"] = metrics
    write_json(OUT_DIR / f"{tag}.json", result)
    print(f"results: {OUT_DIR / tag}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def smoke(args) -> int:
    """One small job per workload, untraced then traced; every metric must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            try:
                res = json.loads(last)
            except ValueError:
                res = {}
            if proc.returncode != 0 or not res.get("correct") or res.get("failed"):
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}, {last[:300]}"
                                f" {proc.stderr[-500:]}")
                continue
            for m in names:
                got = res["metrics"].get(m["name"])
                if not got or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{workload} trace={trace}: metric {m['name']} missing or without unit {m['unit']}")
            print(f"smoke {workload} trace={trace}: {res['attempted']} jobs checked")
    for p in problems:
        print("smoke problem: " + p)
    print(json.dumps({"smoke": True, "correct": not problems, "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["weyl-heavy", "label-heavy", "exact-series"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="one small job per workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        load_library()
    except RuntimeError as e:
        return fail(str(e))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload is None:
        if args.smoke:
            return smoke(args)
        return fail("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
