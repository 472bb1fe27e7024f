"""empcalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see BENCHMARK.json for why each was chosen):

mc_small_n     ``empcalc simulate`` at n=100, reps=2000 through cli.main
mc_large_n     a cycle of simulate and lemma1 ops at n=1000-2000, reps=2000
moments_exact  the exact calculus on a seeded list of centred laws
estimate_1m    ``empcalc estimate`` on a 1M-row CSV, written once per run

A run starts ``WORKERS`` worker processes one after another, each with
the package's default thread setting and a single BLAS thread.  Each sets
up afresh and runs whole units of ops for its share of ``--seconds``; the
median of their set-up times, plus the one CSV write of estimate_1m, is
``setup_s``.  ``op_p50_s`` is the median over a unit's op kinds of each
kind's median op time, ``op_tail_s`` a high percentile (see tail), and
``items_per_s`` each worker's items over its total op time, the median of
the workers.  Between ops a worker times its workload's host-speed probe
(see workloads.py), and every time is
scaled by the probes around it to seconds at a reference host speed; the
unscaled figures are printed too.  With ``--trace 1`` one more worker
runs a fixed number of units with every layer wrapped, and the per-layer
metrics are reported instead of the end-to-end ones.

Every op is checked against an independent reference; an op that raises,
exits nonzero, fails a report check or disagrees with the reference is
counted in ``failed``.  The first worker also runs its workload's untimed
correctness set (moments_exact: shifted and scaled discrete laws, which
fail at the seed commit); those ops are printed with their own counts and
enter neither ``failed`` nor ``correct``.  The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import BASELINES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKERS = 3
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10
TAIL_MAX_PERCENTILE = 95.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EMPCALC_THREADS"}
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(task: dict, deadline: float) -> dict:
    task = dict(task, src=str(SRC))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached before a worker could start")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(task)],
                              cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {task['mode']} exceeded the run time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {task['mode']} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(workers: list[dict]) -> tuple[float, str]:
    """The op_tail_s value and how it was taken.

    This is the highest percentile of all ops with at least TAIL_BEYOND ops
    beyond it, but no higher than TAIL_MAX_PERCENTILE: with thousands of
    sub-ms ops (moments_exact) the highest percentiles are set by the host's
    scheduling hiccups; over five runs p99 spread by 27% of its median, and
    p99.8 by 43% over four.  With too few ops for TAIL_BEYOND beyond
    (estimate_1m), it is the median over workers of each worker's slowest
    op: over eight runs of six ops the maximum spread by 18% of its median,
    this by 7.5%.
    """
    per_worker = [[d for d, _, _ in scaled_ops(w)] for w in workers]
    d = sorted(x for ops in per_worker for x in ops)
    n = len(d)
    if n <= TAIL_BEYOND:
        return (statistics.median(max(ops) for ops in per_worker),
                f"median of the workers' slowest ops; {n} ops, too few for {TAIL_BEYOND} beyond")
    k = min(n - TAIL_BEYOND, math.ceil(n * TAIL_MAX_PERCENTILE / 100.0)) - 1
    return d[k], f"p{100.0 * (k + 1) / n:.1f} of {n} ops, {n - k - 1} beyond"


def machine(seed: int, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    env = worker_env()
    return {"nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": numpy_version,
            "blas_thread_env": {v: env[v] for v in BLAS_THREAD_VARS},
            "empcalc_threads_env": "unset", "commit": commit or "unknown (not a git checkout)",
            "seed": seed, "op_seed": "seed * 1000000 + op index", "workers": WORKERS}


def op_scales(worker: dict) -> list[float]:
    """Per op, probe_ref_s over the mean of the probes timed just before and after it
    (the first probe alone for the ops before it)."""
    p, ref = worker["probes"], worker["probe_ref_s"]
    return [ref / (p[0] if k < 0 else 0.5 * (p[k] + p[k + 1])) for *_, k in worker["records"]]


def scaled_ops(worker: dict) -> list[tuple[float, int, bool]]:
    """(duration, items, ok) per op, the duration scaled to the reference host speed."""
    return [(d * f, items, ok)
            for (d, items, ok, _), f in zip(worker["records"], op_scales(worker))]


def median_by_kind(workers: list[dict], unit_len: int) -> float:
    """Median over the unit's op positions (its op kinds) of each position's median scaled time.

    With one op per unit this is the plain median.  A unit that mixes op
    kinds of different speeds has its pooled median between two kinds, and
    per-op noise moved it from one to the other: over eight mc_large_n runs
    the pooled median spread by 5.5% of its median, this one by 2.4%.
    """
    by_kind: dict[int, list[float]] = {}
    for w in workers:
        for k, (d, _, _) in enumerate(scaled_ops(w)):
            by_kind.setdefault((w["start"] + k) % unit_len, []).append(d)
    return statistics.median(statistics.median(v) for v in by_kind.values())


def setup_scale(worker: dict) -> float:
    """Factor for the set-up time, from the first probes after it."""
    return worker["probe_ref_s"] / statistics.median(worker["probes"][:3])


def throughput(worker: dict) -> float:
    """Items per second of scaled op time over all the worker's ops, slow kinds included."""
    ops = scaled_ops(worker)
    return sum(items for _, items, _ in ops) / sum(d for d, _, _ in ops)


def write_csv(seed: int, csv: Path, traced: bool, deadline: float) -> tuple[dict, dict]:
    """Write the estimate_1m CSV once per run: (ctx for the workers, the write worker's result)."""
    task = {"mode": "write", "seed": seed, "csv": str(csv), "traced": traced}
    if traced:
        task["spans"] = str(OUT / f"spans-estimate_1m-{seed}.write.jsonl")
    w = run_worker(task, deadline)
    return {"csv": str(csv), "reference": w["reference"]}, w


def run(workload: str, seed: int, seconds: int, traced: bool) -> tuple[dict, dict]:
    """Run one workload; return (metrics by name, details for the printed summary)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    csv = OUT / f"{workload}-{seed}.csv"
    workers, index, t, ctx, write = [], 0, None, {}, None
    try:
        if workload == "estimate_1m":
            ctx, write = write_csv(seed, csv, traced, deadline)
        for k in range(WORKERS):
            workers.append(run_worker({"mode": "measure", "workload": workload, "seed": seed,
                                       "start": index, "slot_s": seconds / WORKERS,
                                       "ctx": ctx, "untimed": k == 0}, deadline))
            index = workers[-1]["next_index"]
        if traced:
            t = run_worker({"mode": "measure", "workload": workload, "seed": seed,
                            "start": index, "traced": True, "ctx": ctx,
                            "spans": str(OUT / f"spans-{workload}-{seed}.jsonl")}, deadline)
            if write is not None:
                for key in ("layers", "baselines"):
                    t[key].update({k: v for k, v in write[key].items()
                                   if k.startswith("io.write_")})
    finally:
        csv.unlink(missing_ok=True)

    # (scaled duration, items, ok) for every measured op
    ops = [op for w in workers for op in scaled_ops(w)]
    unit_len = WORKLOADS[workload].unit_len
    p50 = median_by_kind(workers, unit_len)
    tail_s, tail_note = tail(workers)
    # the one CSV write, scaled by the probes around it, is part of every worker's set-up
    written = (write["setup_s"] * write["probe_ref_s"] / statistics.mean(write["probes"])
               if write is not None else 0.0)
    metrics = {
        "setup_s": written + statistics.median(w["setup_s"] * setup_scale(w) for w in workers),
        "op_p50_s": p50,
        "op_tail_s": tail_s,
        "items_per_s": statistics.median(throughput(w) for w in workers),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
    }
    checked = [rec[2] for w in workers + ([t] if t else []) for rec in w["records"]]
    details = {
        "attempted": len(checked), "failed": checked.count(False),
        "problems": [p for w in workers + ([t] if t else []) for p in w["problems"]],
        "untimed": workers[0].get("untimed"),
        "measured_ops": len(ops), "kinds": unit_len, "tail": tail_note,
        "setups": [w["setup_s"] for w in workers],
        "peaks": [w["peak_rss_mb"] for w in workers],
        "written": write["setup_s"] if write is not None else None,
        "scales": [statistics.median(op_scales(w)) for w in workers],
        "raw_p50": statistics.median(rec[0] for w in workers for rec in w["records"]),
        "numpy": workers[0]["numpy"], "unpatched": t["unpatched"] if t else [],
        "baselines": t["baselines"] if t else {}}
    if t:
        # self times scaled like op times, by the traced worker's median factor
        factor = statistics.median(op_scales(t))
        metrics.update({k: v * factor if k.endswith(".self_s") else v
                        for k, v in t["layers"].items()})
        traced_p50 = median_by_kind([t], unit_len)
        metrics["trace.overhead_ratio"] = traced_p50 / p50
    return metrics, details


def print_summary(workload, bench, metrics, details, traced):
    item = WORKLOADS[workload].item
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    n, att, fail = details["measured_ops"], details["attempted"], details["failed"]
    print(f"workload {workload}: {n} measured ops in {WORKERS} worker processes")
    print("  times are scaled to the reference host speed; per-worker scale "
          + ", ".join(f"{s:.3f}" for s in details["scales"])
          + f" (raw op median {details['raw_p50']:.6g} s)")
    setup_note = "median of unscaled set-ups " + ", ".join(f"{s:.3f}" for s in details["setups"])
    if details["written"] is not None:
        setup_note = f"one CSV write ({details['written']:.3f} s unscaled) + " + setup_note
    rows = [("setup_s", metrics["setup_s"], "s", setup_note),
            ("op_p50_s", metrics["op_p50_s"], "s",
             f"median of {n} ops" if details["kinds"] == 1 else
             f"median over {details['kinds']} op kinds of their medians, {n} ops"),
            ("op_tail_s", metrics["op_tail_s"], "s", details["tail"]),
            (f"{item}_per_s", metrics["items_per_s"], "1/s",
             f"items_per_s: {item} over op time per worker, median of workers"),
            ("failed_ops_ratio", fail / att, "ratio", f"{fail} of {att} ops"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB",
             "median of worker peaks after their first unit "
             + ", ".join(f"{m:.1f}" for m in details["peaks"]))]
    for name, value, unit, note in rows:
        print(f"  {name:<24} {value:<14.6g} {unit:<6} {note}")
    for p in details["problems"]:
        print(f"  failed: {p}")
    untimed = details["untimed"]
    if untimed and untimed["attempted"]:
        print(f"  untimed correctness set: "
              f"{untimed['failed']} of {untimed['attempted']} ops failed, ratio "
              f"{untimed['failed'] / untimed['attempted']:.4g}; not in failed or correct")
        for p in untimed["problems"]:
            print(f"  untimed failed: {p}")
    if not traced:
        return
    print(f"per-layer metrics from the traced worker (totals over "
          f"{WORKLOADS[workload].trace_units} unit(s) of ops):")
    for m in bench["per_layer"]:
        print(f"  {m['name']:<44} {metrics[m['name']]:<14.6g} {units[m['name']]}")
    if details["unpatched"]:
        print("  not found in this version, so not traced: " + ", ".join(details["unpatched"]))
    for span, got in details["baselines"].items():
        _, what, low, high = BASELINES[span]
        ratio = got / high if got > high else got / low if got < low else 1.0
        figure = f"{low:.3g}-{high:.3g}" if low != high else f"{low:.3g}"
        print(f"  baseline {what}: traced self time {got:.4g} s unscaled, ROADMAP {figure} s "
              f"({'within the range' if ratio == 1.0 else f'{ratio:.2f}x'})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    if not (SRC / "empcalc" / "__init__.py").is_file():
        print(f"error: no empcalc package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        metrics, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    print("machine: " + json.dumps(machine(args.seed, details["numpy"])))
    print_summary(args.workload, bench, metrics, details, bool(args.trace))
    result = {"correct": details["failed"] == 0, "attempted": details["attempted"],
              "failed": details["failed"],
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in listed}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
