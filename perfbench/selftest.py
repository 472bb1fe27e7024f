"""Self-test of the benchmark: python3 perfbench/selftest.py

Checks, from the root of a source checkout:

1. BENCHMARK.json against its format rules: keys, name and unit
   syntax, bounds, and that its workloads and metrics are exactly the
   ones this code produces, with the same units;
2. that an op checked against a deliberately wrong reference is counted
   as failed, and so shows in failed_ops_ratio;
3. the result line of short real runs, traced and
   untraced, and that a directory holding only BENCHMARK.json and the
   benchmark's files makes the benchmark exit nonzero without a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "items_per_s": "1/s",
             "peak_rss_mb": "MB"}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        failures.append(what)


def check_schema() -> dict:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    check(len(raw) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")
    bench = json.loads(raw)
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "top-level keys are exactly the six required ones")
    cmd = bench["command"]
    check(isinstance(cmd, list) and 1 <= len(cmd) <= 32
          and all(isinstance(c, str) and len(c) <= 200 for c in cmd), "command is a short list")
    check(cmd == ["python3", "perfbench/run.py"], "command runs perfbench/run.py")
    paths = bench["paths"]
    check(1 <= len(paths) <= 16 and all(PATH.match(p) and not p.startswith("/")
                                        and ".." not in p.split("/") for p in paths),
          "paths are 1-16 relative directories")
    check(all((ROOT / p).is_dir() for p in paths), "every path exists")
    rs = bench["run_seconds"]
    check(isinstance(rs, int) and 1 <= rs <= 60, "run_seconds is a whole number in 1..60")

    names = []
    ws = bench["workloads"]
    check(2 <= len(ws) <= 8, "2 to 8 workloads")
    for w in ws:
        check(set(w) == {"name", "why"} and NAME.match(w["name"]) is not None
              and 0 < len(w["why"]) <= 200 and "\n" not in w["why"], f"workload {w['name']}")
        names.append(w["name"])
    check({w["name"] for w in ws} == set(wl.WORKLOADS), "workloads match workloads.WORKLOADS")

    e2e = bench["end_to_end"]
    check(1 <= len(e2e) <= 16, "1 to 16 end-to-end metrics")
    for m in e2e:
        check(set(m) == {"name", "unit", "better", "bound"} and NAME.match(m["name"]) is not None
              and UNIT.match(m["unit"]) is not None and m["better"] in ("lower", "higher")
              and isinstance(m["bound"], (int, float)) and 0 < m["bound"] <= 0.25,
              f"end-to-end metric {m['name']}")
        names.append(m["name"])
    check({m["name"]: m["unit"] for m in e2e} == E2E_UNITS,
          "end-to-end names and units are the ones run.py computes")
    setup = next((m for m in e2e if m["name"] == "setup_s"), {})
    check(setup.get("unit") == "s" and setup.get("better") == "lower"
          and setup.get("bound") == max(m["bound"] for m in e2e),
          "setup_s is in s, lower is better, and has the largest bound")

    layers = bench["per_layer"]
    check(1 <= len(layers) <= 128, "1 to 128 per-layer metrics")
    for m in layers:
        check(set(m) == {"name", "unit", "better"} and NAME.match(m["name"]) is not None
              and UNIT.match(m["unit"]) is not None and m["better"] in ("lower", "higher"),
              f"per-layer metric {m['name']}")
        names.append(m["name"])
    check(all(tracing.METRIC_UNITS.get(m["name"]) == m["unit"] for m in layers),
          "per-layer names and units are ones tracing.py produces")
    check(any(m["name"] == "trace.overhead_ratio" for m in layers),
          "trace.overhead_ratio is reported")
    check(len(names) == len(set(names)), "every name is used once")
    return bench


def check_wrong_reference_counts_as_failed() -> None:
    spec = {"kind": "gaussian", "rho": 0.5}
    moments = wl.MomentsExact(7, wl.load_program(), {})
    good = moments._op(0, spec)
    wrong = moments._op(1, {"kind": "gaussian", "rho": 0.5 + 1e-6})
    ops = [good, wl.Op(1, "gaussian(0.5) checked against gaussian(0.5 + 1e-6)", good.call,
                       wrong.check, 1)]

    class WrongReference(wl.MomentsExact):
        unit_len = len(ops)

        def unit(self, start):
            return ops

    out = worker.run_units(WrongReference(7, moments.program, {}), 0, units=1)
    failed = [not ok for _, _, ok, _ in out["records"]]
    check(failed == [False, True], "the op with the wrong reference, and only it, failed")
    check(sum(failed) / len(failed) == 0.5, "failed_ops_ratio counts it: 1 of 2 ops")
    check(len(out["problems"]) == 1 and "sigma2 rel error" in out["problems"][0],
          "the failure names the disagreeing quantity")
    check(ref.rel_error(ref.LawReference(spec).sigma2, 0.5625) < 1e-15,
          "reference sigma^2 of gaussian(0.5) is (1 - rho^2)^2")


def result_line(args: list[str], cwd: Path) -> tuple[int, dict | None]:
    p = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=180)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return p.returncode, None


def check_runs(bench: dict) -> None:
    for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        code, res = result_line(["--workload", "moments_exact", "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace)], ROOT)
        check(code == 0 and res is not None, f"--trace {trace} run exits 0 with a result")
        if res is None:
            continue
        check(set(res) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        check(isinstance(res["attempted"], int) and res["attempted"] >= 1
              and isinstance(res["failed"], int), "attempted and failed are counts")
        check(res["correct"] == (res["failed"] == 0), "correct means no op failed")
        check({k: v["unit"] for k, v in res["metrics"].items()}
              == {m["name"]: m["unit"] for m in listed}, f"--trace {trace} metric names and units")
        if trace == 0:
            check(all(v["value"] > 0 for v in res["metrics"].values()),
                  "end-to-end values are positive")
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in bench["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    code, res = result_line(["--workload", "mc_small_n", "--seed", "1", "--seconds", "1"], bare)
    shutil.rmtree(bare)
    check(code != 0 and res is None, "without the package the benchmark fails with no result")


def main() -> int:
    bench = check_schema()
    check_wrong_reference_counts_as_failed()
    check_runs(bench)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
