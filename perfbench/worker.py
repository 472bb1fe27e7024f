"""One benchmark worker process; ``run.py`` starts them one at a time.

Usage: worker.py TASK_JSON.  The task's ``mode`` is one of

measure   set up, then run whole units of ops until the slot ends (or a
          fixed number of units, for a workload with nominal_unit_s) or,
          with ``traced``, wrap the program's layers and run a fixed
          number of units; with ``untimed``, then run the workload's
          untimed correctness set
write     write the estimate_1m CSV with empcalc.io, timed between two
          host-speed probes, and compute its reference

The result is one JSON object on the last line of stdout.  Set-up time
runs from the top of this file, before numpy and empcalc are imported.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

MAX_PROBLEMS = 5
PROBE_EVERY_S = 0.1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call_op(op, program, tracer=None) -> tuple[float, list[str]]:
    """Call one op and check its output: (seconds, problems)."""
    t = time.perf_counter()
    try:
        if tracer is None:
            out = op.call(program)
        else:
            out = tracer.run_op(op.index, op.call, program)
        dt = time.perf_counter() - t
        return dt, op.check(out)
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        return time.perf_counter() - t, [f"{type(exc).__name__}: {exc}"]


def problem(op, found) -> str:
    return f"op {op.index} ({op.label}): {'; '.join(found)}"


def run_units(workload, start: int, units=None, slot_s=None, tracer=None) -> dict:
    """Run whole units from op ``start``: ``units`` of them, or until ``slot_s`` has passed.

    The workload's host-speed probe is timed after the first op, after any
    op that ends PROBE_EVERY_S or more after the last probe, and at the end.
    Each record is [seconds, items, ok, index of the last probe before the
    op], the index -1 for the ops before the first probe.

    ``peak_rss_mb`` is read after the first unit, and no probe runs before
    the first op, so it is the program's own peak.  The estimate_1m probe
    leaves its freed arrays in the heap, and with a probe first the peak
    was 132 or 136 MB by seed; later units only add the allocator's
    fragmentation, which depends on how many ops fit in the slot (132 to
    141 MB after two ops).
    """
    records, problems, probes = [], [], []
    index, done = start, 0
    began = last_probe = time.perf_counter()
    while True:
        for op in workload.unit(index):
            dt, found = call_op(op, workload.program, tracer)
            records.append([dt, op.items, not found, len(probes) - 1])
            if found and len(problems) < MAX_PROBLEMS:
                problems.append(problem(op, found))
            if not probes or time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(workload.time_probe())
                last_probe = time.perf_counter()
        index += workload.unit_len
        done += 1
        if done == 1:
            peak = peak_rss_mb()
        if units is not None and done >= units:
            break
        if slot_s is not None and time.perf_counter() - began >= slot_s:
            break
    if records[-1][3] == len(probes) - 1:
        probes.append(workload.time_probe())
    return {"records": records, "problems": problems, "probes": probes, "start": start,
            "next_index": index, "peak_rss_mb": peak}


def run_untimed(workload) -> dict:
    """The workload's untimed correctness set: counts and the first problems."""
    attempted, failed, problems = 0, 0, []
    for op in workload.untimed_checks():
        _, found = call_op(op, workload.program)
        attempted += 1
        failed += bool(found)
        if found and len(problems) < MAX_PROBLEMS:
            problems.append(problem(op, found))
    return {"attempted": attempted, "failed": failed, "problems": problems}


def write_csv(task, tracer) -> dict:
    """Write the CSV; the write is timed between two host-speed probes."""
    from workloads import Estimate1M, load_program
    import reference
    program = load_program()
    if tracer is not None:
        tracer.install(program)
    xs, ys = Estimate1M.data(task["seed"])
    workload = Estimate1M(task["seed"], program, {})
    before = time.perf_counter() - T0
    probes = [workload.time_write_probe()]
    t = time.perf_counter()
    program.io.write_paired_csv(program.sample.PairedSample(xs, ys), task["csv"])
    setup_s = before + time.perf_counter() - t
    probes.append(workload.time_write_probe())
    return {"setup_s": setup_s, "probes": probes, "probe_ref_s": workload.write_probe_ref_s,
            "reference": reference.estimate_reference(xs, ys)}


def measure(task, tracer) -> dict:
    import numpy
    from workloads import WORKLOADS, load_program
    program = load_program()
    workload = WORKLOADS[task["workload"]](task["seed"], program, task.get("ctx", {}))
    workload.warm_up()
    if tracer is not None:
        tracer.install(program)
    setup_s = time.perf_counter() - T0
    if tracer is not None:
        units, slot_s = workload.trace_units, None
    elif workload.nominal_unit_s:
        units, slot_s = max(1, round(task["slot_s"] / workload.nominal_unit_s)), None
    else:
        units, slot_s = None, task["slot_s"]
    result = run_units(workload, task["start"], units=units, slot_s=slot_s, tracer=tracer)
    result.update(setup_s=setup_s, numpy=numpy.__version__, probe_ref_s=workload.probe_ref_s)
    if task.get("untimed"):
        result["untimed"] = run_untimed(workload)
    return result


def main() -> int:
    task = json.loads(sys.argv[1])
    sys.path.insert(0, task["src"])
    tracer = None
    if task.get("traced"):
        from tracing import Tracer
        tracer = Tracer()
    result = (write_csv if task["mode"] == "write" else measure)(task, tracer)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["unpatched"] = tracer.missing
        result["baselines"] = tracer.baseline_figures()
        tracer.write(task["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
