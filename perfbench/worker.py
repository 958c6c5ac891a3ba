"""One pass of a workload in a fresh, single-threaded interpreter.

Reads its job as JSON on stdin, runs pass `index` of the workload, and writes
timings, peak RSS and plain-data answers as JSON on stdout. Every operation
is timed on its own, wall and process CPU, in reference seconds (see
clock.py); building the inputs and converting answers happen outside those
timers. With `trace` set, the same pass then runs again with every layer
wrapped (see tracer.py), and the per-layer totals come back as well.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

import adapter
import clock
import tracer
import workloads


def run_pass(workload, seed, index, trace=None) -> dict:
    """One pass, with raw perf_counter and process_time readings around every op."""
    ops = workloads.make_pass(workload, seed, index)
    stamps, answers = [], []
    for i, req in enumerate(ops):
        op = adapter.OPERATIONS[req["op"]]
        span = trace.open("bench.op", [index, i]) if trace else None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = op(req)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        if span:
            trace.close(span)
        stamps.append((t0, t1, c1 - c0))
        answers.append({"error": error} if error else adapter.answer(req["op"], result))
        result = None
    return {"index": index, "traced": trace is not None, "stamps": stamps,
            "answers": answers}


def run_timed(workload, seed, index, trace=None) -> dict:
    """Pass `index` timed in reference seconds: per-op `latency` and `cpu`,
    their sums `wall` and `cpu_total`, and `raw_wall`, the operation time in
    plain seconds without the calibrations."""
    speed = clock.SpeedClock()
    speed.start()
    try:
        p = run_pass(workload, seed, index, trace)
    finally:
        speed.stop()
    latency, cpu, raw_wall = [], [], 0.0
    for t0, t1, c in p.pop("stamps"):
        calibrating, calibrating_cpu = speed.calibration_within(t0, t1)
        latency.append(speed.interval(t0, t1))
        cpu.append((c - calibrating_cpu) * speed.cpu_rate(t0, t1))
        raw_wall += t1 - t0 - calibrating
    p.update(latency=latency, cpu=cpu, wall=sum(latency), cpu_total=sum(cpu),
             raw_wall=raw_wall)
    if trace:
        for rec in trace.spans:
            rec[tracer.EXCLUDED] *= speed.rate(rec[tracer.END])
            rec[tracer.START] = speed.reference(rec[tracer.START])
            rec[tracer.END] = speed.reference(rec[tracer.END])
    return p


def main() -> None:
    job = json.load(sys.stdin)
    report = sys.stdout
    sys.stdout = sys.stderr  # keep stdout for the result alone

    package = adapter.load()
    src = os.path.realpath(job["src"])
    if not os.path.realpath(package.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {package.__file__}, expected a module under {src}")

    workload, seed, index = job["workload"], job["seed"], job["index"]
    passes = [run_timed(workload, seed, index)]
    passes[0]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if job["trace"]:
        trace = tracer.Tracer()
        trace.install()
        try:
            traced = run_timed(workload, seed, index, trace)
        finally:
            trace.uninstall()
        traced["layers"] = tracer.pass_totals(trace.spans)
        trace.write(job["trace_path"], {"workload": workload, "seed": seed, "pass": index,
                                        "clock": "reference seconds"})
        passes.append(traced)
    json.dump({"package_file": package.__file__, "passes": passes}, report)
    report.write("\n")


if __name__ == "__main__":
    main()
