#!/usr/bin/env python3
"""The blockmonoid benchmark.

    python3 perfbench/run.py --workload {sweep-cyclic,sweep-lattice,queries,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src/` directory. This script measures set-up time by spawning fresh
interpreters that import the package, runs the workload's passes one at a
time, each in a fresh single-threaded worker process (worker.py), checks
every answer (gate.py), and prints each metric by name and unit. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are BENCHMARK.json's end_to_end ones, with
--trace 1 its per_layer ones. The exit code is 0 only when every answer is
right.

Metric names and units come from BENCHMARK.json. Result records and span
files go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import adapter
import clock
import gate
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Fresh interpreters spawned per run to time set-up; the first one also
# writes the bytecode cache and is not counted.
SETUP_SPAWNS = 9
# A run must end within 180 s; workers get what is left of this.
DEADLINE_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# Run with `python -c` in a fresh interpreter: calibrates (clock.py), then
# times the package import and prints: seconds spent before the import,
# import seconds, median chunk time, imported file.
IMPORT_PROBE = f"""
import sys, time
t_enter = time.perf_counter()
sys.path.insert(0, {HERE!r})
import clock
chunk = sorted(clock.calibrate() for _ in range(3))[1]
t0 = time.perf_counter()
import {adapter.PACKAGE}
t1 = time.perf_counter()
print(t0 - t_enter, t1 - t0, chunk, {adapter.PACKAGE}.__file__, flush=True)
"""


def measure_setup() -> tuple[list[float], list[float]]:
    """(spawn-to-import-returned, in-child import) per spawn, in reference seconds."""
    totals, imports = [], []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", IMPORT_PROBE],
                              stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                              text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            if child.wait(timeout=60) != 0 or not line:
                raise RuntimeError(f"importing the package failed (exit {child.returncode})")
        before, import_s, chunk, path = line.split(maxsplit=3)
        if not os.path.realpath(path.strip()).startswith(os.path.realpath(SRC) + os.sep):
            raise RuntimeError(f"imported {path.strip()}, expected a module under {SRC}")
        if i:
            scale = clock.CHUNK_REFERENCE_S / float(chunk)
            totals.append((t1 - t0 - float(before)) * scale)
            imports.append(float(import_s) * scale)
    return totals, imports


def run_worker(job: dict, timeout: float) -> list[dict]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])["passes"]


def run_passes(job: dict, seconds: int, deadline: float) -> list[dict]:
    """Pass 0, 1, ..., each in its own fresh worker, while the next pass is
    expected to end within `seconds` (overrunning by at most half a pass)."""
    passes = []
    began = last = time.perf_counter()
    for index in itertools.count():
        now = time.perf_counter()
        if index and now + (now - last) / 2 - began > seconds:
            break
        last = now
        passes += run_worker(dict(job, index=index,
                                  trace_path=job["trace_path"].format(index=index)),
                             timeout=deadline - now)
    return passes


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    digest = hashlib.sha256()
    pkg_dir = os.path.join(SRC, adapter.PACKAGE)
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu or platform.processor() or None, "commit": commit,
            "source_sha256": digest.hexdigest(), "time": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                                      time.gmtime())}


def end_to_end(setup: list[float], passes: list[dict],
               requests: dict[int, list]) -> tuple[dict, dict]:
    """(metrics, notes) of the untraced passes."""
    passes = [p for p in passes if not p["traced"]]
    latency = [x for p in passes for x in p["latency"]]
    # A request that several passes repeat (every sweep does) counts once,
    # with its fastest repeat: contention only ever adds time, and a sweep of
    # a few milliseconds is too short for the reference clock to correct.
    repeats: dict[str, list[float]] = {}
    for p in passes:
        for req, x in zip(requests[p["index"]], p["latency"]):
            repeats.setdefault(json.dumps(req, sort_keys=True), []).append(x)
    per_request = [min(xs) for xs in repeats.values()]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.mean(p["wall"] for p in passes),
        "cpu_s": statistics.mean(p["cpu_total"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ops_per_s": len(latency) / sum(latency),
        "latency_p50_ms": percentile(per_request, 50) * 1e3,
        "latency_p99_ms": percentile(per_request, 99) * 1e3,
    }
    notes = {"passes": len(passes), "latency_samples": len(per_request),
             "setup_samples": len(setup),
             "raw_wall_s": statistics.median(p["raw_wall"] for p in passes)}
    return metrics, notes


def run_one(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> bool:
    started = time.perf_counter()
    setup, imports = measure_setup()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    job = {"workload": workload, "seed": seed, "trace": trace, "src": SRC,
           "trace_path": stem + "-pass{index}.spans.jsonl.gz"}
    passes = run_passes(job, seconds, deadline=started + DEADLINE_S)

    requests = {i: workloads.make_pass(workload, seed, i) for i in {p["index"] for p in passes}}
    attempted, failed, problems = gate.check_run(workload, seed, passes, requests)
    for line in problems[:20]:
        print(f"WRONG {line}", file=sys.stderr)

    measured, notes = end_to_end(setup, passes, requests)
    if trace:
        traced = [p for p in passes if p["traced"]]
        traced_wall = sum(p["wall"] for p in traced)
        measured = tracer.per_layer([p["layers"] for p in traced], traced_wall)
        measured["trace.overhead_frac"] = (
            traced_wall / sum(p["wall"] for p in passes if not p["traced"]) - 1)
        measured["cli.import_s"] = statistics.median(imports)
        measured["cli.interpreter_s"] = statistics.median(setup) - measured["cli.import_s"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    info = provenance(workload, seed, seconds, trace)
    print(f"# {workload} seed={seed} trace={trace}: {notes['passes']} passes, "
          f"{notes['latency_samples']} distinct requests timed, "
          f"{notes['setup_samples']} set-up spawns; times in reference seconds "
          f"(raw wall_s {notes['raw_wall_s']:.6g} s)")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_frac':32s} {failed / attempted:>14.6g} ratio  ({failed}/{attempted})")
    if trace:
        shares = {k: v for k, v in measured.items() if k.endswith(".self_share")}
        print("# self-time shares: " + ", ".join(
            f"{k.split('.')[0]} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    print("# provenance " + json.dumps(info))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(stem + ".json", "w") as f:
        json.dump(dict(result, provenance=info, notes=notes, problems=problems[:100]),
                  f, indent=1)
    print(json.dumps(result), flush=True)
    return failed == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, adapter.PACKAGE, "__init__.py")):
        print(f"no {adapter.PACKAGE} sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        ok = run_one(name, args.seed, seconds, args.trace, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
