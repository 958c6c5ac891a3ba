#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at smoke size (one pass, untraced) and the `queries`
workload traced, checking the output contract; then feeds the gate a
corrupted answer and a corrupted sweep and checks that it catches both.
Exits 0 when every check holds.
"""
from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import adapter  # noqa: E402
import gate  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def smoke_runs(spec: dict) -> None:
    runs = [(w, 0) for w in workloads.WORKLOADS] + [("queries", 1)]
    for workload, trace in runs:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
        wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        expect(proc.returncode == 0 and result.get("correct") is True
               and result.get("failed") == 0 and result.get("attempted", 0) >= 1,
               f"{workload} trace={trace}: exit 0, every answer right")
        expect(sorted(result.get("metrics", {})) == sorted(wanted),
               f"{workload} trace={trace}: reports exactly the BENCHMARK.json metrics")


def corrupted_sweep() -> None:
    req = {"op": "sweep", "orders": [2, 2, 2, 2]}
    ans = adapter.answer("sweep", adapter.sweep(req))
    expect(not gate.check_pass("sweep-lattice", 0, 0, [req], [ans]), "C2^4 sweep passes")
    bad = copy.deepcopy(ans)
    bad["extremal"][0][2] = not bad["extremal"][0][2]  # flip one lcn flag
    expect(len(gate.check_pass("sweep-lattice", 0, 0, [req], [bad])) == 1,
           "gate catches a sweep with one wrong extremal flag")
    bad = copy.deepcopy(ans)
    bad["subsets_pruned"] += 1
    expect(len(gate.check_pass("sweep-lattice", 0, 0, [req], [bad])) == 1,
           "gate catches a sweep whose subset accounting is off")


def corrupted_answers() -> None:
    for seed in (gate.GOLDEN_QUERY_SEED, 1):
        reqs = workloads.make_pass("queries", seed, 0)
        answers = worker.run_pass("queries", seed, 0)["answers"]

        def caught(bad, i, what):
            wrong = [w[0] for w in gate.check_pass("queries", seed, 0, reqs, bad)]
            expect(wrong == [i], f"seed {seed}: gate catches {what}")

        expect(not gate.check_pass("queries", seed, 0, reqs, answers),
               f"queries seed {seed} pass 0 passes")
        i = next(i for i, r in enumerate(reqs) if r["op"] == "lengths")
        bad = copy.deepcopy(answers)
        bad[i]["lengths"] = [v for v in bad[i]["lengths"] if v != reqs[i]["blocks"]] or [99]
        caught(bad, i, "a set of lengths missing the built length")
        i = next(i for i, (r, a) in enumerate(zip(reqs, answers))
                 if r["op"] == "witness" and a["witness"])
        bad = copy.deepcopy(answers)
        bad[i]["witness"]["terms"][0][0] += 1
        caught(bad, i, "a witness whose halves differ")
        if seed == gate.GOLDEN_QUERY_SEED:
            i = next(i for i, r in enumerate(reqs) if r["op"] == "classify")
            bad = copy.deepcopy(answers)
            bad[i]["decomposable"] = not bad[i]["decomposable"]
            caught(bad, i, "a classification that differs from the golden one")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    smoke_runs(spec)
    corrupted_sweep()
    corrupted_answers()
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
