#!/usr/bin/env python3
"""Record the gate's golden outputs from the package in this checkout.

    python3 perfbench/record_golden.py

Writes golden/sweeps.json (every group of both sweep workloads) and
golden/queries-seed0.json (the first passes of `queries` on seed 0). Every
recorded answer must first pass the gate's seed-independent checks. Record
again only when the benchmark's inputs change, from a commit whose answers
are trusted; a faster commit must reproduce these files, not rewrite them.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Passes of `queries` (seed 0) with recorded answers; a default-length run
# makes about ten, later passes are checked by the seed-independent checks.
QUERY_PASSES = 4


def checked(workload: str, index: int) -> tuple[list, list]:
    p = worker.run_pass(workload, gate.GOLDEN_QUERY_SEED, index)
    reqs = workloads.make_pass(workload, gate.GOLDEN_QUERY_SEED, index)
    for i, (req, ans) in enumerate(zip(reqs, p["answers"])):
        problems = [ans["error"]] if "error" in ans else gate.CHECKS[req["op"]](req, ans)
        if problems:
            raise SystemExit(f"{workload} pass {index} op {i} {gate.describe(req)}: {problems}")
    return reqs, p["answers"]


def main() -> None:
    sweeps = {}
    for workload in ("sweep-cyclic", "sweep-lattice"):
        for req, ans in zip(*checked(workload, 0)):
            sweeps[workloads.spec(req["orders"])] = gate.mathematical("sweep", ans)
    passes = []
    for index in range(QUERY_PASSES):
        reqs, answers = checked("queries", index)
        passes.append([gate.mathematical(r["op"], a) for r, a in zip(reqs, answers)])

    os.makedirs(gate.GOLDEN_DIR, exist_ok=True)
    with open(gate.GOLDEN_SWEEPS, "w") as f:
        f.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                                   for k, v in sorted(sweeps.items())) + "\n}\n")
    with open(gate.GOLDEN_QUERIES, "w") as f:
        f.write(f'{{"seed": {gate.GOLDEN_QUERY_SEED}, "passes": [\n')
        f.write(",\n".join(json.dumps(p, separators=(",", ":")) for p in passes))
        f.write("\n]}\n")

if __name__ == "__main__":
    main()
