"""Correctness gate: every answer of a run against two kinds of reference.

* Golden outputs recorded from a known-good commit (golden/*.json): the
  mathematical outputs of every sweep, and the full answers to the first
  passes of the `queries` workload on seed 0.
* Checks that hold on any seed, computed with the benchmark's own arithmetic:
  - max Delta* = max{exp(G) - 2, r(G) - 1} (Thm 1.1);
  - subsets computed + pruned = 2^(|G|-1) - 1;
  - the halves z+ and z- of a min-Delta witness multiply zero-sum atoms to
    the same sequence, and their lengths differ by exactly min Delta;
  - half_factorial holds exactly when min_delta == 0;
  - every set of lengths holds the length of the factorization the
    generator built.

Only mathematical outputs are compared, never work counters or witness
vectors, which a valid optimization may change.
"""
from __future__ import annotations

import json
import os
from functools import lru_cache
from math import lcm, prod

import workloads

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_SWEEPS = os.path.join(GOLDEN_DIR, "sweeps.json")
GOLDEN_QUERIES = os.path.join(GOLDEN_DIR, "queries-seed0.json")
GOLDEN_QUERY_SEED = 0


@lru_cache(maxsize=None)
def _golden(path: str):
    with open(path) as f:
        return json.load(f)


def expected_max_delta_star(orders) -> int:
    """max{exp(G) - 2, r(G) - 1}, and 0 for |G| <= 2."""
    if prod(orders) <= 2:
        return 0
    # the largest p-rank; a composite d divides no more components than its
    # prime factors do, so ranging over all d >= 2 gives the same maximum
    rank = max(sum(1 for n in orders if n % d == 0) for d in range(2, max(orders) + 1))
    return max(lcm(*orders) - 2, rank - 1)


def mathematical(op: str, answer: dict) -> list:
    """The part of an answer that a correct program must reproduce exactly,
    as a list of values in key order (the form the golden files store)."""
    if op == "sweep":
        answer = {k: answer[k] for k in ("delta_star", "max_delta_star", "m_of_g", "extremal")}
    elif op == "witness":
        w = answer["witness"]
        answer = {"atom_count": answer["atom_count"],
                  "min_delta": 0 if w is None else w["lengths"][1] - w["lengths"][0]}
    return [answer[k] for k in sorted(answer)]


def _check_sweep(req, ans) -> list[str]:
    orders = req["orders"]
    problems = []
    want = expected_max_delta_star(orders)
    if ans["max_delta_star"] != want:
        problems.append(f"max delta* {ans['max_delta_star']} != {want} (Thm 1.1)")
    if ans["max_delta_star"] != max(ans["delta_star"], default=0):
        problems.append("max delta* is not the largest element of delta*")
    total = (1 << (prod(orders) - 1)) - 1
    if ans["subsets_computed"] + ans["subsets_pruned"] != total:
        problems.append(f"computed + pruned = "
                        f"{ans['subsets_computed'] + ans['subsets_pruned']} != {total}")
    return problems


def _check_classify(req, ans) -> list[str]:
    if ans["half_factorial"] != (ans["min_delta"] == 0):
        return [f"half_factorial={ans['half_factorial']} with min_delta={ans['min_delta']}"]
    return []


def _check_witness(req, ans) -> list[str]:
    w = ans["witness"]
    if w is None:
        return []
    orders = req["orders"]
    subset = [tuple(g) for g in req["subset"]]
    k = len(subset)
    plus, minus = [0] * k, [0] * k
    plus_len = minus_len = 0
    for c, atom in w["terms"]:
        if not any(atom) or any(workloads.vector_sum(atom, subset, orders)):
            return [f"witness term {atom} is not a nonempty zero-sum sequence"]
        side = plus if c > 0 else minus
        for i, v in enumerate(atom):
            side[i] += abs(c) * v
        if c > 0:
            plus_len += c
        else:
            minus_len -= c
    problems = []
    if plus != minus:
        problems.append("z+ and z- give different sequences")
    if w["sequence"] != plus:
        problems.append("witness sequence is not the product of z+")
    if w["lengths"] != [minus_len, plus_len]:
        problems.append(f"witness lengths {w['lengths']} != {[minus_len, plus_len]}")
    if plus_len - minus_len < 1:
        problems.append("witness lengths do not differ by a positive min delta")
    return problems


def _check_lengths(req, ans) -> list[str]:
    values = ans["lengths"]
    if req["blocks"] not in values:
        return [f"L = {values} misses the built factorization length {req['blocks']}"]
    if values != sorted(set(values)) or values[0] < 1 or values[-1] > sum(req["sequence"]):
        return [f"L = {values} is not a set of lengths of a sequence of length "
                f"{sum(req['sequence'])}"]
    return []


CHECKS = {"sweep": _check_sweep, "classify": _check_classify,
          "witness": _check_witness, "lengths": _check_lengths}


def golden_answers(workload: str, seed: int, index: int, reqs: list) -> list:
    """The recorded mathematical answer of each operation, None where none is recorded."""
    if workload == "queries":
        recorded = _golden(GOLDEN_QUERIES)["passes"] if seed == GOLDEN_QUERY_SEED else []
        return recorded[index] if index < len(recorded) else [None] * len(reqs)
    sweeps = _golden(GOLDEN_SWEEPS)
    return [sweeps[workloads.spec(req["orders"])] for req in reqs]


def check_pass(workload: str, seed: int, index: int, reqs: list,
               answers: list) -> list[tuple[int, str]]:
    """(operation index, problem) for every wrong operation of one pass."""
    golden = golden_answers(workload, seed, index, reqs)
    wrong = []
    for i, (req, ans, want) in enumerate(zip(reqs, answers, golden)):
        if "error" in ans:
            wrong.append((i, ans["error"]))
            continue
        problems = CHECKS[req["op"]](req, ans)
        if want is not None and mathematical(req["op"], ans) != want:
            problems.append(f"differs from golden {want}")
        if problems:
            wrong.append((i, f"{req['op']} {describe(req)}: " + "; ".join(problems)))
    return wrong


def describe(req: dict) -> str:
    text = workloads.spec(req["orders"])
    if "subset" in req:
        text += " " + str([tuple(g) for g in req["subset"]])
    return text


def check_run(workload: str, seed: int, passes: list[dict],
              requests: dict[int, list]) -> tuple[int, int, list[str]]:
    """(operations attempted, operations wrong, messages) over all passes;
    `requests` maps a pass index to its operations."""
    attempted = failed = 0
    messages = []
    for p in passes:
        reqs = requests[p["index"]]
        attempted += len(reqs)
        if len(p["answers"]) != len(reqs):
            failed += len(reqs)
            messages.append(f"pass {p['index']}: {len(p['answers'])} answers "
                            f"for {len(reqs)} operations")
            continue
        wrong = check_pass(workload, seed, p["index"], reqs, p["answers"])
        failed += len(wrong)
        messages += [f"pass {p['index']} op {i}: {msg}" for i, msg in wrong]
    return attempted, failed, messages
