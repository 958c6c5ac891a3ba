"""Workload inputs, generated from the seed with the benchmark's own arithmetic.

Nothing here imports blockmonoid: the program under test receives only the
inputs built below, and the gate can rebuild them to check the answers.

A workload is a list of passes; pass p of a run is ``make_pass(name, seed, p)``.
The sweep workloads sweep a fixed list of groups in a seed-chosen order. The
``queries`` workload draws a fresh stratified sample for every pass, so a run
of several passes sees several thousand distinct requests.
"""
from __future__ import annotations

import itertools
import random
from math import gcd, lcm, prod

# Prime cyclic groups have the largest atom inventory for their size and
# saturate almost at once, so the atom DFS dominates.
SWEEP_CYCLIC = ((19,), (23,))

# Every abelian group of order 3..16 (the `verify thm-1.1 --max-order 16` set,
# one presentation per isomorphism type, components ascending as the package
# lists them) plus C2^3xC3, where min Delta stays above 1 deep into the subset
# tree and the lattice inserts dominate.
SWEEP_LATTICE = (
    (3,), (2, 2), (4,), (5,), (2, 3), (7,), (2, 2, 2), (2, 4), (8,),
    (3, 3), (9,), (2, 5), (11,), (2, 2, 3), (3, 4), (13,), (2, 7), (3, 5),
    (2, 2, 2, 2), (2, 2, 4), (2, 8), (4, 4), (16,),
    (2, 2, 2, 3),
)

QUERY_GROUPS = ((2, 2, 4), (4, 4), (2, 8), (3, 3, 3), (5, 5), (6, 6), (7, 7),
                (2, 2, 2, 2, 2))
QUERY_OPS = ("classify", "witness", "lengths")
QUERY_SIZES = (2, 3, 4, 5)
# Requests per (group, op, subset size) cell and pass: 8*3*4*11 = 1056
# requests, enough for a p99 with ten samples beyond it in every pass.
PER_CELL = 11
MAX_SEQUENCE_LENGTH = 60
MAX_BLOCKS = 6

WORKLOADS = ("sweep-cyclic", "sweep-lattice", "queries")


def spec(orders) -> str:
    """C2^2xC4-style name of a group given by its cyclic component orders."""
    parts = []
    for n, run in itertools.groupby(orders):
        count = len(list(run))
        parts.append(f"C{n}" if count == 1 else f"C{n}^{count}")
    return "x".join(parts)


def make_pass(name: str, seed: int, index: int) -> list[dict]:
    """The operations of pass `index` of workload `name` under `seed`."""
    rng = random.Random(f"{name}:{seed}:{index}")
    if name == "queries":
        return _query_pass(rng)
    groups = {"sweep-cyclic": SWEEP_CYCLIC, "sweep-lattice": SWEEP_LATTICE}[name]
    ops = [{"op": "sweep", "orders": list(orders)} for orders in groups]
    rng.shuffle(ops)
    return ops


# -- modular arithmetic of the generator -------------------------------------------

def nonzero_elements(orders) -> list[tuple[int, ...]]:
    return [g for g in itertools.product(*(range(n) for n in orders)) if any(g)]


def element_order(g, orders) -> int:
    return lcm(*(n // gcd(n, c) for c, n in zip(g, orders)))


def vector_sum(vec, subset, orders) -> tuple[int, ...]:
    """Sum of the sequence with exponent vector `vec` over `subset`."""
    return tuple(sum(v * g[c] for v, g in zip(vec, subset)) % n
                 for c, n in enumerate(orders))


def proper_zero_sum_part(vec, subset, orders):
    """A nonzero proper sub-vector of `vec` with sum 0, or None if `vec` is minimal."""
    for u in itertools.product(*(range(v + 1) for v in vec)):
        if any(u) and list(u) != list(vec) and not any(vector_sum(u, subset, orders)):
            return list(u)
    return None


# Shrinking a random zero-sum walk is a brute force over its sub-vectors;
# walks whose grid exceeds this are redrawn.
_SHRINK_GRID_LIMIT = 20_000


def _random_atom(rng: random.Random, subset, orders) -> list[int]:
    """A minimal zero-sum exponent vector over `subset`.

    Half of the time g^ord(g); otherwise the first zero-sum stretch of a random
    walk, shrunk until no proper part sums to zero.
    """
    k = len(subset)
    if rng.random() < 0.5:
        i = rng.randrange(k)
        vec = [0] * k
        vec[i] = element_order(subset[i], orders)
        return vec
    while True:
        seen = {tuple([0] * len(orders)): [0] * k}
        vec = [0] * k
        total = (0,) * len(orders)
        for _ in range(4 * prod(orders)):
            i = rng.randrange(k)
            vec[i] += 1
            total = tuple((t + x) % n for t, x, n in zip(total, subset[i], orders))
            if total in seen:
                vec = [a - b for a, b in zip(vec, seen[total])]
                break
            seen[total] = vec[:]
        else:
            continue
        if prod(v + 1 for v in vec) > _SHRINK_GRID_LIMIT:
            continue
        while (part := proper_zero_sum_part(vec, subset, orders)) is not None:
            vec = part
        return vec


def _query_pass(rng: random.Random) -> list[dict]:
    ops = []
    for orders in QUERY_GROUPS:
        elements = nonzero_elements(orders)
        for op in QUERY_OPS:
            for size in QUERY_SIZES:
                for _ in range(PER_CELL):
                    subset = rng.sample(elements, size)
                    req = {"op": op, "orders": list(orders),
                           "subset": [list(g) for g in subset]}
                    if op == "lengths":
                        req["sequence"], req["blocks"] = _zero_sum_sequence(
                            rng, subset, orders)
                    ops.append(req)
    rng.shuffle(ops)
    return ops


def _zero_sum_sequence(rng: random.Random, subset, orders) -> tuple[list[int], int]:
    """A zero-sum sequence built as a product of atoms, and that product's length.

    The length of the built factorization must lie in the sequence's set of
    lengths, which the gate checks.
    """
    vec = [0] * len(subset)
    blocks = 0
    for _ in range(rng.randint(1, MAX_BLOCKS)):
        atom = _random_atom(rng, subset, orders)
        if blocks and sum(vec) + sum(atom) > MAX_SEQUENCE_LENGTH:
            break
        vec = [a + b for a, b in zip(vec, atom)]
        blocks += 1
    return vec, blocks
