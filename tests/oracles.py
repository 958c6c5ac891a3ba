"""Independent brute-force oracles used to anchor the fast implementations.

Everything here is deliberately naive: full grids, exhaustive coefficient
enumeration, and a differently-shaped factorization search.  None of it
shares code with the package internals it checks; `seed_enumerate_atoms`
uses only the group arithmetic.
"""
from __future__ import annotations

import itertools

from blockmonoid import FiniteAbelianGroup, SequenceVec, SupportSet


def grid_atoms(support: SupportSet) -> list[tuple[int, ...]]:
    """Atoms by full-grid filtering: generate every vector with
    0 <= v_g <= ord(g), keep the nonzero zero-sums, take the poset-minimal
    ones under componentwise order."""
    group = support.group
    zero_sums = []
    for vec in itertools.product(*(range(o + 1) for o in support.orders)):
        if not any(vec):
            continue
        total = group.zero
        for g, v in zip(support.elements, vec):
            total = group.add(total, group.mul(v, g))
        if total == group.zero:
            zero_sums.append(vec)
    minimal = []
    for v in zero_sums:
        if not any(w != v and all(a <= b for a, b in zip(w, v))
                   for w in zero_sums):
            minimal.append(v)
    return sorted(minimal)


def seed_enumerate_atoms(support: SupportSet) -> tuple[tuple[int, ...], ...]:
    """The atom DFS as it stood before the bitmask rewrite, kept verbatim as
    a differential reference: the same search with PS and Q held as
    frozensets of element tuples.  Returns the atom exponent vectors in
    lexicographic order."""
    group = support.group
    k = len(support)
    gens = support.elements
    ords = support.orders
    zero = group.zero

    # subgroup generated by the support suffix starting at each position
    suffix_span = [None] * (k + 1)
    suffix_span[k] = frozenset({zero})
    for i in range(k - 1, -1, -1):
        suffix_span[i] = group.subgroup_closure(gens[i:])

    # lazily grown "add g" maps, one per support element
    add_maps: list[dict] = [{} for _ in range(k)]

    def shifted(pos: int, elems):
        table = add_maps[pos]
        g = gens[pos]
        out = set()
        for x in elems:
            y = table.get(x)
            if y is None:
                y = group.add(x, g)
                table[x] = y
            out.add(y)
        return out

    empty: frozenset = frozenset()
    found: list[tuple[int, ...]] = []
    # frame: (position, exponent vector, sigma, PS, Q)
    stack = [(0, (0,) * k, zero, empty, empty)]
    while stack:
        pos, vec, sigma, ps, q = stack.pop()
        if sigma == zero and any(vec):
            if zero not in q:
                found.append(vec)
            continue  # any extension would contain this zero-sum properly
        if pos == k:
            continue
        if group.neg(sigma) not in suffix_span[pos]:
            continue  # the deficit cannot be repaired from here on
        stack.append((pos + 1, vec, sigma, ps, q))
        if vec[pos] < ords[pos]:
            g = gens[pos]
            if any(vec):
                q2 = frozenset(ps | shifted(pos, q) | {g})
                if zero in q2:
                    continue
            else:
                q2 = empty
            sigma2 = group.add(sigma, g)
            ps2 = q2 | {sigma2}
            vec2 = vec[:pos] + (vec[pos] + 1,) + vec[pos + 1:]
            stack.append((pos, vec2, sigma2, ps2, q2))

    found.sort()
    return tuple(found)


def order_by_repeated_addition(group: FiniteAbelianGroup, g) -> int:
    g = group.element(g)
    x = g
    d = 1
    while x != group.zero:
        x = group.add(x, g)
        d += 1
    return d


def p_rank_by_torsion_count(group: FiniteAbelianGroup, p: int) -> int:
    """log_p of the number of elements killed by p."""
    count = sum(1 for g in group.elements() if group.mul(p, g) == group.zero)
    rank = 0
    while count > 1:
        count //= p
        rank += 1
    return rank


def independent_by_definition(group: FiniteAbelianGroup, family) -> bool:
    """Quantifier form: over all coefficient tuples m in prod [0, ord(e_i)),
    sum m_i e_i = 0 implies every m_i e_i = 0."""
    family = [group.element(g) for g in family]
    if any(g == group.zero for g in family):
        return False
    ranges = [range(group.order_of(g)) for g in family]
    for coeffs in itertools.product(*ranges):
        total = group.zero
        for m, g in zip(coeffs, family):
            total = group.add(total, group.mul(m, g))
        if total == group.zero:
            if any(group.mul(m, g) != group.zero
                   for m, g in zip(coeffs, family)):
                return False
    return True


def closure_by_coefficients(group: FiniteAbelianGroup, gens) -> frozenset:
    """<gens> as the set of all coefficient combinations."""
    gens = [group.element(g) for g in gens]
    out = set()
    ranges = [range(group.order_of(g)) for g in gens]
    for coeffs in itertools.product(*ranges):
        total = group.zero
        for m, g in zip(coeffs, gens):
            total = group.add(total, group.mul(m, g))
        out.add(total)
    return frozenset(out)


def naive_length_set(seq: SequenceVec, atom_vectors) -> set[int]:
    """Exhaustive factorization lengths, no memoization.

    Recursion shape differs from the production search: each step removes an
    atom covering the first position with a nonzero residual entry.
    """
    atom_vectors = [tuple(a) for a in atom_vectors]

    def rec(residual: tuple[int, ...]) -> set[int]:
        if not any(residual):
            return {0}
        first = next(i for i, v in enumerate(residual) if v)
        out = set()
        for a in atom_vectors:
            if a[first] == 0:
                continue
            if all(x <= y for x, y in zip(a, residual)):
                rest = tuple(y - x for x, y in zip(a, residual))
                out.update(1 + l for l in rec(rest))
        return out

    return rec(seq.exponents)
