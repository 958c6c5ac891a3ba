"""Independent brute-force oracles used to anchor the fast implementations.

Everything here is deliberately naive: full grids, exhaustive coefficient
enumeration, and a differently-shaped factorization search.  None of it
shares code with the package internals it checks; `seed_enumerate_atoms`
and the seed span predicates use only the group arithmetic.  The seed sweep
descent takes its atoms from `enumerate_atoms` and builds its extremal
reports with `seed_extremal_report`, which restricts the whole-group atom
set to each subset and builds a `SupportSet` for it.  The echelon-basis
readouts are what the dual state (d, W) replaced, in the sweep and in
`min_delta`, so they share no min Delta code with the package: they insert
augmented atom columns into a pivot-indexed echelon basis and read min Delta
off its tail generator.  `batch_child_step` is the dual-state step as it
was before it folded the atoms in one at a time: it takes every new atom's
(c, B) at once.  `echelon_min_delta` reads min Delta off one atom set;
`echelon_delta_star` is the descent in which each node copies its parent's
basis and inserts the rows of its new atoms, and decides minimality from the
set of half-factorial masks formed so far.  `seed_is_minimal_non_half_factorial`
decides it by one rescan of the `Fraction` cross numbers per support position.
`hnf_integer_kernel` is the integer kernel that also put the kernel basis in
Hermite form, and `kernel_basis_witness` the min Delta witness that built a
whole kernel basis and combined its vectors.  `naive_length_set` takes a
set of lengths by exhaustive recursion, and `walk_distances_oracle` walks
every exponent vector and takes its set of lengths from `naive_length_set`;
neither shares code with the package's forward length pass.
`walk_search` is an atom DFS that raises one exponent at a time from the
empty vector and walks every support position, the last one too; it shares
no step with the zero-sum-free walk of `enumerate_atoms`.  `regroup` files
a list of atoms by support mask as `AtomSet` did before that walk built its
index itself.
`vector_state` sums every subsequence of one exponent vector, and
`grid_zero_sum_free` filters the exponent grid for the zero-sum-free vectors
that the sweep grows one position at a time.
`exponent_matrix` and `entry_vectors` lay atoms out as full exponent
vectors, which the package no longer stores: the atom matrix, and the
atoms of one support-mask index entry, read off its exponent tuples over
the entry's positions.
"""
from __future__ import annotations

import itertools
from math import gcd, lcm, prod

from blockmonoid import (AtomSet, ConsistencyError, ContractError,
                         ExtremalSetReport, FiniteAbelianGroup,
                         SequenceVec, SupportSet,
                         TransferReduction, enumerate_atoms, integer_kernel,
                         is_minimal_non_half_factorial, min_delta)
from blockmonoid.atoms import MaskAtoms
from blockmonoid.classify import ReductionStep
from blockmonoid.kernel import (MinDeltaWitness, echelon_insert,
                                lattice_tail_generator)
from blockmonoid.sweep import SubsetRecord, _extremal_report


def exponent_matrix(atoms: AtomSet) -> tuple[tuple[int, ...], ...]:
    """|G0| x |atoms| matrix; column j is the exponent vector of atom j."""
    return tuple(tuple(a.exponents[i] for a in atoms.atoms)
                 for i in range(len(atoms.support)))


def power(seq: SequenceVec, c: int) -> SequenceVec:
    """The sequence seq^c, c >= 0, as c times its exponent vector."""
    return SequenceVec(seq.support, tuple(c * v for v in seq.exponents))


def regroup(support: SupportSet, vectors) -> AtomSet:
    """The atoms at the exponent tuples `vectors` of length k, filed by
    support mask: the body of `AtomSet.mask_index` before `enumerate_atoms`
    filed the index itself, kept apart from taking tuples; each entry keeps
    its atoms in the order given."""
    n, weights = support.cross_scale
    filed: dict[tuple, list] = {}
    for exps in vectors:
        at = tuple(i for i, c in enumerate(exps) if c)
        filed.setdefault(at, []).append(tuple(exps[i] for i in at))
    index = {}
    for at, vecs in filed.items():
        # the cross numbers by a dot product with the weights, not carried
        scaled = [sum(weights[i] * v for i, v in zip(at, vec)) for vec in vecs]
        index[sum(1 << i for i in at)] = MaskAtoms(n, at[1:], vecs, scaled)
    return AtomSet(support, index)


def entry_vectors(mask: int, entry, k: int) -> list[tuple[int, ...]]:
    """The atoms of the index entry of `mask` as exponent tuples of length
    k, read off its exponent tuples over the positions b, `entry.above`,
    b the lowest position of `mask`."""
    positions = ((mask & -mask).bit_length() - 1, *entry.above)
    assert sorted(positions) == list(positions)
    assert sum(1 << i for i in positions) == mask
    out = []
    for atom in entry.vectors:
        assert len(atom) == len(positions) and all(atom)
        vec = [0] * k
        for i, v in zip(positions, atom):
            vec[i] = v
        out.append(tuple(vec))
    return out


def entry_fields(entry):
    """Every field of an index entry, for comparing entries built by two
    routes; None for no entry."""
    if entry is None:
        return None
    return entry.above, entry.vectors, entry.scaled, entry.nonunit, entry.light


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


def vector_state(support: SupportSet, positions, vec) -> tuple[int, int, int]:
    """(sigma, PS, Q) of the exponent vector `vec` at `positions`, as masks
    on the support's codec, by summing every nonempty subsequence: PS over
    all of them, Q over the proper ones."""
    group, codec = support.group, support.codec
    sig = ps = q = 0
    for sub in itertools.product(*(range(v + 1) for v in vec)):
        if not any(sub):
            continue
        total = group.zero
        for i, u in zip(positions, sub):
            total = group.add(total, group.mul(u, support.elements[i]))
        bit = 1 << codec.encode(total)
        ps |= bit
        if sub == tuple(vec):
            sig = bit
        else:
            q |= bit
    return sig, ps, q


def grid_zero_sum_free(support: SupportSet, positions, span: int) -> list:
    """The zero-sum-free vectors at `positions`, ascending, by filtering the
    grid of exponent vectors with 1 <= v_i <= ord(g_i): those with 0 not in
    PS, and sigma in the subgroup mask `span`, each as (sigma, PS,
    exponents, n k), sorted by exponents; n k = sum v_i n / ord(g_i), n the
    least common multiple of the orders of the whole support."""
    orders = support.orders
    n = lcm(*orders)
    out = []
    for vec in itertools.product(*(range(1, orders[i] + 1)
                                   for i in positions)):
        sig, ps, _ = vector_state(support, positions, vec)
        if not ps & 1 and sig & span:
            nk = sum(v * n // orders[i] for i, v in zip(positions, vec))
            out.append((sig, ps, vec, nk))
    return out


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


def is_independent(group: FiniteAbelianGroup, family) -> bool:
    """True iff all members are nonzero and the generated subgroup has
    order equal to the product of the member orders (the sum of the cyclic
    subgroups is direct exactly when the cardinality multiplies).  The
    closure-based reference for the support's span-table test
    `SupportSet.is_independent`."""
    family = [group.element(g) for g in family]
    if any(not any(g) for g in family):
        return False
    target = prod(group.order_of(g) for g in family)
    return len(group.subgroup_closure(family)) == target


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


def min_multiple_in_span(group: FiniteAbelianGroup, g, others) -> int:
    """Smallest d >= 1 with d*g in <others>, by walking the multiples of g
    against the closure of the others; always divides ord(g)."""
    g = group.element(g)
    if not any(g):
        raise ContractError("min_multiple_in_span requires g != 0")
    span = group.subgroup_closure(others)
    x = g
    d = 1
    while x not in span:
        x = group.add(x, g)
        d += 1
    return d


def encode_set(codec, elements) -> int:
    """The mask of a set of elements of a span codec (`sequences._Span`):
    bit codec.encode(x) for each x."""
    bits = bytearray((codec.width + 7) // 8)
    for x in elements:
        code = codec.encode(x)
        bits[code >> 3] |= 1 << (code & 7)
    return int.from_bytes(bits, "little")


def kernel_basis_contains(basis, vector) -> bool:
    """Membership of an integer vector in the lattice spanned by the basis
    vectors `integer_kernel` returns."""
    probe = list(vector)
    rows: list = [None] * len(probe)
    for v in basis:
        echelon_insert(rows, v)
    for j, row in enumerate(rows):
        if row is not None and probe[j] % row[j] == 0:
            q = probe[j] // row[j]
            probe = [x - q * y for x, y in zip(probe, row)]
    return not any(probe)


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


# -- minimality as it stood before it was read off the atom index ------------------

def seed_is_subset_half_factorial(atoms: AtomSet, removed: int) -> bool:
    """Half-factoriality of support-minus-one-element, by atom filtering.

    The atoms of the smaller set are exactly the atoms avoiding the removed
    position, so no re-enumeration is needed.
    """
    return all(k == 1 for a, k in zip(atoms.atoms, atoms.cross_numbers)
               if a.exponents[removed] == 0)


def seed_is_minimal_non_half_factorial(atoms: AtomSet) -> bool:
    """`classify.is_minimal_non_half_factorial` before it read the atom
    index, kept verbatim apart from the names: one rescan of the `Fraction`
    cross numbers per support position.

    Non-half-factorial with every proper subset half-factorial.

    Testing the maximal proper subsets suffices: half-factoriality is
    inherited downward (sequences over a subset are sequences over the
    whole set, with the same factorizations).
    """
    if all(k == 1 for k in atoms.cross_numbers):
        return False
    return all(seed_is_subset_half_factorial(atoms, i)
               for i in range(len(atoms.support)))


# -- span predicates as they stood before the span-mask table ----------------------
#
# Kept verbatim apart from names, all on `subgroup_closure`;
# `seed_is_decomposable` reads the whole span as `subgroup_closure` of the
# support, which is what the deleted `SupportSet.span` returned.

def seed_is_decomposable(support: SupportSet) -> bool:
    n = len(support)
    if n < 2:
        return False
    group = support.group
    elems = support.elements
    total = len(group.subgroup_closure(elems))
    span_size: dict[frozenset, int] = {}

    def size_of(idxs: frozenset) -> int:
        hit = span_size.get(idxs)
        if hit is None:
            hit = len(group.subgroup_closure([elems[i] for i in idxs]))
            span_size[idxs] = hit
        return hit

    rest = range(1, n)
    for r in range(0, n - 1):
        for extra in itertools.combinations(rest, r):
            part1 = frozenset((0,) + extra)
            part2 = frozenset(i for i in range(n) if i not in part1)
            if size_of(part1) * size_of(part2) == total:
                return True
    return False


def seed_is_simple(support: SupportSet) -> bool:
    group = support.group
    elems = support.elements
    for i, g in enumerate(elems):
        rest = elems[:i] + elems[i + 1:]
        if not is_independent(group, rest):
            continue
        if g not in group.subgroup_closure(rest):
            continue
        if any(g in group.subgroup_closure(sub)
               for r in range(len(rest))
               for sub in itertools.combinations(rest, r)):
            continue
        return True
    return False


def seed_satisfies_span_property(support: SupportSet) -> bool:
    group = support.group
    elems = support.elements
    return all(
        g in group.subgroup_closure(elems[:i] + elems[i + 1:])
        for i, g in enumerate(elems))


def seed_transfer_reduce(support: SupportSet, atoms) -> TransferReduction:
    """The reduction with m from `min_multiple_in_span`, a walk over the
    multiples of g against the closure of the others."""
    if not is_minimal_non_half_factorial(atoms):
        raise ContractError(
            "transfer reduction is defined for minimal non-half-factorial sets")
    group = support.group
    current = support
    steps: list[ReductionStep] = []
    for _ in range(sum(support.orders)):
        elems = current.elements
        candidates = []
        for i, g in enumerate(elems):
            m = min_multiple_in_span(group, g, elems[:i] + elems[i + 1:])
            if m > 1:
                candidates.append((g, i, m))
        if not candidates:
            break
        g, i, m = min(candidates)
        mg = group.mul(m, g)
        if not any(mg):
            raise ConsistencyError(f"reduction of {g} collapsed to 0")
        if mg in current:
            raise ConsistencyError(
                f"replacement {mg} already present in {current.elements}")
        steps.append(ReductionStep(i, g, m, mg))
        current = SupportSet(
            group, elems[:i] + (mg,) + elems[i + 1:])
    else:
        raise ConsistencyError("transfer reduction failed to terminate")
    return TransferReduction(support, current, tuple(steps))


def seed_extremal_span_flags(group: FiniteAbelianGroup,
                             subset_elems) -> tuple[bool, bool]:
    """(no_two_element_span_gap, has_independent_complement) of an extremal
    report, as the sweep's extremal report computed them by closures."""
    no_gap = True
    for i, h in enumerate(subset_elems):
        others = subset_elems[:i] + subset_elems[i + 1:]
        for j in range(len(others)):
            rest = others[:j] + others[j + 1:]
            if h in group.subgroup_closure(rest):
                no_gap = False
                break
        if not no_gap:
            break
    independent_complement = any(
        is_independent(group, subset_elems[:i] + subset_elems[i + 1:])
        for i in range(len(subset_elems)))
    return no_gap, independent_complement


# -- the sweep descent as it stood before the pivot-indexed basis ------------------

def _seed_leading_index(row) -> int:
    for i, x in enumerate(row):
        if x:
            return i
    return -1


def seed_echelon_insert(rows: list[list[int]], vec: list[int]) -> None:
    """The echelon insert before the pivot-indexed basis, kept verbatim
    (helpers renamed) as a differential reference: rows are kept in
    ascending pivot order and every pivot is found by rescanning the row."""
    v = list(vec)
    while True:
        j = _seed_leading_index(v)
        if j < 0:
            return
        pos = None
        for idx, row in enumerate(rows):
            pj = _seed_leading_index(row)
            if pj == j:
                pos = idx
                break
            if pj > j:
                rows.insert(idx, v)
                return
        if pos is None:
            rows.append(v)
            return
        row = rows[pos]
        a, b = row[j], v[j]
        if b % a == 0:
            q = b // a
            v = [x - q * y for x, y in zip(v, row)]
        else:
            g, x, y = _seed_ext_gcd(a, b)
            new_row = [x * p + y * q2 for p, q2 in zip(row, v)]
            v = [(a // g) * q2 - (b // g) * p for p, q2 in zip(row, v)]
            rows[pos] = new_row


def _seed_ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def seed_lattice_tail_generator(rows: list[list[int]], dim: int) -> int:
    if rows:
        row = rows[-1]
        if _seed_leading_index(row) == dim - 1:
            return abs(row[-1])
    return 0


def seed_atom_tables(orders, atoms):
    """Per-atom (augmented column, support mask, unit, light), grouped by the
    lowest support bit."""
    n = lcm(*orders)
    weights = [n // o for o in orders]
    by_minbit: dict[int, list] = {}
    for a in atoms.atoms:
        vec = a.exponents
        mask = 0
        scaled = 0
        for i, c in enumerate(vec):
            if c:
                mask |= 1 << i
                scaled += c * weights[i]
        minbit = (mask & -mask).bit_length() - 1
        entry = (list(vec) + [1], mask, scaled == n, scaled < n)
        by_minbit.setdefault(minbit, []).append(entry)
    return by_minbit


def seed_unit_payload(pattern: int, state: dict):
    """The sweep's work unit before the support-mask index, verbatim except
    for renamed helpers and the removed symmetry option's branch and
    counter: every node filters the atoms by their lowest support bit and
    copies every row of its basis."""
    k = state["k"]
    boundary = state["boundary"]  # bits >= boundary form the pattern space
    by_minbit = state["by_minbit"]
    dim = k + 1

    records: list[tuple[int, int, bool, bool]] = []
    counters = {"computed": 0, "pruned": 0}

    rows: list[list[int]] = []
    has_nonunit = False
    has_light = False
    pattern_bits = [b for b in range(k - 1, boundary - 1, -1) if pattern >> b & 1]
    partial = 0
    for b in pattern_bits:
        if partial and seed_lattice_tail_generator(rows, dim) == 1:
            return None  # a proper prefix saturated; its own unit accounts for us
        partial |= 1 << b
        for vec, smask, unit, light in by_minbit.get(b, ()):
            if smask & ~partial == 0:
                seed_echelon_insert(rows, vec)
                has_nonunit = has_nonunit or not unit
                has_light = has_light or light

    def readout(mask: int, rows, has_nonunit: bool) -> int:
        d = seed_lattice_tail_generator(rows, dim)
        if (d == 0) != (not has_nonunit):
            raise ConsistencyError(
                f"half-factoriality routes disagree on subset mask {mask}")
        return d

    def emit(mask: int, rows, has_nonunit, has_light) -> bool:
        """Record a formed subset; True when its subtree saturates."""
        d = readout(mask, rows, has_nonunit)
        counters["computed"] += 1
        records.append((mask, d, d == 0, not has_light))
        if d == 1:
            # every superset inherits min delta 1; count its subtree and skip
            low = (mask & -mask).bit_length() - 1
            counters["pruned"] += (1 << low) - 1
            return True
        return False

    def descend(mask: int, top_bit: int, rows, has_nonunit, has_light):
        for b in range(top_bit, -1, -1):
            new_mask = mask | (1 << b)
            batch = [entry for entry in by_minbit.get(b, ())
                     if entry[1] & ~new_mask == 0]
            nu, nl = has_nonunit, has_light
            if batch:
                new_rows = [row[:] for row in rows]
                for vec, smask, unit, light in batch:
                    seed_echelon_insert(new_rows, vec)
                    nu = nu or not unit
                    nl = nl or light
            else:
                new_rows = rows  # shared read-only; every writer copies first
            if not emit(new_mask, new_rows, nu, nl):
                descend(new_mask, b - 1, new_rows, nu, nl)

    if pattern:
        if emit(pattern, rows, has_nonunit, has_light):
            return records, counters
    descend(pattern, boundary - 1, rows, has_nonunit, has_light)
    return records, counters


def seed_delta_star(group: FiniteAbelianGroup) -> dict:
    """The sweep's results by the seed descent, in one unit over all bits,
    with the minimal-non-HF flags and extremal selection of the seed sweep.
    The extremal reports are built by `seed_extremal_report`."""
    elements = group.nonzero_elements
    k = len(elements)
    if k == 0:
        return {"records": (), "extremal": (), "delta_star": (), "m_of_g": 0,
                "subsets_computed": 0, "subsets_pruned": 0}
    support = SupportSet(group, elements)
    atoms = enumerate_atoms(support, budget=None)
    state = {"k": k, "boundary": k,
             "by_minbit": seed_atom_tables(support.orders, atoms)}
    unit_records, counters = seed_unit_payload(0, state)
    merged = {mask: (d, hf, lcn) for mask, d, hf, lcn in unit_records}
    assert len(merged) + counters["pruned"] == (1 << k) - 1

    def subset_is_hf(mask: int) -> bool:
        if mask == 0:
            return True
        hit = merged.get(mask)
        return hit[1] if hit is not None else False

    records = []
    for mask in sorted(merged):
        d, hf, lcn = merged[mask]
        minimal = (not hf) and all(
            subset_is_hf(mask ^ (1 << b)) for b in range(k) if mask >> b & 1)
        records.append(SubsetRecord(mask, d, hf, lcn, minimal))
    non_hf = [rec for rec in records if not rec.half_factorial]
    dstar = sorted({rec.min_delta for rec in non_hf})
    maximum = dstar[-1] if dstar else 0
    return {
        "records": tuple(records),
        "extremal": tuple(
            seed_extremal_report(group, elements, atoms, rec)
            for rec in records
            if rec.minimal_non_hf and rec.min_delta == maximum and maximum > 0),
        "delta_star": tuple(dstar),
        "m_of_g": max((rec.min_delta for rec in non_hf if rec.lcn), default=0),
        "subsets_computed": counters["computed"],
        "subsets_pruned": counters["pruned"],
    }


# -- min Delta read off an echelon basis, as it stood before the dual state (d, W) --

def echelon_min_delta(atoms: AtomSet) -> int:
    """`kernel.min_delta` before it ran the dual-state child steps, kept
    verbatim: the tail generator of an echelon basis of the augmented atom
    columns (exponent vector, 1)."""
    dim = len(atoms.support) + 1
    rows: list = [None] * dim
    for a in atoms.atoms:
        echelon_insert(rows, [*a.exponents, 1])
    return lattice_tail_generator(rows, dim)


# -- the dual-state child step as it stood before it folded atom by atom ----------

def batch_child_step(e: int, d: int, cs: list[int], bs: list[int]) -> tuple[int, int]:
    """`kernel.child_step` before it folded the atoms one at a time, kept
    verbatim apart from the name and the oracles' own extended gcd: it takes
    every new atom's c = a_b and B = e - sum W_i a_i, computed beforehand,
    and reads D = gcd(e*d, every (c/g)*S - B) once g and S are final."""
    g = big_s = 0
    for c, big_b in zip(cs, bs):
        if not g:
            g, big_s = c, big_b
        elif c % g:
            g, x, y = _seed_ext_gcd(g, c)
            big_s = x * big_s + y * big_b
    big_d = gcd(e * d, *[(c // g) * big_s - big_b for c, big_b in zip(cs, bs)])
    if big_d == 0:
        if big_s % g:
            raise ConsistencyError(
                f"half-factorial child: gcd {g} of the new coefficients does "
                f"not divide {big_s}")
        return 0, big_s // g
    if big_d % e:
        raise ConsistencyError(
            f"dual-state step: exp(G) = {e} does not divide D = {big_d}")
    h, x, _ = _seed_ext_gcd(g, big_d)
    if big_s % h:
        raise ConsistencyError(
            f"dual-state step: gcd({g}, {big_d}) does not divide {big_s}")
    return big_d // e, x * (big_s // h) % big_d


# -- the sweep descent as it stood before the dual state (d, W) -------------------

def echelon_delta_star(group: FiniteAbelianGroup) -> dict:
    """`sweep.delta_star` before each node carried (d, W), kept verbatim
    apart from the budget check and the returned shape: a node copies its
    parent's pivot-indexed basis on its first insert, inserts the echelon
    rows of every new support mask, stops inserting once the tail generator
    reaches 1, and reads min Delta off that generator."""
    elements = group.nonzero_elements
    k = len(elements)
    if k == 0:
        return {"records": (), "extremal": (), "delta_star": (), "m_of_g": 0,
                "subsets_computed": 0, "subsets_pruned": 0}

    support = SupportSet(group, elements)
    index = enumerate_atoms(support, budget=None).mask_index
    dim = k + 1
    reduced: dict[int, list] = {}

    def reduced_rows(smask: int, entry) -> list:
        rows = reduced.get(smask)
        if rows is None:
            basis: list = [None] * dim
            for exps in entry_vectors(smask, entry, k):
                echelon_insert(basis, [*exps, 1])
            rows = reduced[smask] = [row for row in basis if row is not None]
        return rows

    records: list[SubsetRecord] = []
    hf_masks = {0}  # the half-factorial masks formed so far, and the empty one
    pruned = 0

    def descend(mask: int, top_bit: int, basis: list, has_nonunit: bool,
                has_light: bool):
        nonlocal pruned
        for b in range(top_bit + 1):
            bit = 1 << b
            new_basis = basis  # shared until the first insert copies it
            nu, nl = has_nonunit, has_light
            saturated = False
            sub = mask
            while True:
                entry = index.get(bit | sub)
                if entry is not None:
                    nu = nu or entry.nonunit
                    nl = nl or entry.light
                    if not saturated:
                        if new_basis is basis:
                            new_basis = basis[:]
                        for row in reduced_rows(bit | sub, entry):
                            echelon_insert(new_basis, row)
                        # min Delta 1 is final, so further inserts are skipped
                        tail = new_basis[dim - 1]
                        saturated = tail is not None and abs(tail[-1]) == 1
                if not sub:
                    break
                sub = (sub - 1) & mask
            new_mask = mask | bit
            d = lattice_tail_generator(new_basis, dim)
            if (d == 0) == nu:
                raise ConsistencyError(
                    f"half-factoriality routes disagree on subset mask {new_mask}")
            if d == 0:
                hf_masks.add(new_mask)
                minimal = False
            else:
                # every proper subset is smaller, so already decided
                minimal = all(new_mask ^ (1 << i) in hf_masks
                              for i in range(b, k) if new_mask >> i & 1)
            records.append(SubsetRecord(new_mask, d, d == 0, not nl, minimal))
            if d == 1:
                # every superset inherits min delta 1; count its subtree and skip
                pruned += bit - 1
            else:
                descend(new_mask, b - 1, new_basis, nu, nl)

    descend(0, k - 1, [None] * dim, False, False)

    total = (1 << k) - 1
    if len(records) + pruned != total:
        raise ConsistencyError(
            f"sweep accounting is off: {len(records)} visited + {pruned} pruned "
            f"!= {total}")

    # min Delta is 0 exactly on the half-factorial subsets
    dstar = sorted({rec.min_delta for rec in records} - {0})
    maximum = dstar[-1] if dstar else 0
    m_of_g = max((rec.min_delta for rec in records if rec.lcn), default=0)
    extremal = tuple(
        _extremal_report(support, index, rec)
        for rec in records
        if rec.minimal_non_hf and rec.min_delta == maximum and maximum > 0)

    return {
        "records": tuple(records),
        "extremal": extremal,
        "delta_star": tuple(dstar),
        "m_of_g": m_of_g,
        "subsets_computed": len(records),
        "subsets_pruned": pruned,
    }


# -- the extremal report as it stood before it read the support-mask index --------

def seed_restrict(full_atoms: AtomSet, subset: SupportSet) -> AtomSet:
    """`AtomSet.restrict` before the sweep's reports read the support-mask
    index, kept verbatim apart from the name and the per-atom support masks
    it read from `AtomSet.support_masks`: the atoms supported inside a
    subset of the support, re-indexed to it.

    Valid because a zero-sum sequence over the subset is minimal there
    iff it is minimal over the larger support.
    """
    positions = [full_atoms.support.position(g) for g in subset.elements]
    inside = sum(1 << i for i in positions)
    support_masks = [sum(1 << i for i, c in enumerate(a.exponents) if c)
                     for a in full_atoms.atoms]
    picked = sorted(tuple(a.exponents[i] for i in positions)
                    for a, mask in zip(full_atoms.atoms, support_masks)
                    if not mask & ~inside)
    return regroup(subset, picked)


def seed_extremal_report(group: FiniteAbelianGroup, elements, full_atoms: AtomSet,
                         rec: SubsetRecord) -> ExtremalSetReport:
    """The sweep's extremal report before it read the support-mask index and
    the whole-group span table, kept verbatim apart from the name,
    `seed_restrict` for `AtomSet.restrict`, and a set of exponent tuples for
    `AtomSet.contains_vector`: a `SupportSet` of its own per subset, and
    `Fraction` cross numbers."""
    subset_elems = tuple(g for i, g in enumerate(elements) if rec.mask >> i & 1)
    subset = SupportSet(group, subset_elems)
    n = group.exponent
    r = group.rank

    pm_pair = (len(subset_elems) == 2
               and subset_elems[1] == group.neg(subset_elems[0])
               and group.order_of(subset_elems[0]) == n)

    # spans of the subset minus one or two of its elements, as masks
    size = len(subset_elems)
    full = (1 << size) - 1
    codec = subset.codec
    no_gap = not any(
        subset.span_mask(full ^ (1 << i) ^ (1 << j)) >> codec.encode(h) & 1
        for i, h in enumerate(subset_elems)
        for j in range(size) if j != i)

    independent_complement = any(
        subset.is_independent(full ^ (1 << i)) for i in range(size))

    unit_bound: bool | None = None
    heavy_bound: bool | None = None
    if rec.lcn:
        # the atom inventory is read only here, so restrict only here
        atoms = seed_restrict(full_atoms, subset)
        vectors = {a.exponents for a in atoms.atoms}
        unit_bound = all(
            2 * sum(1 for v in a.exponents if v) <= n
            for a, kv in zip(atoms.atoms, atoms.cross_numbers) if kv == 1)
        heavy_bound = True
        for a, kv in zip(atoms.atoms, atoms.cross_numbers):
            if kv > 1:
                complement = tuple(o - v for o, v in zip(subset.orders, a.exponents))
                if not (kv < r and complement in vectors):
                    heavy_bound = False
                    break

    return ExtremalSetReport(
        subset=subset_elems,
        min_delta=rec.min_delta,
        lcn=rec.lcn,
        pm_pair_full_order=pm_pair,
        size_is_rank_plus_one=len(subset_elems) == r + 1,
        no_two_element_span_gap=no_gap,
        has_independent_complement=independent_complement,
        unit_atoms_support_bound=unit_bound,
        heavy_atoms_complement_atom=heavy_bound,
    )


# -- the integer kernel, the distance walk and the atom DFS as they stood before ----
# -- the matrix-part elimination and the solved last position ----------------------

def hnf_integer_kernel(matrix) -> tuple[tuple[int, ...], ...]:
    """`kernel.integer_kernel` before it stopped at the matrix part, kept
    verbatim apart from the name: the echelon basis has a slot per matrix
    row and per column, so the inserts go on reducing each vector after its
    matrix part vanishes and leave the kernel basis in Hermite form."""
    matrix = [tuple(row) for row in matrix]
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if matrix else 0
    if any(len(row) != n_cols for row in matrix):
        raise ContractError("matrix rows have unequal lengths")
    rows: list = [None] * (n_rows + n_cols)
    for j in range(n_cols):
        aug = [matrix[i][j] for i in range(n_rows)]
        aug.extend(1 if i == j else 0 for i in range(n_cols))
        echelon_insert(rows, aug)
    # rows pivoting past the matrix part have a vanishing matrix part
    basis = [tuple(row[n_rows:]) for row in rows[n_rows:] if row is not None]
    for z in basis:
        for i in range(n_rows):
            if sum(matrix[i][j] * z[j] for j in range(n_cols)) != 0:
                raise ConsistencyError(f"kernel vector {z} fails M z = 0")
    return tuple(basis)


# -- the min Delta witness as it stood before the (k+1)-slot elimination ------------

def kernel_basis_witness(atoms: AtomSet) -> MinDeltaWitness | None:
    """`kernel.min_delta_witness` before it eliminated into k + 1 slots, kept
    verbatim apart from the name and the oracles' own extended gcd: it
    builds a whole kernel basis with `integer_kernel`, checks the gcd of its
    length differences against `min_delta`, and accumulates basis vectors
    with extended-gcd coefficients until 1^T z reaches it."""
    basis = integer_kernel(exponent_matrix(atoms))
    target = min_delta(atoms)
    if gcd(*map(sum, basis)) != target:
        raise ConsistencyError("kernel-basis gcd disagrees with dual-state min Delta")
    if target == 0:
        return None
    # accumulate basis vectors with extended-gcd coefficients until 1^T z = gcd
    z = [0] * len(atoms)
    acc = 0
    for b in basis:
        acc, x, y = _seed_ext_gcd(acc, sum(b))
        z = [x * zi + y * bi for zi, bi in zip(z, b)]
        if abs(acc) == target:
            break
    if abs(acc) != target:
        raise ConsistencyError("failed to realize the gcd from the kernel basis")
    if acc < 0:
        z = [-zi for zi in z]
    plus_len = sum(c for c in z if c > 0)
    minus_len = -sum(c for c in z if c < 0)
    seq = SequenceVec.empty(atoms.support)
    for c, a in zip(z, atoms.atoms):
        if c > 0:
            seq = seq * power(a, c)
    return MinDeltaWitness(tuple(z), seq, (minus_len, plus_len))


def walk_distances_oracle(atoms: AtomSet, max_len: int) -> tuple[int, ...]:
    """`lengths.distances_oracle` as a walk, before it solved the last
    position or took its sets of lengths from one forward pass, kept apart
    from the budgets and with `naive_length_set` for the length search:
    every exponent vector of length <= max_len is walked, position by
    position, and each nonzero zero-sum one has its length set taken."""
    support = atoms.support
    group = support.group
    gens = support.elements
    zero = group.zero
    k = len(support)
    vectors = [a.exponents for a in atoms]
    distances: set[int] = set()

    def rec(pos: int, remaining: int, sigma, vec: list[int]):
        if pos == k:
            if sigma == zero and any(vec):
                seq = SequenceVec(support, tuple(vec))
                values = sorted(naive_length_set(seq, vectors))
                if not values:
                    raise ConsistencyError(
                        f"zero-sum vector {tuple(vec)} has no factorization")
                distances.update(b - a for a, b in zip(values, values[1:]))
            return
        g = gens[pos]
        s = sigma
        for c in range(remaining + 1):
            vec[pos] = c
            rec(pos + 1, remaining - c, s, vec)
            s = group.add(s, g)
        vec[pos] = 0

    rec(0, max_len, zero, [0] * k)
    return tuple(sorted(distances))


def walk_search(steps, gbits, spans, vec: tuple[int, ...], sig: int, ps: int,
                q: int) -> list[tuple[int, ...]]:
    """The atom DFS before it solved the last position, kept verbatim apart
    from the name: it pushes one frame per copy, raises the last exponent
    one copy at a time, as it does every other, and pushes a frame past the
    last position that is recorded when its sum is 0 and dies at the empty
    span otherwise.

    The atoms that raise exponents of `vec`, position by position from the
    first, given the state (sigma, PS, Q) of `vec`, with 0 not in Q; sorted.

    Position i carries the translation steps `steps[i]` and the bit
    `gbits[i]` of its element, and spans[i], the span of the positions from
    i on, as a mask.
    """
    # nothing is reachable past the last position: a zero-sum branch is
    # recorded or abandoned before the deficit test, and the empty vector
    # is no atom
    spans = (*spans, 0)
    found: list[tuple[int, ...]] = []
    # frame: (position, exponent vector, sigma, PS, Q); a frame is pushed
    # only while 0 is not in Q
    stack = [(0, vec, sig, ps, q)]
    while stack:
        i, vec, sig, ps, q = stack.pop()
        if sig == 1 and ps:
            found.append(vec)
            continue  # any extension would contain this zero-sum properly
        if not spans[i] & sig:
            continue  # the deficit cannot be repaired from here on
        stack.append((i + 1, vec, sig, ps, q))
        if ps:
            # translations by g, written out: a helper call per translation
            # costs about a quarter of the search time
            for low, up, down in steps[i]:
                lo = q & low
                q = (lo << up) | ((q ^ lo) >> down)
                lo = sig & low
                sig = (lo << up) | ((sig ^ lo) >> down)
            q |= ps | gbits[i]
            if q & 1:
                continue
        else:
            # the empty vector: g alone has no proper nonempty subsequence
            sig = gbits[i]
        stack.append((i, vec[:i] + (vec[i] + 1,) + vec[i + 1:],
                      sig, q | sig, q))
    found.sort()
    return found


def walk_enumerate_atoms(support: SupportSet) -> list[tuple[int, ...]]:
    """The atom vectors of `support`, sorted, by `walk_search` from the empty
    vector on every position, with the span of each suffix of positions."""
    k = len(support)
    gbits = [1 << support.codec.encode(g) for g in support.elements]
    full = (1 << k) - 1
    spans = [support.span_mask(full ^ ((1 << i) - 1)) for i in range(k)]
    return walk_search(support.steps, gbits, spans, (0,) * k, 1, 0, 0)
