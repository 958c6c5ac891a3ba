"""Exact computation of min Delta(G0), its witness, and the integer kernel of
the atom matrix.

Any integer vector z with M z = 0 splits as z = z+ - z-, giving two
factorizations of the same zero-sum sequence, so {1^T z : M z = 0} is exactly
the subgroup of Z generated by all length differences.  Its nonnegative
generator is gcd Delta(G0) = min Delta(G0), with 0 encoding the half-factorial
case; it also generates {t : (0,...,0,t) in L} for the lattice L spanned by
the augmented atom columns (exponent vector, 1).  All arithmetic is exact
arbitrary-precision integer arithmetic.

min_delta and the sweep carry a dual state (d, W) instead of a basis of L.
With R the support's relation lattice and e = exp(G), L = {(r, t) : r in R,
t = lambda(r) mod d} for a length functional lambda that extends to all
integer vectors as sum W_i x_i / e, with integer weights W_i.  So every atom
A has sum W_i A_i = e (mod e*d), and = e exactly when d = 0, where
W_i = e / ord(g_i) makes the sum e times the cross number k(A).  Adding a
position b adds one weight, which the new atoms, read as they are,
determine together with the new d (`child_step`).  Each new atom a gives
the pair (c, B) = (a_b, e - sum W_i a_i), and e*d' is the D of the 2x2
Hermite form [[g, S], [0, D]] of the lattice spanned by (0, e*d) and these
pairs.  The step folds them into the form one at a time, computing each B
only when it reaches it: with g' = gcd(g, c) = x*g + y*c, the pair sets D
to gcd(D, (c*S - g*B)/g') and (g, S) to (g', x*S + y*B).  D only shrinks,
and it stays 0 or a positive multiple of e, so once it reaches e the new d
is 1, the child is pruned whatever its weight, and the step stops reading
atoms.  It reads the index entries (`atoms.MaskAtoms`) that `min_delta` and
the sweep hand it as they are: `above`, one exponent tuple per atom and,
under a half-factorial parent, the atom's scaled cross number.
Nearly every step runs under one (11,424 of the 11,446 steps of the
sweeps of every group of order 3 to 16 and C2^3xC3), and there the weights
are forced: d = 0 makes sum W_i A_i = e exact on every atom of the parent,
and the atom g_i^ord(g_i) gives W_i*ord(g_i) = e, so W_i = e/ord(g_i) and
sum W_i a_i = e*k(a) over any support the weights cover.  So the step reads
B = e - u*n k(a) + c*W_b off the cross number n k(a) that the entry
carries on the support's scale n (`MaskAtoms.scaled`), u = e/n and
W_b = e/ord(g_b) given by the caller (u = 1 on the whole group, where
n = e), with no loop over the exponents; at d > 0 it sums W_i a_i over
`above`.  Both routes to half-factoriality then read n k(A): the unit
cross number flags, and d = 0, which a child reaches only through steps
under half-factorial parents.  The tests that compute n k apart guard the carried one:
`oracles.regroup`'s dot product against every index entry
(TestIndexAgainstWalk, TestOnDemandIndex, TestFiledEntries), and
TestBatchStepOracle, which recomputes every B of every sweep step from the
weights and the exponents.
The fold starts from a form (g, S, D) that spans part of the lattice
already, (0, 0, 0) in `min_delta`, and returns the form it ends at: the
sweep starts the child b|M from the final form of b|P, P the mask M minus
its lowest position, whose atoms are among those of b|M, and folds only
the rest.

`min_delta_witness` checks min Delta by a route that shares no code with
the step: one elimination of the augmented columns into a (k+1)-slot
echelon basis, k the support size, whose slot k row (0, t) gives the tail
generator |t| of the columns inserted so far.  Until |t| reaches min Delta
each column also carries a unit tail e_j, so that row is (0, t, z) with
M z = 0 and 1^T z = t; the first z with |t| = min Delta is the witness, and
the rest of the columns go in without tails.  After the last column |t|
must equal min Delta.  `integer_kernel` eliminates on the matrix part
alone: the augmented columns that reduce to a vanishing matrix part carry a
kernel basis, left in whatever form the elimination gave it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from .atoms import AtomSet
from .errors import ConsistencyError, ContractError
from .sequences import SequenceVec


def echelon_insert(basis: list, vec):
    """Insert vec into a pivot-indexed integer echelon basis; return what is
    left of vec when it cannot be placed, None when it is.

    basis has one slot per leading coordinate: basis[j] is the row whose
    leading (first nonzero) index is j, or None.  vec may be longer than
    basis; its entries past len(basis) ride along in every row operation but
    are never pivots.  The leading index of vec is found once; each
    reduction clears it and the scan resumes after it.  When vec's first
    len(basis) entries vanish it is returned, reduced (all zero when vec has
    no entries past them).  Unimodular row operations only, so the rows and
    the returned vector span the lattice the rows and vec spanned.  Rows
    are never mutated, vec included: a slot is only ever replaced by a new
    list, and vec itself may become a row.  So basis[:] is an independent
    copy of a basis, and rows may be shared between bases.
    """
    dim = len(basis)
    j = 0
    while j < dim and not vec[j]:
        j += 1
    v = vec
    while j < dim:
        row = basis[j]
        if row is None:
            basis[j] = v
            return None
        a, b = row[j], v[j]
        if b % a == 0:
            q = b // a
            v = [x - q * y for x, y in zip(v, row)]
        else:
            g, x, y = ext_gcd(a, b)
            basis[j] = [x * p + y * q2 for p, q2 in zip(row, v)]
            v = [(a // g) * q2 - (b // g) * p for p, q2 in zip(row, v)]
        j += 1
        while j < dim and not v[j]:
            j += 1
    return v


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def lattice_tail_generator(basis: list, dim: int) -> int:
    """Generator of {t : (0,...,0,t) in the lattice}, nonnegative; 0 if trivial.

    In a pivot-indexed echelon basis this is the last entry of the row in
    slot dim - 1, if that slot is filled.
    """
    row = basis[dim - 1]
    return abs(row[-1]) if row is not None else 0


def integer_kernel(matrix) -> tuple[tuple[int, ...], ...]:
    """Basis vectors of the integer kernel {z : M z = 0} of a matrix M given
    as a sequence of rows.

    Column-style Hermite elimination (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4): each column j, augmented with the j-th
    unit vector, is inserted into an echelon basis pivoting on the matrix
    part only.  An insert whose matrix part vanishes leaves (0, z); every
    step is unimodular, so these z span exactly the kernel, and there are
    n_cols - rank(M) of them.  The kernel gets no Hermite form of its own.
    Every emitted vector is re-verified against M.
    """
    matrix = [tuple(row) for row in matrix]
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if matrix else 0
    if any(len(row) != n_cols for row in matrix):
        raise ContractError("matrix rows have unequal lengths")
    rows: list = [None] * n_rows
    basis = []
    for j in range(n_cols):
        aug = [matrix[i][j] for i in range(n_rows)]
        aug.extend(1 if i == j else 0 for i in range(n_cols))
        left = echelon_insert(rows, aug)
        if left is not None:
            basis.append(tuple(left[n_rows:]))
    for z in basis:
        for row in matrix:
            if sum(map(mul, row, z)) != 0:
                raise ConsistencyError(f"kernel vector {z} fails M z = 0")
    return tuple(basis)


def child_step(e: int, d: int, entries, weights: list,
               start: tuple[int, int, int], u: int,
               w_b: int) -> tuple[int, int | None, tuple]:
    """(d', W_b, (g, S, D)) for the child that adds position b to a mask in
    state (d, W), with W_b None as soon as d' = 1 is certain.

    The new atoms, those over the child with a_b >= 1, come as index
    entries: each atom a as an exponent tuple, c = a_b first and then the
    a_i at the entry's positions `above` b, beside its cross number n k(a)
    on the support's scale n (`scaled`); the fold computes its
    B = e - sum W_i a_i when it reaches it.  At d > 0 it sums over `above`,
    reading `weights`.  At d = 0 the parent's weights are forced: the atom
    g_i^ord(g_i) of each parent position i gives W_i*ord(g_i) = e exactly,
    so W_i = e/ord(g_i), the sum over `above` is u*n k(a) - c*W_b for
    u = e/n and W_b = e/ord(g_b), which the caller gives, and the fold reads
    B = e - u*n k(a) + c*W_b instead, reading neither `weights` nor the
    exponents after c.  The child's lattice vectors
    (r, t) with r_b = 0 are spanned by the parent's lattice and the integer
    combinations of the augmented atom columns (a, 1) whose b parts cancel,
    and on all of them B = e*(t - lambda(r)) (mod e*d).  So e*d' is the D
    of the Hermite form [[g, S], [0, D]] of the lattice in Z^2 spanned by
    (0, e*d) and every (c, B), and W_b solves g*W_b = S, exactly when D = 0
    and mod D otherwise.

    `start` is a Hermite form (g, S, D) of part of that lattice: the pairs
    of the atoms the entries leave out, at these weights, and (0, D) for a
    multiple D of e*d' ((0, 0, 0) when nothing is left out).  The fold
    starts from it with D joined by a gcd with e*d; an atom with g = 0 sets
    (g, S) = (c, B), and otherwise, with g' = gcd(g, c) = x*g + y*c,
    replaces the rows by (c/g')*(g, S) - (g/g')*(c, B) = (0, (c*S - g*B)/g'),
    which joins D by a gcd, and x*(g, S) + y*(c, B) = (g', x*S + y*B).  The
    form it ends at is returned for a later fold to start from.  The
    lattice, and with it g, D and d', does not depend on how the pairs are
    split between `start` and the entries, nor on their order.  S does, up
    to a multiple of D, so W_b may be another solution of g*W_b = S (mod D);
    any solution is a weight, since c*W_b = B (mod D) on every pair (c, B)
    of the lattice, and a weight has to hold only mod D = e*d'.

    D = e is final.  Each D along the fold is the gcd of the D before it and
    one more number, so it divides the D before it, is nonzero once one
    is, and is 0 or a multiple of e, since every such number is: a vector
    (0, t) of the lattice so far has t = sum n_a B_a + m*e*d with
    sum n_a a_b = 0, so r = sum n_a a restricted to the mask is a relation
    of the parent, sum W_i r_i = e*(the length of r in parent atoms)
    (mod e*d), and t = e*(sum n_a - that length) (mod e*d).  So once
    0 < D <= e, D = e, every later D is e too, and d' = 1, the first
    divisor-closed value: the sweep prunes the child, so no descendant
    reads W_b, and min Delta 1 ends `min_delta`.  The fold returns
    (1, None, (g, S, e)) there and reads no further atom, and none at all
    when D = e at the start.  A D in (0, e) is a bug.

    The parent's weights are kept unreduced: they hold mod e*d, hence mod
    e*d'.  W_b then exists, since the child's weights differ from the
    parent's by some U with U.r = 0 (mod e*d') on the parent's relations r,
    and U.p, for p the mask part of sum s_a (a, 1) with sum s_a a_b = g, is
    a multiple of gcd(g, e*d') (ord(g_b) / gcd(ord(g_b), g) times p is a
    relation, and ord(g_b) divides e).  So each check below fails only on
    a bug.
    """
    g, big_s, big_d = start
    big_d = gcd(big_d, e * d)
    if big_d == e:
        return 1, None, (g, big_s, big_d)
    for entry in entries:
        above = entry.above
        for vec, nk in zip(entry.vectors, entry.scaled):
            c = vec[0]
            if d:
                big_b = e
                for i, v in zip(above, vec[1:]):
                    big_b -= weights[i] * v
            else:
                big_b = e - u * nk + c * w_b
            if not g:
                g, big_s = c, big_b
                continue
            if c % g:
                h, x, y = ext_gcd(g, c)
                big_d = gcd(big_d, (c * big_s - g * big_b) // h)
                big_s = x * big_s + y * big_b
                g = h
            else:
                big_d = gcd(big_d, (c // g) * big_s - big_b)
            if 0 < big_d <= e:
                if big_d != e:
                    raise ConsistencyError(
                        f"dual-state step: exp(G) = {e} does not divide D = {big_d}")
                return 1, None, (g, big_s, big_d)
    form = g, big_s, big_d
    if big_d == 0:
        if big_s % g:
            raise ConsistencyError(
                f"half-factorial child: gcd {g} of the new coefficients does "
                f"not divide {big_s}")
        return 0, big_s // g, form
    if big_d % e:
        raise ConsistencyError(
            f"dual-state step: exp(G) = {e} does not divide D = {big_d}")
    h, x, _ = ext_gcd(g, big_d)
    if big_s % h:
        raise ConsistencyError(
            f"dual-state step: gcd({g}, {big_d}) does not divide {big_s}")
    return big_d // e, x * (big_s // h) % big_d, form


def min_delta(atoms: AtomSet) -> int:
    """min Delta(G0) as the positive generator of the length-difference group.

    0 means Delta(G0) is empty, i.e. the support set is half-factorial.  The
    positions join from last to first, each with the index entries
    (`AtomSet.mask_index`) whose lowest support position it is, so B sums
    over the positions whose weights are set.  While d = 0 each step reads
    B off the entries' cross numbers, on the support's scale n, the lcm of
    its orders, with u = e/n and W_b = e/ord(g_b).  min Delta 1 ends the
    fold, inside a position or between two: min Delta of a superset
    divides it.
    """
    k = len(atoms.support)
    e = atoms.support.group.exponent
    joining = [[] for _ in range(k)]
    for mask, entry in atoms.mask_index.items():
        joining[(mask & -mask).bit_length() - 1].append(entry)
    if [] in joining:
        # every g in the support brings the atom g^ord(g) at its position
        raise ContractError(f"no atom has lowest support position {joining.index([])}")
    n, scale = atoms.support.cross_scale
    u = e // n
    weights = [0] * k
    d = 0
    for b in range(k - 1, -1, -1):
        d, weights[b], _ = child_step(e, d, joining[b], weights, (0, 0, 0),
                                      u, u * scale[b])
        if d == 1:
            break
    return d


def half_factorial(atoms: AtomSet, d: int) -> bool:
    """Half-factoriality of a support with min Delta d, by two independent
    routes: every atom has cross number 1, and d = 0.  The routes are
    provably equivalent; disagreement is a bug trap."""
    route_a = not any(entry.nonunit for entry in atoms.mask_index.values())
    route_b = d == 0
    if route_a != route_b:
        raise ConsistencyError(
            f"half-factoriality routes disagree on {atoms.support.elements}: "
            f"unit cross numbers={route_a}, kernel={route_b}")
    return route_a


@dataclass(frozen=True)
class MinDeltaWitness:
    """A kernel vector realizing min Delta as a pair of factorizations."""

    vector: tuple[int, ...]
    sequence: SequenceVec
    lengths: tuple[int, int]


def min_delta_witness(atoms: AtomSet) -> MinDeltaWitness | None:
    """One kernel vector z with 1^T z = min Delta, or None when half-factorial.

    z+ and z- are two factorizations of the same zero-sum sequence whose
    lengths differ by exactly min Delta.  The augmented columns (a_j, 1) go
    into a (k+1)-slot echelon basis in atom order; while min Delta is not
    yet reached, column j carries the unit tail e_j.  Every row is then
    sum z_j (a_j, 1, e_j) for some z, so the row in slot k, (0, t, z) with
    t its pivot, has M z = 0 and 1^T z = t, and |t| generates the tail
    group of the columns so far, a subgroup of min Delta * Z.  The first
    row there with |t| = min Delta gives z (negated when t < 0); the rows
    are then cut to their first k + 1 entries and the remaining columns
    inserted without tails.  A half-factorial support carries no tails.
    The final |t| generates {1^T z : M z = 0} and must equal the
    dual-state min Delta, and z is checked against the atoms directly.
    """
    target = min_delta(atoms)
    k = len(atoms.support)
    vectors = [a.exponents for a in atoms.atoms]
    n = len(vectors)
    basis: list = [None] * (k + 1)
    z = None
    j = 0
    if target:
        while j < n:
            aug = [0] * (k + 1 + n)
            aug[:k] = vectors[j]
            aug[k] = aug[k + 1 + j] = 1
            echelon_insert(basis, aug)
            j += 1
            row = basis[k]
            if row is not None and abs(row[k]) == target:
                z = row[k + 1:] if row[k] > 0 else [-c for c in row[k + 1:]]
                break
        basis = [None if r is None else r[:k + 1] for r in basis]
    for exps in vectors[j:]:
        echelon_insert(basis, [*exps, 1])
    if lattice_tail_generator(basis, k + 1) != target:
        raise ConsistencyError("kernel-basis gcd disagrees with dual-state min Delta")
    if not target:
        return None
    used = [(c, exps) for c, exps in zip(z, vectors) if c]
    if sum(z) != target or any(sum(c * exps[i] for c, exps in used)
                               for i in range(k)):
        raise ConsistencyError(f"witness {z} fails M z = 0 or 1^T z = {target}")
    plus = tuple(sum(c * exps[i] for c, exps in used if c > 0) for i in range(k))
    plus_len = sum(c for c in z if c > 0)
    return MinDeltaWitness(tuple(z), SequenceVec._unchecked(atoms.support, plus),
                           (plus_len - target, plus_len))
