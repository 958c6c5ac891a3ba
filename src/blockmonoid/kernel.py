"""Exact computation of min Delta(G0) from the integer kernel of the atom matrix.

Any integer vector z with M z = 0 splits as z = z+ - z-, giving two
factorizations of the same zero-sum sequence, so {1^T z : M z = 0} is exactly
the subgroup of Z generated by all length differences.  Its nonnegative
generator is gcd Delta(G0) = min Delta(G0), with 0 encoding the half-factorial
case.  min_delta reads that generator off an echelon basis of the lattice
spanned by the augmented atom columns (exponent vector, 1): the minimal
positive t with (0,...,0,t) in the lattice.  All arithmetic is exact
arbitrary-precision integer arithmetic.

Every echelon basis here is pivot-indexed: a list with one slot per
coordinate, where slot j holds the row whose leading index is j, or None.
Inserting never mutates a row, it only replaces slots, so basis[:] is an
independent copy of a basis that shares its rows.  The tail generator is
the last entry of slot dim - 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .atoms import AtomSet
from .errors import ConsistencyError, ContractError
from .sequences import SequenceVec


def echelon_insert(basis: list, vec) -> None:
    """Insert vec into a pivot-indexed integer echelon basis.

    basis has one slot per coordinate: basis[j] is the row whose leading
    (first nonzero) index is j, or None.  The leading index of vec is found
    once; each reduction clears it and the scan resumes after it.
    Unimodular row operations only, so the spanned lattice is preserved.
    Rows are never mutated, vec included: a slot is only ever replaced by a
    new list, and vec itself may become a row.  So basis[:] is an
    independent copy of a basis, and rows may be shared between bases.
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
            return
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


@dataclass(frozen=True)
class KernelBasis:
    """Lattice basis of {z : M z = 0} over the integers."""

    vectors: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.vectors)

    def length_difference_gcd(self) -> int:
        """gcd of |1^T b| over the basis; 0 for an empty or all-zero set."""
        out = 0
        for b in self.vectors:
            out = gcd(out, sum(b))
        return abs(out)


def integer_kernel(matrix) -> KernelBasis:
    """Basis of the integer kernel of a matrix given as a sequence of rows.

    Column-style Hermite elimination: each column j is augmented with the j-th
    unit vector and inserted into an echelon basis; rows whose matrix part
    vanishes carry a kernel basis vector in their unit part.  Every emitted
    vector is re-verified against M.
    """
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
    return KernelBasis(tuple(basis))


def min_delta(atoms: AtomSet) -> int:
    """min Delta(G0) as the positive generator of the length-difference group.

    0 means Delta(G0) is empty, i.e. the support set is half-factorial.
    """
    dim = len(atoms.support) + 1
    rows: list = [None] * dim
    for a in atoms.atoms:
        echelon_insert(rows, [*a.exponents, 1])
    return lattice_tail_generator(rows, dim)


def is_half_factorial(atoms: AtomSet) -> bool:
    """Two independent routes: every atom has cross number 1, and min_delta = 0.

    The routes are provably equivalent; disagreement is a bug trap.
    """
    route_a = all(k == 1 for k in atoms.cross_numbers)
    route_b = min_delta(atoms) == 0
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
    """One kernel vector z with |1^T z| = min Delta, or None when half-factorial.

    z+ and z- are two factorizations of the same zero-sum sequence whose
    lengths differ by exactly the gcd.
    """
    basis = integer_kernel(atoms.exponent_matrix)
    target = min_delta(atoms)
    if basis.length_difference_gcd() != target:
        raise ConsistencyError("kernel-basis gcd disagrees with lattice readout")
    if target == 0:
        return None
    # accumulate basis vectors with extended-gcd coefficients until 1^T z = gcd
    z = None
    acc = 0
    for b in basis.vectors:
        t = sum(b)
        if t == 0:
            continue
        if z is None:
            z, acc = list(b), t
        else:
            g, x, y = ext_gcd(acc, t)
            z = [x * zi + y * bi for zi, bi in zip(z, b)]
            acc = g
        if abs(acc) == target:
            break
    if z is None or abs(acc) != target:
        raise ConsistencyError("failed to realize the gcd from the kernel basis")
    if acc < 0:
        z = [-zi for zi in z]
    plus_len = sum(c for c in z if c > 0)
    minus_len = -sum(c for c in z if c < 0)
    seq = SequenceVec.empty(atoms.support)
    for c, a in zip(z, atoms.atoms):
        if c > 0:
            seq = seq * (a ** c)
    return MinDeltaWitness(tuple(z), seq, (minus_len, plus_len))
