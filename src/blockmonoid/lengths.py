"""Sets of lengths and the observed-distances oracle, from one forward pass."""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import le

from .atoms import AtomSet
from .errors import BudgetError, ConsistencyError, ContractError, format_bound
from .sequences import SequenceVec, SupportSet


@dataclass(frozen=True)
class LengthSet:
    """The set of possible factorization lengths, sorted ascending."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(sorted(set(self.values))))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def delta(self) -> tuple[int, ...]:
        """Successive gaps; empty when the set is a singleton or empty."""
        return delta_of_lengths(self.values)


def delta_of_lengths(values) -> tuple[int, ...]:
    vals = sorted(set(values))
    return tuple(sorted({b - a for a, b in zip(vals, vals[1:])}))


def _lengths(bits: int) -> tuple[int, ...]:
    """The set of lengths with bit l set for each length l in it, ascending."""
    return tuple(l for l in range(bits.bit_length()) if bits >> l & 1)


def _length_layers(atoms: AtomSet, caps, max_len: int,
                   memo_limit: int | None):
    """Yield (n, the sets L(D)) for each length n <= max_len of a product of
    atoms D <= caps, in increasing order; a set of lengths is an int with
    bit l set for each length l in it.  L(1) = {0}, and L(D) is the union of
    1 + L(D/A) over the atoms A that divide D; so the pass adds 1 + L(D) to
    the entry of D*A for every atom A, and a layer is complete, and counted
    against `memo_limit` (the empty D aside), once every shorter one is
    read.  Only pending layers are kept.  The atoms are read off the
    support-mask index, each at its entry's positions.  D is packed as
    room - D: one field of max(caps).bit_length() + 1 bits per position
    holds the room left under a set guard bit, so subtracting an atom
    borrows across no field and D*A <= caps iff every guard bit survives.
    """
    width = max(caps, default=0).bit_length() + 1
    shifts = range(0, width * len(caps), width)
    guards = sum(1 << (width - 1 + s) for s in shifts)
    columns = []
    for mask, entry in atoms.mask_index.items():
        at = ((mask & -mask).bit_length() - 1, *entry.above)
        room = [caps[i] for i in at]
        fields = [shifts[i] for i in at]
        for vec in entry.vectors:
            size = sum(vec)
            if size <= max_len and all(map(le, vec, room)):
                columns.append(
                    (size, sum(c << s for c, s in zip(vec, fields))))
    pending = {0: {guards + sum(c << s for c, s in zip(caps, shifts)): 1}}
    filed = -1
    while pending:
        n = min(pending)
        layer = pending.pop(n)
        filed += len(layer)
        if memo_limit is not None and filed > memo_limit:
            raise BudgetError(f"length pass filed more than {memo_limit} "
                              f"zero-sum sequences", bound=memo_limit)
        if not layer:
            continue
        yield n, layer.values()
        targets = [(pending.setdefault(n + size, {}), col)
                   for size, col in columns if n + size <= max_len]
        for room, bits in layer.items():
            bits <<= 1
            for target, col in targets:
                rest = room - col
                if rest & guards == guards:
                    target[rest] = target.get(rest, 0) | bits


def _zero_sum_counts(support: SupportSet, max_len: int) -> list[int]:
    """The number of zero-sum exponent vectors of each length 0 .. max_len
    over the support, by group arithmetic alone.  T_i[n] maps each sum of
    the vectors of length n on the first i positions to their number; such
    a vector leaves g_i out or is g_i times one of length n - 1, so T_i[n]
    is T_(i-1)[n] plus T_i[n - 1] translated by g_i.  Only sums reached are
    kept."""
    group, gens = support.group, support.elements
    steps = [{} for _ in gens]  # per position, x -> x + g_i
    rows = [{} for _ in gens]  # per position, T_i[n - 1]
    counts = []
    for n in range(max_len + 1):
        row = {group.zero: 1} if n == 0 else {}
        for i, g in enumerate(gens):
            row, step = dict(row), steps[i]
            for x, c in rows[i].items():
                y = step.get(x)
                if y is None:
                    y = step[x] = group.add(x, g)
                row[y] = row.get(y, 0) + c
            rows[i] = row
        counts.append(row.get(group.zero, 0))
    return counts


def length_set(sequence: SequenceVec, atoms: AtomSet,
               memo_limit: int | None = None) -> LengthSet:
    """L(B): all k such that B is a product of k atoms, read off the last
    layer of the pass over the divisors of B."""
    if sequence.support != atoms.support:
        raise ContractError("sequence and atoms live over different support sets")
    if not sequence.is_zero_sum():
        raise ContractError(
            f"length sets are defined for zero-sum sequences only; "
            f"sigma({sequence.format()}) != 0")
    size = sequence.length
    bits = 0
    for n, sets in _length_layers(atoms, sequence.exponents, size, memo_limit):
        if n == size:
            (bits,) = sets
    if not bits:
        raise ConsistencyError(
            f"zero-sum sequence {sequence.format()} has no factorization")
    return LengthSet(_lengths(bits))


def distances_oracle(atoms: AtomSet, max_len: int,
                     vector_limit: int | None = None,
                     memo_limit: int | None = None) -> tuple[int, ...]:
    """Union of Delta(L(B)) over all zero-sum B with |B| <= max_len, over the
    support the atoms were enumerated on: a finite under-approximation of
    the full set of distances, monotone non-decreasing in max_len; used for
    cross-validation, never as the source of truth for min Delta.  One pass
    files every product of atoms of length <= max_len, and must file as
    many at each length as there are zero-sum vectors, or the atoms miss
    one.  `vector_limit` refuses it before it starts from C(max_len + k + 1,
    k), over k support elements, an upper bound on the sequences it files.
    """
    k = len(atoms.support)
    bound = comb(max_len + k + 1, k)
    if vector_limit is not None and bound > vector_limit:
        raise BudgetError(
            f"distance oracle bound {format_bound(bound)} (sequences up to "
            f"length {format_bound(max_len)} over {k} elements) exceeds the "
            f"limit {format_bound(vector_limit)}", bound=bound)
    expected = _zero_sum_counts(atoms.support, max_len)
    filed = [0] * (max_len + 1)
    distances: set[int] = set()
    for n, sets in _length_layers(atoms, (max_len,) * k, max_len, memo_limit):
        filed[n] = len(sets)
        for bits in set(sets):
            distances.update(delta_of_lengths(_lengths(bits)))
    for n, (got, want) in enumerate(zip(filed, expected)):
        if got != want:
            raise ConsistencyError(f"the atoms factor {got} of the {want} "
                                   f"zero-sum sequences of length {n}")
    return tuple(sorted(distances))
