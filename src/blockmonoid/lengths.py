"""Sets of factorization lengths and a brute-force observed-distances oracle."""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .atoms import AtomSet
from .errors import BudgetError, ConsistencyError, ContractError
from .sequences import SequenceVec


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


class _LengthSearch:
    """Memoized factorization-length search shared across queries.

    L(B) is the union of 1 + L(B/A) over the atoms A dividing B, and
    L(1) = {0}.  A set of lengths needs no order on the atoms of a
    factorization, so every atom is scanned and the memo is keyed by the
    residual alone; `memo_limit` caps the residuals kept.

    Every target has all exponents at most `cap`.  A residual is packed into
    one int, one field of cap.bit_length() + 1 bits per support position,
    with the top (guard) bit of every field set.  Subtracting a packed atom
    borrows across no field, and leaves a field's guard bit set exactly when
    the atom's exponent there is at most the residual's; so A divides B iff
    all guard bits survive B - A, which is then the packed B/A.  Atoms with
    an exponent above cap divide no target and are dropped.  A set of
    lengths is an int with bit l set for each length l in it.
    """

    def __init__(self, atoms: AtomSet, cap: int, memo_limit: int | None):
        width = cap.bit_length() + 1
        self.shifts = tuple(range(0, width * len(atoms.support), width))
        self.guards = self._pack([1 << (width - 1)] * len(self.shifts))
        self.columns = tuple(self._pack(a.exponents) for a in atoms.atoms
                             if max(a.exponents) <= cap)
        self.memo: dict[int, int] = {}
        self.memo_limit = memo_limit

    def _pack(self, exponents) -> int:
        return sum(c << s for c, s in zip(exponents, self.shifts))

    def lengths(self, exponents) -> tuple[int, ...]:
        """L(B) ascending, for B given by exponents all at most cap."""
        bits = self._search(self._pack(exponents) | self.guards)
        return tuple(l for l in range(bits.bit_length()) if bits >> l & 1)

    def _search(self, residual: int) -> int:
        """L(residual) as a bitset, by a depth-first search on an explicit
        stack, not on Python's: a factorization takes one frame per atom,
        and a long sequence has thousands.  A frame is [B, the atoms not yet
        tried on B, the union of L(B/A) over the atoms A tried].  B is filed
        in the memo once every atom has been tried on it, so `memo_limit`
        is reached after the same number of residuals in any order."""
        guards, columns, memo, limit = (self.guards, self.columns, self.memo,
                                        self.memo_limit)
        if residual == guards:
            return 1
        hit = memo.get(residual)
        if hit is not None:
            return hit
        stack = [[residual, iter(columns), 0]]
        while True:
            frame = stack[-1]
            residual, rest_columns, out = frame
            for col in rest_columns:
                rest = residual - col
                if rest & guards != guards:
                    continue
                hit = memo.get(rest)
                if hit is None:
                    if rest != guards:
                        frame[2] = out
                        stack.append([rest, iter(columns), 0])
                        break
                    hit = 1
                out |= hit
            else:
                result = out << 1
                if limit is not None and len(memo) >= limit:
                    raise BudgetError(
                        f"factorization memo exceeded {limit} entries",
                        bound=limit)
                memo[residual] = result
                stack.pop()
                if not stack:
                    return result
                stack[-1][2] |= result


def length_set(sequence: SequenceVec, atoms: AtomSet,
               memo_limit: int | None = None) -> LengthSet:
    """L(B): all k such that B is a product of k atoms."""
    if sequence.support != atoms.support:
        raise ContractError("sequence and atoms live over different support sets")
    if not sequence.is_zero_sum():
        raise ContractError(
            f"length sets are defined for zero-sum sequences only; "
            f"sigma({sequence.format()}) != 0")
    exps = sequence.exponents
    search = _LengthSearch(atoms, max(exps, default=0), memo_limit)
    values = search.lengths(exps)
    if any(exps) and not values:
        raise ConsistencyError(
            f"zero-sum sequence {sequence.format()} has no factorization")
    return LengthSet(values)


def distances_oracle(atoms: AtomSet, max_len: int,
                     vector_limit: int | None = None,
                     memo_limit: int | None = None) -> tuple[int, ...]:
    """Union of Delta(L(B)) over all zero-sum B with |B| <= max_len, over the
    support the atoms were enumerated on.

    A finite under-approximation of the full set of distances, monotone
    non-decreasing in max_len; used for cross-validation, never as the
    source of truth for min Delta.  The walk over exponent vectors solves
    the last position instead of walking it: given the sum sigma of the
    others, the zero-sum choices there are c0, c0 + ord, ... for the least
    c0 with c0 * g_last = -sigma.  `vector_limit` refuses it before it
    starts from C(max_len + k + 1, k), over a support of k elements: the
    node count of the walk over all k positions (hockey-stick identity),
    an upper bound on the nodes and vectors visited now.
    """
    support = atoms.support
    group = support.group
    gens = support.elements
    zero = group.zero
    k = len(support)
    nodes = comb(max_len + k + 1, k)
    if vector_limit is not None and nodes > vector_limit:
        raise BudgetError(
            f"distance oracle bound {nodes} (walk nodes up to length "
            f"{max_len} over {k} elements) exceeds the limit {vector_limit}",
            bound=nodes)
    if k == 0:
        return ()
    search = _LengthSearch(atoms, max_len, memo_limit)
    distances: set[int] = set()
    last = k - 1
    # solving[s] = the least c >= 0 with s + c * g_last = 0, for s in <g_last>
    neg_last = group.neg(gens[last])
    solving = {zero: 0}
    s = neg_last
    while s != zero:
        solving[s] = len(solving)
        s = group.add(s, neg_last)
    order = len(solving)

    def rec(pos: int, remaining: int, sigma, vec: list[int]):
        if pos == last:
            c = solving.get(sigma)
            if c is None:
                return
            if c == 0 and not any(vec):
                c = order
            while c <= remaining:
                vec[last] = c
                values = search.lengths(vec)
                if not values:
                    raise ConsistencyError(
                        f"zero-sum vector {tuple(vec)} has no factorization")
                distances.update(b - a for a, b in zip(values, values[1:]))
                c += order
            vec[last] = 0
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
