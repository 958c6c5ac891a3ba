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
    """

    def __init__(self, atoms: AtomSet, memo_limit: int | None):
        self.columns = tuple(a.exponents for a in atoms.atoms)
        self.memo: dict[tuple[int, ...], frozenset[int]] = {}
        self.memo_limit = memo_limit

    def lengths(self, residual: tuple[int, ...]) -> frozenset[int]:
        if not any(residual):
            return frozenset((0,))
        hit = self.memo.get(residual)
        if hit is not None:
            return hit
        out: set[int] = set()
        for col in self.columns:
            for r, c in zip(residual, col):
                if c > r:
                    break
            else:
                rest = tuple(r - c for r, c in zip(residual, col))
                out.update(1 + l for l in self.lengths(rest))
        result = frozenset(out)
        if self.memo_limit is not None and len(self.memo) >= self.memo_limit:
            raise BudgetError(
                f"factorization memo exceeded {self.memo_limit} entries",
                bound=self.memo_limit)
        self.memo[residual] = result
        return result


def length_set(sequence: SequenceVec, atoms: AtomSet,
               memo_limit: int | None = None) -> LengthSet:
    """L(B): all k such that B is a product of k atoms."""
    if sequence.support != atoms.support:
        raise ContractError("sequence and atoms live over different support sets")
    if not sequence.is_zero_sum():
        raise ContractError(
            f"length sets are defined for zero-sum sequences only; "
            f"sigma({sequence.format()}) != 0")
    search = _LengthSearch(atoms, memo_limit)
    values = search.lengths(sequence.exponents)
    if any(sequence.exponents) and not values:
        raise ConsistencyError(
            f"zero-sum sequence {sequence.format()} has no factorization")
    return LengthSet(tuple(values))


def distances_oracle(atoms: AtomSet, max_len: int,
                     vector_limit: int | None = None,
                     memo_limit: int | None = None) -> tuple[int, ...]:
    """Union of Delta(L(B)) over all zero-sum B with |B| <= max_len, over the
    support the atoms were enumerated on.

    A finite under-approximation of the full set of distances, monotone
    non-decreasing in max_len; used for cross-validation, never as the
    source of truth for min Delta.  The walk over exponent vectors makes
    C(max_len + j, j) calls at depth j, C(max_len + k + 1, k) in all over a
    support of k elements (hockey-stick identity), so `vector_limit` refuses
    it before it starts.
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
    search = _LengthSearch(atoms, memo_limit)
    distances: set[int] = set()

    def rec(pos: int, remaining: int, sigma, vec: list[int]):
        if pos == k:
            if sigma == zero and any(vec):
                values = sorted(search.lengths(tuple(vec)))
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
