"""Enumeration of the minimal zero-sum sequences (atoms) over a support set.

One depth-first search finds them (`_search`), with one frame per support
position and exponent prefix: a frame raises the exponent at its position
one copy at a time and from each exponent goes on to the next position,
solved in place when it is the last (below).  Each branch keeps two sets:

    PS(w) = sums of all nonempty subsequences of the partial vector w,
    Q(w)  = sums of all proper nonempty subsequences of w.

Adding one copy of g to a nonempty w updates them as

    Q(wg)  = PS(w) | (Q(w) + g) | {g},
    PS(wg) = Q(wg) | {sigma(w) + g},

with | for union and X + g = {x + g : x in X}.

A branch is abandoned as soon as 0 lands in Q(w): the partial selection then
contains a proper nonempty zero-sum subsequence, so no extension can be
minimal.  A vector w with sigma(w) = 0 and 0 not in Q(w) is exactly an atom,
so minimality is certified by the search state itself; the brute-force grid
filter in the test suite anchors this equivalence on small supports.  The
same rule bounds each exponent by ord(g) with no test of its own: ord(g)
copies of g beside another element put 0 in Q, and alone they are an atom,
which ends its branch.  A branch also dies when the current deficit
-sigma(w) is not reachable from the remaining support positions (it lies
outside the subgroup H they generate).  Since H is a subgroup, -sigma(w)
lies in H exactly when sigma(w) does, so the test needs no negation.

The last position is solved, not walked.  Let g be its element and w a
nonempty partial vector with sigma(w) != 0 and 0 not in Q(w).  Only copies
of g can follow, and w g^c is zero-sum for c = c(w), the unique
c in [1, ord(g)) with c*g = -sigma(w) (no such c when sigma(w) is not in
<g>), so w g^c is the one candidate.  It is an atom iff PS(w) misses
N_c = {-g, -2g, ..., -(c-1)g}.  Proof: a proper nonempty subsequence of
w g^c is w' g^i, with w' a subsequence of w and 0 <= i <= c.  With w'
empty it sums to i*g != 0, as 0 < i <= c < ord(g).  With w' nonempty and
i = 0 its sum lies in PS(w) and is 0 only if 0 is in Q(w) (w' = w has sum
sigma(w) != 0).  With i = c it is proper only if w' is not w, and sums to
0 only if the rest of w does, again 0 in Q(w).  That leaves w' nonempty
and 0 < i < c, where w' g^i sums to 0 iff sigma(w') = -i*g; some such
choice does iff PS(w) meets N_c.  So the frame before the last position
solves it with one lookup in the table of the nonzero multiples of g
(`SupportSet.multiples`: sigma -> (c, the mask of N_c)) and one AND, and
pushes nothing.  The walk that started from the empty vector, pushed a
frame per copy and walked the last position too is kept in the test suite
as an oracle.  The search visits a subset of the exponent vectors the walk
visited, so `enumeration_bound` still bounds its nodes; the budget test
reads only that bound, so it refuses the same supports.

The branch state is held in bitmasks.  Every subsequence sum lies in the
subgroup <S> that the support generates; the support's codec (`_Span` in
`sequences`) numbers the elements of <S> 0 .. |<S>| - 1, and PS, Q and sigma
are Python ints with one bit per element of <S>.  sigma is a single set bit,
and sigma = 0 is bit 0.  Translating a set by g takes one masked shift pair
per nonzero digit of g: the positions whose digit does not wrap move up, the
others move down.  The suffix spans H come from the support's memoized table
of subgroup masks, `SupportSet.span_mask`.

Every search starts from a nonempty vector: `enumerate_atoms` runs one per
lowest support position b, from one copy at b, and puts b zeros before
each atom.  An `AtomSet` files its atoms by support mask (`mask_index`),
each entry (`MaskAtoms`) holding the search's exponent tuples over the
mask's positions, never a k-tuple, with cross numbers scaled to integers
by the support's `cross_scale`.  The half-factorial, LCN and minimality
flags, min Delta and the largest cross number are read off the index.

`exact_entry` builds one entry of that index on its own: the atoms whose
support is exactly a given mask.  Such an atom contains each element of the
mask once, so it starts the search on the positions of the mask from their
0/1 vector, on the same codec, and only raises exponents.  The caller grows
that vector's state from `EMPTY_STATE` (`grow`); beside sigma, PS and Q it
holds the mask's positions and their steps, element bits and suffix spans,
in the order the search reads them.  When a proper nonempty subset of the
mask sums to 0, that state already has 0 in Q and no atom has the mask as
its support.  The whole-group sweep builds the entry of each subset it
forms this way and never enumerates the atoms of the whole group.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import mul

from .errors import BudgetError, ContractError, format_bound
from .sequences import SequenceVec, SupportSet, join_cyclic


class MaskAtoms:
    """The atoms with one support mask, from nonempty `vectors`, each atom's
    exponents at the mask's `positions` of `support`, the first the lowest:
    kept as they are, beside `above`, the positions after the first; their
    cross numbers n k(A), on the support's scale n (`scaled`, in the same
    order); whether some has k(A) != 1 (`nonunit`) or k(A) < 1 (`light`)."""

    __slots__ = ("above", "vectors", "scaled", "nonunit", "light")

    def __init__(self, support: SupportSet, positions: tuple[int, ...],
                 vectors: list[tuple[int, ...]]):
        n, weights = support.cross_scale
        weights = [weights[p] for p in positions]
        self.above = positions[1:]
        self.vectors = vectors
        self.scaled = scaled = [sum(map(mul, vec, weights)) for vec in vectors]
        self.light = min(scaled) < n
        self.nonunit = self.light or max(scaled) > n


@dataclass(frozen=True)
class AtomSet:
    """All atoms over a support set, in lexicographic exponent-vector order."""

    support: SupportSet
    atoms: tuple[SequenceVec, ...]

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    @cached_property
    def cross_numbers(self) -> tuple[Fraction, ...]:
        return tuple(a.cross_number() for a in self.atoms)

    @cached_property
    def mask_index(self) -> dict[int, MaskAtoms]:
        """The atoms grouped by support mask, bit i standing for position i."""
        filed: dict[tuple, list] = {}
        for a in self.atoms:
            at = tuple(i for i, c in enumerate(a.exponents) if c)
            filed.setdefault(at, []).append(tuple(a.exponents[i] for i in at))
        return {sum(1 << i for i in at): MaskAtoms(self.support, at, vectors)
                for at, vectors in filed.items()}

    def davenport_constant(self) -> int:
        """Maximal atom length."""
        if not self.atoms:
            raise ContractError("Davenport constant of an empty atom set")
        return max(a.length for a in self.atoms)

    def cross_number(self) -> Fraction:
        """Maximal cross number over the atoms."""
        if not self.atoms:
            raise ContractError("cross number of an empty atom set")
        return Fraction(max(max(entry.scaled) for entry in self.mask_index.values()),
                        self.support.cross_scale[0])


def _search(steps, gbits, spans, last, vec: tuple[int, ...], sig: int,
            ps: int, q: int) -> list[tuple[int, ...]]:
    """The atoms, sorted, that raise exponents of the nonempty `vec` position
    by position from the first, given its state (sigma, PS, Q), 0 not in Q.

    Position i carries the translation steps `steps[i]` and the bit
    `gbits[i]` of its element, and spans[i], the span of the positions from
    i on, as a mask.  `last` is the table of the nonzero multiples of the
    last position's element (`SupportSet.multiples`), which solves that
    position in one step.
    """
    if sig == 1:
        return [vec]  # any raise would contain this zero-sum properly
    end = len(steps) - 1
    if not end:
        hit = last.get(sig)
        return [(vec[0] + hit[0],)] if hit is not None and not ps & hit[1] else []
    found: list[tuple[int, ...]] = []
    # frame: (position i, the exponents before i, sigma, PS, Q), with vec[i]
    # copies at i and 0 not in Q; tuples are built only to push or record
    stack = [(0, (), sig, ps, q)]
    while stack:
        i, head, sig, ps, q = stack.pop()
        j, c, steps_i, bit = i + 1, vec[i], steps[i], gbits[i]
        while True:
            # go on to position j with c copies at i
            if j == end:
                # the exponent is forced: c' copies of g with c'*g = -sigma,
                # an atom iff no subsequence sums to one of -g .. -(c'-1)g;
                # no entry means -sigma is not in <g>
                hit = last.get(sig)
                if hit is not None and not ps & hit[1]:
                    found.append(head + (c, vec[j] + hit[0]))
            elif spans[j] & sig:  # else no later position repairs the deficit
                stack.append((j, head + (c,), sig, ps, q))
            # translations by g, written out: a helper call per translation
            # costs about a quarter of the search time
            for low, up, down in steps_i:
                lo = q & low
                q = (lo << up) | ((q ^ lo) >> down)
                lo = sig & low
                sig = (lo << up) | ((sig ^ lo) >> down)
            q |= ps | bit
            if q & 1:
                break
            ps = q | sig
            c += 1
            if sig == 1:
                found.append(head + (c,) + vec[j:])
                break  # any extension would contain this zero-sum properly
    found.sort()
    return found


def enumeration_bound(support: SupportSet) -> int:
    """Grid size prod(ord(g)+1), which bounds the nodes of enumerate_atoms."""
    return prod(o + 1 for o in support.orders)


def enumerate_atoms(support: SupportSet, budget: int | None = None) -> AtomSet:
    """All minimal nonempty zero-sum exponent vectors over the support.

    Exactly the minimal elements of {v != 0 : 0 <= v_g <= ord(g), sigma(v) = 0}
    under the componentwise order, sorted lexicographically.
    """
    # at most one node per grid point, each on masks |<S>| bits wide, a width
    # the codec measures before any mask is built; a grid over the budget is
    # refused before the codec is built, as grid x words >= grid
    bound, what = enumeration_bound(support), "grid size"
    if budget is not None and bound <= budget:
        bound *= -(-support.codec.width // 64)
        what = "grid size x 64-bit words per mask"
    if budget is not None and bound > budget:
        raise BudgetError(
            f"atom enumeration bound {format_bound(bound)} ({what}) exceeds "
            f"budget {format_bound(budget)}; raise the budget to proceed",
            bound=bound)

    k = len(support)
    atoms: list[SequenceVec] = []
    spans: list[int] = []  # the subgroups the suffixes from b on generate
    # one search per lowest position b, from one copy at b; atoms with lowest
    # position b sort before those with a lower one, so taking b from k - 1
    # down gives sorted atoms, and each suffix span extends the last
    for b in reversed(range(k)):
        spans.insert(0, support.span_mask((1 << k) - (1 << b)))
        zeros, one, bit = (0,) * b, (1,) + (0,) * (k - 1 - b), support.bits[b]
        found = _search(support.steps[b:], support.bits[b:], spans,
                        support.multiples(k - 1), one, bit, bit, 0)
        atoms += [SequenceVec._unchecked(support, zeros + v) for v in found]
    return AtomSet(support, tuple(atoms))


# The state of the empty mask (see `grow`): sigma = 0, PS = Q = {} and no
# positions.
EMPTY_STATE = (1, 0, 0, (), (), (), ())


def grow(support: SupportSet, state: tuple, pos: int) -> tuple | None:
    """The state of a support mask plus position `pos`, put first, from that
    of the mask.

    A state of a mask is (sigma, PS, Q) of its 0/1 vector, then, in the
    order the search walks them, the spans of its suffixes, its positions,
    their translation steps and their element bits; or None once a proper
    nonempty subset of the mask sums to 0, as then no atom has that mask,
    or any mask above it, as its support.  The sweep puts each position
    below the mask's.  Carried down a chain of masks, it makes each new
    entry cost one translation and one span join before the search."""
    sig, ps, q, spans, positions, steps, bits = state
    step, bit = support.steps[pos], support.bits[pos]
    if ps:
        for low, up, down in step:
            lo = q & low
            q = (lo << up) | ((q ^ lo) >> down)
            lo = sig & low
            sig = (lo << up) | ((sig ^ lo) >> down)
        q |= ps | bit
        if q & 1:
            return None
        span = spans[0]
    else:
        # the empty vector: g alone has no proper nonempty subsequence
        sig, q, span = bit, 0, 1
    return (sig, q | sig, q, (join_cyclic(span, step),) + spans,
            (pos,) + positions, (step,) + steps, (bit,) + bits)


def exact_entry(support: SupportSet, state: tuple) -> MaskAtoms | None:
    """The index entry of the nonempty support mask of `state`, built on
    demand: the atoms whose support is exactly that mask, as
    `AtomSet.mask_index` files them, or None where there is none."""
    sig, ps, q, spans, positions, steps, bits = state
    found = _search(steps, bits, spans, support.multiples(positions[-1]),
                    (1,) * len(positions), sig, ps, q)
    return MaskAtoms(support, positions, found) if found else None
