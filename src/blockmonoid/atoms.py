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

The whole-group sweep builds the entries of that index itself, one mask at
a time, and never enumerates the atoms of the whole group.  It carries, for
each mask M it descends into, M's zero-sum-free vectors ZF(M): the exponent
vectors v over M's positions, each exponent at least 1, with 0 neither in
Q(v) nor sigma(v), each with its sigma, PS and Q.  An atom whose support is
exactly b plus M, for b outside M, is g_b^c v with v in ZF(M), and the
lemma of the solved last position, with b in its place, decides c and
whether g_b^c v is an atom, from sigma(v) and PS(v) alone (`child_entry`).
ZF(b plus M) comes from ZF(M) by raising b's exponent of each v one copy at
a time, the search's own translation step (`zero_sum_free`).  The sweep
puts b below M and keeps a vector only where sigma lies in the span of the
positions below b, the only sums that a later position below can cancel.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import mul

from .errors import BudgetError, ContractError, format_bound
from .sequences import SequenceVec, SupportSet


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


def child_entry(support: SupportSet, zf: list | None, b: int,
                positions: tuple[int, ...]) -> MaskAtoms | None:
    """The index entry of a mask plus a position b outside it: the atoms
    whose support is exactly b and the mask's `positions`, read off the
    mask's zero-sum-free vectors `zf` (see `zero_sum_free`; None for the
    empty mask), or None where there is none.

    Each such atom is g_b^c v with v in zf, and v decides c and whether
    g_b^c v is an atom: the lemma of the solved last position, with b in
    place of that position, one lookup and one AND per v."""
    if zf is None:
        return MaskAtoms(support, (b,), [(support.orders[b],)])
    table = support.multiples(b)
    found = []
    for sig, ps, _, vec in zf:
        hit = table.get(sig)
        if hit is not None and not ps & hit[1]:
            found.append((hit[0],) + vec)
    if not found:
        return None
    found.sort()
    return MaskAtoms(support, (b,) + positions, found)


def zero_sum_free(support: SupportSet, zf: list | None, b: int,
                  span: int) -> list:
    """The zero-sum-free vectors of a mask plus a position b outside it, from
    those of the mask, `zf` (None for the empty mask), kept only where sigma
    lies in the subgroup `span`.

    The zero-sum-free vectors of a mask are its exponent vectors v, each
    exponent at least 1, with 0 not in Q(v) and sigma(v) != 0, so 0 is not
    in PS(v); each is (sigma, PS, Q, the exponents at the mask's positions,
    the last one added first), and the list is sorted by exponents.  Each
    vector of the new mask is g_b^c v with c >= 1 and v zero-sum free over
    the mask, so it is reached by raising b's exponent of some v in `zf`
    one copy at a time, the translation step of the search, until 0 lands
    in Q or sigma is 0.  The sweep puts b below the mask and passes the
    span of the positions below b: only a sigma there can a later position
    cancel.  The filter drops nothing a later step needs: if g_b^c v has
    sigma in the span below b, sigma(v) lies in the span of the positions
    up to b, all below the mask, so v passed the mask's own filter."""
    steps, bit = support.steps[b], support.bits[b]
    out = []
    if zf is None:
        # the powers g^c, c < ord(g), where Q(g^c) = PS(g^(c - 1))
        sig, ps, q, c = bit, bit, 0, 1
        while sig != 1:
            if sig & span:
                out.append((sig, ps, q, (c,)))
            q = ps
            for low, up, down in steps:
                lo = sig & low
                sig = (lo << up) | ((sig ^ lo) >> down)
            ps = q | sig
            c += 1
        return out
    # one copy more per round, so the vectors come out sorted
    level, c = zf, 0
    while level:
        c += 1
        raised = []
        for sig, ps, q, vec in level:
            for low, up, down in steps:
                lo = q & low
                q = (lo << up) | ((q ^ lo) >> down)
                lo = sig & low
                sig = (lo << up) | ((sig ^ lo) >> down)
            q |= ps | bit
            if not q & 1 and sig != 1:
                raised.append((sig, q | sig, q, vec))
        level = raised
        out += [(sig, ps, q, (c,) + vec) for sig, ps, q, vec in raised
                if sig & span]
    return out
