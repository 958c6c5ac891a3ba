"""Enumeration of the minimal zero-sum sequences (atoms) over a support set.

An exponent vector w over some support positions carries two sets:

    sigma(w), its sum,
    PS(w) = sums of all nonempty subsequences of w.

w is zero-sum free iff 0 is not in PS(w), and an atom iff sigma(w) = 0 and
no proper nonempty subsequence of w sums to 0.  The translation step adds
one copy of g to w:

    PS(wg) = PS(w) | (PS(w) + g) | {g},    sigma(wg) = sigma(w) + g,

with | for union and X + g = {x + g : x in X}; the empty vector has
sigma = 0 and PS empty.  The zero-sum test comes before the step: for v
zero-sum free and g != 0, 0 is in PS(vg) iff -g is in PS(v), since 0 is
not in PS(v), 0 = x + g iff x = -g, and g != 0.  So raising an exponent of
a zero-sum-free vector one copy at a time stops before the first copy
whose PS would hold 0, when -g is in PS, and no copy that fails is ever
translated; the chain never passes ord(g) - 1 copies, as -g is the
(ord(g) - 1)-th multiple of g.

The solved-position lemma.  Let v be zero-sum free over the positions of a
mask M, and b a position outside M with element g.  Some g^c v, c >= 1, sums
to 0 only for c = c(v), the one c in [1, ord(g)) with c*g = -sigma(v) (none
when sigma(v) is not in <g>), and g^c v is an atom iff PS(v) misses
N_c = {-g, -2g, ..., -(c-1)g}.  Proof: a proper nonempty subsequence is
g^i v', v' a subsequence of v, 0 <= i <= c.  With v' empty it sums to
i*g != 0, as 0 < i <= c < ord(g); with i = 0 its sum lies in PS(v); with
i = c, v' is proper and the sum is minus that of the rest of v.  That
leaves v' nonempty and 0 < i < c, where the sum is 0 iff sigma(v') = -i*g,
and some such choice is iff PS(v) meets N_c.  Conversely every atom whose
support is exactly b plus M is such a g^c v, v its part over M, a proper
subsequence of an atom and so zero-sum free.  So `child_entry` reads those
atoms off M's zero-sum-free vectors with one lookup in the table of the
nonzero multiples of g (`SupportSet.multiples`: sigma -> (c, the mask of
N_c)) and one AND per vector.

`enumerate_atoms` walks the tree of position masks in which a mask's
parent drops its lowest position.  Each mask M it enters carries ZF(M): its
zero-sum-free vectors, each exponent at least 1, each with its sigma, PS
and scaled cross number n k(v) = sum W_i v_i (the support's `cross_scale`),
built from its parent's by raising the new position's exponent of each
vector one copy at a time, one chain per vector, adding W_b to n k with
each copy (`zero_sum_free`), and kept only where sigma lies in the span
of the positions below M's lowest, the only sums a position added below can
cancel.  Each child b plus M, b below M, gets the entry `child_entry` reads
off ZF(M), and is entered when its own list is nonempty: a mask with no
zero-sum-free vector has no mask below it in the tree with an atom of its
own.  The root is the empty mask, whose one zero-sum-free vector is the
empty vector (`EMPTY_ZF`): raising position b from it gives the powers
g_b^c, c < ord(g_b), and its child b has the one atom g_b^ord(g_b).  Every
mask is formed once, so the entries it gets are the index
`AtomSet.mask_index`, each (`MaskAtoms`) holding exponent tuples over the
mask's positions, never a k-tuple, with cross numbers scaled to integers by
the support's `cross_scale`: n k(g_b^c v) = n k(v) + c W_b, read off the
carried n k(v) with no dot product.  The half-factorial, LCN and minimality
flags, min Delta, the Davenport constant and the largest cross number are
read off the index.  The whole-group sweep walks the same tree with the
same two steps and prunes it.  The brute-force grid filter and the walk
that raised one exponent at a time from the empty vector, in the test
suite, anchor both.

The sets are bitmasks.  Every subsequence sum lies in the subgroup <S> that
the support generates; the support's codec (`_Span` in `sequences`) numbers
the elements of <S> 0 .. |<S>| - 1, and PS and sigma are Python ints with
one bit per element of <S>.  sigma is a single set bit, and sigma = 0 is
bit 0.  Translating a set by g takes one masked shift pair per nonzero
digit of g: the positions whose digit does not wrap move up, the others
move down.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

from .errors import BudgetError, ContractError, format_bound
from .sequences import SequenceVec, SupportSet

# the zero-sum-free vectors of the empty mask: the empty vector alone, with
# sigma = 0 (bit 0), PS empty and cross number 0
EMPTY_ZF = ((1, 0, (), 0),)


class MaskAtoms:
    """The atoms with one support mask, from nonempty `vectors`, each atom's
    exponents at the mask's positions, the first the lowest: kept as they
    are, beside `above`, the positions after the first; their cross numbers
    n k(A), on the support's scale n (`scaled`, in the same order); whether
    some has k(A) != 1 (`nonunit`) or k(A) < 1 (`light`)."""

    __slots__ = ("above", "vectors", "scaled", "nonunit", "light")

    def __init__(self, n: int, above: tuple[int, ...],
                 vectors: list[tuple[int, ...]], scaled: list[int]):
        self.above = above
        self.vectors = vectors
        self.scaled = scaled
        self.light = min(scaled) < n
        self.nonunit = self.light or max(scaled) > n


@dataclass(frozen=True, eq=False)
class AtomSet:
    """All atoms over a support set, filed by support mask, bit i standing
    for position i: each mask that is the support of some atom maps to the
    entry of the atoms with exactly that support."""

    support: SupportSet
    mask_index: dict[int, MaskAtoms]

    def __len__(self) -> int:
        return sum(len(entry.vectors) for entry in self.mask_index.values())

    def __iter__(self):
        return iter(self.atoms)

    @cached_property
    def atoms(self) -> tuple[SequenceVec, ...]:
        """The atoms as exponent vectors over the whole support, in
        lexicographic order."""
        k = len(self.support)
        found = []
        for mask, entry in self.mask_index.items():
            positions = ((mask & -mask).bit_length() - 1, *entry.above)
            for vec in entry.vectors:
                exps = [0] * k
                for i, v in zip(positions, vec):
                    exps[i] = v
                found.append(tuple(exps))
        found.sort()
        return tuple(SequenceVec._unchecked(self.support, v) for v in found)

    @cached_property
    def cross_numbers(self) -> tuple[Fraction, ...]:
        return tuple(a.cross_number() for a in self.atoms)

    def davenport_constant(self) -> int:
        """Maximal atom length."""
        if not self.mask_index:
            raise ContractError("Davenport constant of an empty atom set")
        return max(sum(vec) for entry in self.mask_index.values()
                   for vec in entry.vectors)

    def cross_number(self) -> Fraction:
        """Maximal cross number over the atoms."""
        if not self.mask_index:
            raise ContractError("cross number of an empty atom set")
        return Fraction(max(max(entry.scaled) for entry in self.mask_index.values()),
                        self.support.cross_scale[0])


def enumeration_bound(support: SupportSet) -> int:
    """Grid size prod(ord(g)+1): every vector `enumerate_atoms` builds,
    zero-sum free or an atom, is a distinct point of that grid, built once."""
    return prod(o + 1 for o in support.orders)


def enumerate_atoms(support: SupportSet, budget: int | None = None) -> AtomSet:
    """All minimal nonempty zero-sum exponent vectors over the support, filed
    by support mask.

    Exactly the minimal elements of {v != 0 : 0 <= v_g <= ord(g), sigma(v) = 0}
    under the componentwise order.
    """
    # at most one vector per grid point, each on masks |<S>| bits wide, a
    # width the codec measures before any mask is built; a grid over the
    # budget is refused before the codec is built, as grid x words >= grid
    bound, what = enumeration_bound(support), "grid size"
    if budget is not None and bound <= budget:
        bound *= -(-support.codec.width // 64)
        what = "grid size x 64-bit words per mask"
    if budget is not None and bound > budget:
        raise BudgetError(
            f"atom enumeration bound {format_bound(bound)} ({what}) exceeds "
            f"budget {format_bound(budget)}; raise the budget to proceed",
            bound=bound)

    prefix = support.prefix_spans
    index: dict[int, MaskAtoms] = {}

    def walk(mask: int, low: int, positions: tuple[int, ...], zf):
        # the children b plus `mask`, b below its lowest position `low` (k
        # at the root), from its zero-sum-free vectors
        for b in range(low):
            child = mask | 1 << b
            entry = child_entry(support, zf, b, positions)
            if entry is not None:
                index[child] = entry
            if b:  # a mask with position 0 has no children
                below = zero_sum_free(support, zf, b, prefix[b])
                if below:
                    walk(child, b, (b, *positions), below)

    walk(0, len(support), (), EMPTY_ZF)
    return AtomSet(support, index)


def child_entry(support: SupportSet, zf: Sequence, b: int,
                positions: tuple[int, ...]) -> MaskAtoms | None:
    """The index entry of a mask plus a position b outside it: the atoms
    whose support is exactly b and the mask's `positions`, read off the
    mask's zero-sum-free vectors `zf` (see `zero_sum_free`), or None where
    there is none.

    Each such atom is g_b^c v with v in zf, and v decides c and whether
    g_b^c v is an atom: the solved-position lemma, one lookup and one AND
    per v; its cross number n k(g_b^c v) is n k(v) + c W_b.  Over the empty
    mask the one atom is g_b^ord(g_b), with n k = n."""
    n, weights = support.cross_scale
    if not positions:
        return MaskAtoms(n, (), [(support.orders[b],)], [n])
    table = support.multiples(b)
    weight = weights[b]
    found = []
    for sig, ps, vec, nk in zf:
        hit = table.get(sig)
        if hit is not None and not ps & hit[1]:
            c = hit[0]
            found.append(((c,) + vec, nk + c * weight))
    if not found:
        return None
    # the exponent tuples are distinct, so the pairs sort by them alone
    found.sort()
    return MaskAtoms(n, positions, [vec for vec, _ in found],
                     [nk for _, nk in found])


def zero_sum_free(support: SupportSet, zf: Sequence, b: int,
                  span: int) -> list:
    """The zero-sum-free vectors of a mask plus a position b outside it, from
    those of the mask, `zf`, kept only where sigma lies in the subgroup
    `span`.

    The zero-sum-free vectors of a mask are its exponent vectors v, each
    exponent at least 1, with 0 not in PS(v); each is (sigma, PS, the
    exponents at the mask's positions, the last one added first, n k(v) =
    sum W_i v_i on the support's scale n).  The empty mask has one, the
    empty vector (`EMPTY_ZF`).  Each vector of the new mask is g_b^c v with
    c >= 1 and v zero-sum free over the mask, so it is reached by raising
    b's exponent of some v in `zf` one copy at a time, the translation step;
    the chain of each v stops before the copy that would put 0 in PS, which
    is the first one with -g_b in PS (see the module docstring).  The list
    holds each v's chain in turn, c ascending, in the order of `zf`.  The
    walk and the sweep put b below the mask and pass the span of the
    positions below b (`SupportSet.prefix_spans`): only a sigma there can a
    later position cancel.  The filter drops nothing a later step needs: if
    g_b^c v has sigma in the span below b, sigma(v) lies in the span of the
    positions up to b, all below the mask, so v passed the mask's own
    filter."""
    steps, bit = support.steps[b], support.bits[b]
    # the bit of -g_b: each nonzero digit t of g_b, radix m and stride s, is
    # m - t in -g_b, and the step of that digit shifts down by (m - t)*s
    neg = 1 << sum(down for _, _, down in steps)
    weight = support.cross_scale[1][b]
    out = []
    for sig, ps, vec, nk in zf:
        c = 0
        while not ps & neg:
            moved = ps
            for low, up, down in steps:
                lo = moved & low
                moved = (lo << up) | ((moved ^ lo) >> down)
                lo = sig & low
                sig = (lo << up) | ((sig ^ lo) >> down)
            ps |= moved | bit
            c += 1
            nk += weight
            if sig & span:
                out.append((sig, ps, (c,) + vec, nk))
    return out
