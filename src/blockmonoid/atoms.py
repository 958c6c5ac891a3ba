"""Enumeration of the minimal zero-sum sequences (atoms) over a support set.

The enumerator is a depth-first search over support positions in fixed order,
adding one copy of an element at a time.  Along the branch it maintains two
sets of group elements:

    PS(w) = sums of all nonempty subsequences of the partial vector w,
    Q(w)  = sums of all proper nonempty subsequences of w.

Adding one copy of g updates them as

    Q(wg)  = PS(w) | (Q(w) + g) | {g},
    PS(wg) = Q(wg) | {sigma(w) + g},

with | for union and X + g = {x + g : x in X}.

A branch is abandoned as soon as 0 lands in Q(w): the partial selection then
contains a proper nonempty zero-sum subsequence, so no extension can be
minimal.  A vector w with sigma(w) = 0 and 0 not in Q(w) is exactly an atom,
so minimality is certified by the search state itself; the brute-force grid
filter in the test suite anchors this equivalence on small supports.

Two further prunings: exponents are capped at ord(g) (an atom with
v_g > ord(g) would contain g^{ord(g)} properly), and a branch dies when the
current deficit -sigma(w) is not reachable from the remaining support
positions (it lies outside the subgroup H they generate).  Since H is a
subgroup, -sigma(w) lies in H exactly when sigma(w) does, so the test needs
no negation.

The branch state is held in bitmasks.  Every subsequence sum lies in the
subgroup <S> that the support generates; the support's codec (`_Span` in
`sequences`) numbers the elements of <S> 0 .. |<S>| - 1, and PS, Q and sigma
are Python ints with one bit per element of <S>.  sigma is a single set bit,
and sigma = 0 is bit 0.  Translating a set by g takes one masked shift pair
per nonzero digit of g: the positions whose digit does not wrap move up, the
others move down.  The suffix spans H come from the support's memoized table
of subgroup masks, `SupportSet.span_mask`.

An `AtomSet` files its atoms by support mask (`mask_index`), with cross
numbers scaled to integers by the common multiple of the support's orders.
The half-factorial, LCN and minimality flags and the largest cross number
are read off it.

`ExactSupportAtoms` builds one entry of that index on its own: the atoms
whose support is exactly a given mask, by the same search restricted to
the positions of the mask, on the same codec, with every exponent at least
1.  Such an atom contains each element of the mask once, so the search
starts from the 0/1 vector of the mask, whose state (with the spans of the
mask's suffixes, for the deficit test) the caller supplies, and only raises
exponents.  When a proper nonempty subset of the mask sums
to 0, that state already has 0 in Q and no atom has the mask as its
support.  The whole-group sweep builds the entry of each subset it forms
this way and never enumerates the atoms of the whole group.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod

from .errors import BudgetError, ContractError
from .sequences import SequenceVec, SupportSet, join_cyclic


class MaskAtoms:
    """The atoms with one support mask: their exponent tuples (`atoms`),
    cross numbers scaled to integers (`scaled`, in the same order), whether
    some has k(A) != 1 (`nonunit`) or k(A) < 1 (`light`), and the sparse form
    the sweep reads, built on first use: where the sweep saturates early, as
    in prime cyclic groups, it never looks most masks up."""

    __slots__ = ("atoms", "scaled", "sparse", "nonunit", "light")

    def __init__(self):
        self.atoms: list[tuple[int, ...]] = []
        self.scaled: list[int] = []
        self.sparse: list | None = None
        self.nonunit = self.light = False

    def sparse_atoms(self, b: int) -> list:
        """Each atom A as (A_b, the pairs (i, A_i) with i > b and A_i != 0),
        b being the lowest support position, so A_b >= 1."""
        if self.sparse is None:
            self.sparse = [
                (exps[b], [(i, c) for i, c in enumerate(exps[b + 1:], b + 1) if c])
                for exps in self.atoms]
        return self.sparse


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
    def exponent_matrix(self) -> tuple[tuple[int, ...], ...]:
        """|G0| x |atoms| matrix; column j is the exponent vector of atom j."""
        return tuple(
            tuple(a.exponents[i] for a in self.atoms)
            for i in range(len(self.support)))

    @cached_property
    def cross_numbers(self) -> tuple[Fraction, ...]:
        return tuple(a.cross_number() for a in self.atoms)

    @cached_property
    def mask_index(self) -> dict[int, MaskAtoms]:
        """The atoms grouped by support mask, bit i standing for position i."""
        # k(A) = sum c_i / ord(g_i), times the common multiple n of the orders
        orders = self.support.orders
        n = lcm(*orders)
        weights = [n // o for o in orders]
        index: dict[int, MaskAtoms] = {}
        for a in self.atoms:
            exps = a.exponents
            mask = scaled = 0
            for i, c in enumerate(exps):
                if c:
                    mask |= 1 << i
                    scaled += c * weights[i]
            entry = index.get(mask)
            if entry is None:
                entry = index[mask] = MaskAtoms()
            entry.atoms.append(exps)
            entry.scaled.append(scaled)
            entry.nonunit = entry.nonunit or scaled != n
            entry.light = entry.light or scaled < n
        return index

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
                        lcm(*self.support.orders))


def enumeration_bound(support: SupportSet) -> int:
    """Grid size prod(ord(g)+1), which bounds the nodes of enumerate_atoms."""
    return prod(o + 1 for o in support.orders)


def enumerate_atoms(support: SupportSet, budget: int | None = None) -> AtomSet:
    """All minimal nonempty zero-sum exponent vectors over the support.

    Exactly the minimal elements of {v != 0 : 0 <= v_g <= ord(g), sigma(v) = 0}
    under the componentwise order, sorted lexicographically.
    """
    # at most one node per grid point, each on masks |<S>| bits wide, a width
    # the codec measures before any mask is built
    bound = enumeration_bound(support) * -(-support.codec.width // 64)
    if budget is not None and bound > budget:
        raise BudgetError(
            f"atom enumeration bound {bound} (grid size x 64-bit words per mask) "
            f"exceeds budget {budget}; raise the budget to proceed", bound=bound)

    k = len(support)
    ords = support.orders
    steps = support.steps
    codec = support.codec
    gbits = [1 << codec.encode(g) for g in support.elements]

    # subgroup generated by the support suffix starting at each position,
    # built from the shortest suffix up so each step extends the last
    full = (1 << k) - 1
    suffix_span = [1] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix_span[i] = support.span_mask(full ^ ((1 << i) - 1))

    found: list[tuple[int, ...]] = []
    # frame: (position, exponent vector, sigma, PS, Q); sets as masks over <S>
    stack = [(0, (0,) * k, 1, 0, 0)]
    while stack:
        pos, vec, sig, ps, q = stack.pop()
        if sig == 1 and ps:
            if not q & 1:
                found.append(vec)
            continue  # any extension would contain this zero-sum properly
        if pos == k:
            continue
        if not suffix_span[pos] & sig:
            continue  # the deficit cannot be repaired from here on
        stack.append((pos + 1, vec, sig, ps, q))
        if vec[pos] < ords[pos]:
            # translations by g, written out: a helper call per translation
            # costs about a quarter of the search time
            shift = steps[pos]
            if ps:
                qg = q
                for low, up, down in shift:
                    lo = qg & low
                    qg = (lo << up) | ((qg ^ lo) >> down)
                q2 = ps | qg | gbits[pos]
                if q2 & 1:
                    continue
            else:
                q2 = 0
            sig2 = sig
            for low, up, down in shift:
                lo = sig2 & low
                sig2 = (lo << up) | ((sig2 ^ lo) >> down)
            vec2 = vec[:pos] + (vec[pos] + 1,) + vec[pos + 1:]
            stack.append((pos, vec2, sig2, q2 | sig2, q2))

    found.sort()
    return AtomSet(support, tuple(SequenceVec._unchecked(support, v)
                                 for v in found))


class ExactSupportAtoms:
    """The index entry of one support mask of a support set, built on demand:
    the atoms whose support is exactly that mask, as `AtomSet.mask_index`
    files them, or None where there is none.

    A state of a mask is (sigma, PS, Q) of its 0/1 vector and the tuple of
    the spans of its suffixes, item i the span of its positions from the
    i-th lowest on; or None once a proper nonempty subset of the mask sums to 0, since then no
    atom has that mask, or any mask above it, as its support.  The empty
    mask's state is `EMPTY_STATE`.  A caller that adds positions one at a
    time, each below the last, carries the state along (`grow`), so the
    entry of its new mask costs one translation and one span join before
    the search."""

    EMPTY_STATE = (1, 0, 0, ())

    __slots__ = ("gbits", "steps", "orders", "n", "weights")

    def __init__(self, support: SupportSet):
        codec = support.codec
        self.gbits = [1 << codec.encode(g) for g in support.elements]
        self.steps = support.steps
        self.orders = support.orders
        self.n = lcm(*self.orders)
        self.weights = [self.n // o for o in self.orders]

    def grow(self, state: tuple, pos: int) -> tuple | None:
        """The state of a mask plus position `pos`, below all of its
        positions, from that of the mask."""
        sig, ps, q, spans = state
        steps = self.steps[pos]
        if ps:
            for low, up, down in steps:
                lo = q & low
                q = (lo << up) | ((q ^ lo) >> down)
                lo = sig & low
                sig = (lo << up) | ((sig ^ lo) >> down)
            q |= ps | self.gbits[pos]
            if q & 1:
                return None
            span = spans[0]
        else:
            # the empty vector: g alone has no proper nonempty subsequence
            sig, q, span = self.gbits[pos], 0, 1
        return sig, q | sig, q, (join_cyclic(span, steps),) + spans

    def entry(self, mask: int, state: tuple) -> MaskAtoms | None:
        """The atoms with support exactly `mask`, given its state."""
        positions = []
        rest = mask
        while rest:
            low = rest & -rest
            positions.append(low.bit_length() - 1)
            rest ^= low
        m = len(positions)
        steps = [self.steps[p] for p in positions]
        sig, ps, q, spans = state
        # the span of the positions from the i-th on, and {0} past the last
        spans += (1,)

        found: list[tuple[int, ...]] = []
        # frame: (index into positions, exponents there, sigma, PS, Q); a
        # frame is pushed only while 0 is not in Q
        stack = [(0, (1,) * m, sig, ps, q)]
        while stack:
            i, vec, sig, ps, q = stack.pop()
            if sig == 1:
                found.append(vec)
                continue
            if not spans[i] & sig:
                continue  # the deficit cannot be repaired from here on
            stack.append((i + 1, vec, sig, ps, q))
            # no exponent cap: ord(g) copies of g beside another element put
            # 0 in Q, and with g alone they are the atom itself; and no
            # "| {g}", as every element of the mask is already in PS
            for low, up, down in steps[i]:
                lo = q & low
                q = (lo << up) | ((q ^ lo) >> down)
                lo = sig & low
                sig = (lo << up) | ((sig ^ lo) >> down)
            q |= ps
            if not q & 1:
                stack.append((i, vec[:i] + (vec[i] + 1,) + vec[i + 1:],
                              sig, q | sig, q))
        if not found:
            return None

        found.sort()
        n = self.n
        weights = [self.weights[p] for p in positions]
        out = MaskAtoms()
        full = [0] * len(self.orders)
        for vec in found:
            scaled = 0
            for p, c, w in zip(positions, vec, weights):
                full[p] = c
                scaled += c * w
            out.atoms.append(tuple(full))
            out.scaled.append(scaled)
            out.nonunit = out.nonunit or scaled != n
            out.light = out.light or scaled < n
        return out
