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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

from .errors import BudgetError, ContractError
from .sequences import SequenceVec, SupportSet


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

    def davenport_constant(self) -> int:
        """Maximal atom length."""
        if not self.atoms:
            raise ContractError("Davenport constant of an empty atom set")
        return max(a.length for a in self.atoms)

    def cross_number(self) -> Fraction:
        """Maximal cross number over the atoms."""
        if not self.atoms:
            raise ContractError("cross number of an empty atom set")
        return max(self.cross_numbers)


def enumeration_bound(support: SupportSet) -> int:
    """Grid size prod(ord(g)+1), the budget measure for enumerate_atoms."""
    return prod(o + 1 for o in support.orders)


def enumerate_atoms(support: SupportSet, budget: int | None = None) -> AtomSet:
    """All minimal nonempty zero-sum exponent vectors over the support.

    Exactly the minimal elements of {v != 0 : 0 <= v_g <= ord(g), sigma(v) = 0}
    under the componentwise order, sorted lexicographically.
    """
    bound = enumeration_bound(support)
    if budget is not None and bound > budget:
        raise BudgetError(
            f"atom enumeration bound {bound} exceeds budget {budget}; "
            f"raise the budget to proceed", bound=bound)

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
