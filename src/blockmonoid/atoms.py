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
subgroup <S> that the support generates; `_Span` gives <S> mixed-radix
coordinates as a product of cyclic groups, read off a diagonal form of the
support's coordinate matrix, so its elements are numbered 0 .. |<S>| - 1.
PS, Q, sigma and the suffix spans H are Python ints with one bit per element
of <S>.  sigma is a single set bit, and sigma = 0 is bit 0.  Translating a
set by g takes one masked shift pair per nonzero digit of g: the positions
whose digit does not wrap move up, the others move down.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

from .errors import BudgetError, ContractError
from .groups import Element, FiniteAbelianGroup
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

    @cached_property
    def _by_exponents(self) -> dict[tuple[int, ...], int]:
        return {a.exponents: j for j, a in enumerate(self.atoms)}

    def contains_vector(self, exponents) -> bool:
        return tuple(exponents) in self._by_exponents

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

    @cached_property
    def support_masks(self) -> tuple[int, ...]:
        """Per atom, the bitmask of the support positions it uses."""
        out = []
        for a in self.atoms:
            mask = 0
            for i, c in enumerate(a.exponents):
                if c:
                    mask |= 1 << i
            out.append(mask)
        return tuple(out)

    def restrict(self, subset: SupportSet) -> "AtomSet":
        """Atoms supported inside a subset of the support, re-indexed to it.

        Valid because a zero-sum sequence over the subset is minimal there
        iff it is minimal over the larger support.
        """
        positions = [self.support.position(g) for g in subset.elements]
        inside = sum(1 << i for i in positions)
        picked = sorted(tuple(a.exponents[i] for i in positions)
                        for a, mask in zip(self.atoms, self.support_masks)
                        if not mask & ~inside)
        return AtomSet(subset, tuple(SequenceVec._unchecked(subset, v)
                                     for v in picked))


def enumeration_bound(support: SupportSet) -> int:
    """Grid size prod(ord(g)+1), the budget measure for enumerate_atoms."""
    return prod(o + 1 for o in support.orders)


def _diagonalize(matrix) -> tuple[list[list[int]], list[int]]:
    """(P, d) with P unimodular and P A Q = diag(d) for some unimodular Q.

    A is an integer r x m matrix of rank r, given as rows.  Each pivot is a
    least nonzero entry, and Euclid steps by row and column operations clear
    its row and column; only the row operations are recorded.  The column
    lattice of A is {P^-1 y : d_j | y_j}.
    """
    a = [list(row) for row in matrix]
    r = len(a)
    p = [[int(i == j) for j in range(r)] for i in range(r)]
    diag = []
    for t in range(r):
        # rows above t are already zero from column t on
        while True:
            _, i, j = min((abs(x), i, j) for i in range(t, r)
                          for j, x in enumerate(a[i][t:], t) if x)
            a[t], a[i] = a[i], a[t]
            p[t], p[i] = p[i], p[t]
            for row in a[t:]:
                row[t], row[j] = row[j], row[t]
            pivot = a[t][t]
            clear = True
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // pivot
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    p[i] = [x - q * y for x, y in zip(p[i], p[t])]
                    clear = clear and not a[i][t]
            for j in range(t + 1, len(a[t])):
                if a[t][j]:
                    q = a[t][j] // pivot
                    for row in a[t:]:
                        row[j] -= q * row[t]
                    clear = clear and not a[t][j]
            if clear:
                break
        if pivot < 0:
            p[t] = [-x for x in p[t]]
        diag.append(abs(pivot))
    return p, diag


class _Span:
    """Mixed-radix coordinates on the subgroup <S> generated by a support.

    Scaling component c by e/n_c, e = exp(G), embeds G in (Z/e)^r; the
    preimage of <S> in Z^r is the column lattice of A = [scaled generators |
    e*I].  With P A Q = diag(d), y = P x carries that lattice onto the
    product of the d_j Z, so digit j of x in <S> is (P x)_j / d_j in radix
    m_j = e/d_j, and the digits give an isomorphism of <S> onto the product
    of the Z/m_j.  Digits with m_j = 1 are dropped; the last digit is least
    significant.  The width, prod m_j bits, is |<S>|.  A set of elements of
    <S> is an int mask with bit `encode(x)` set for each member.
    """

    def __init__(self, group: FiniteAbelianGroup, gens):
        e = group.exponent
        scale = [e // n for n in group.orders]
        r = len(scale)
        p, diag = _diagonalize(
            [[g[c] * scale[c] for g in gens] + [e * (c == j) for j in range(r)]
             for c in range(r)])
        kept = [(row, d) for row, d in zip(p, diag) if d < e]
        self.radices = tuple(e // d for _, d in kept)
        strides = []
        width = 1
        for m in reversed(self.radices):
            strides.append(width)
            width *= m
        self.strides = tuple(reversed(strides))
        self.width = width
        # digit j reads row j of P on the unscaled coordinates, kept as its
        # nonzero (c, weight) terms; reducing a weight mod e keeps (P x)_j
        # mod e, hence the digit
        rows = []
        for (row, d), stride in zip(kept, self.strides):
            weights = [w * s % e for w, s in zip(row, scale)]
            terms = tuple((c, w) for c, w in enumerate(weights) if w)
            rows.append((terms, d, e // d, stride))
        self._digit_rows = tuple(rows)

    def encode(self, x: Element) -> int:
        code = 0
        for terms, d, m, stride in self._digit_rows:
            y = 0
            for c, w in terms:
                y += w * x[c]
            code += y // d % m * stride
        return code

    def encode_set(self, elements) -> int:
        bits = bytearray((self.width + 7) // 8)
        for x in elements:
            code = self.encode(x)
            bits[code >> 3] |= 1 << (code & 7)
        return int.from_bytes(bits, "little")

    def translation(self, g: Element) -> tuple[tuple[int, int, int], ...]:
        """Steps (low mask, up shift, down shift), one per nonzero digit of g.

        Applying every step as `lo = mask & low;
        mask = (lo << up) | ((mask ^ lo) >> down)` translates a mask by g:
        digit t of radix m and stride s moves the positions with digit < m - t
        up by t*s and the rest down by (m - t)*s. The low mask is one block
        pattern, (m - t)*s set bits out of every m*s, copied across the
        width by doubling.
        """
        code = self.encode(g)
        steps = []
        for m, s in zip(self.radices, self.strides):
            t = code // s % m
            if t:
                block = m * s
                low, copies = (1 << ((m - t) * s)) - 1, 1
                while copies * block < self.width:
                    low |= low << (copies * block)
                    copies *= 2
                steps.append((low & ((1 << self.width) - 1), t * s,
                              (m - t) * s))
        return tuple(steps)


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

    group = support.group
    k = len(support)
    gens = support.elements
    ords = support.orders
    span = _Span(group, gens)
    steps = [span.translation(g) for g in gens]
    gbits = [1 << span.encode(g) for g in gens]

    # subgroup generated by the support suffix starting at each position
    suffix_span = [span.encode_set(group.subgroup_closure(gens[i:]))
                   for i in range(k)]
    suffix_span.append(1)

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
