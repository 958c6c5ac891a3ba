"""Sequences over a finite set of nonzero group elements, as exponent vectors.

A `SupportSet` also answers every question about what a sub-family of its
elements spans.  `_Span` gives the subgroup <S> that the whole support
generates mixed-radix coordinates, read off a diagonal form mod exp(G) of
the support's coordinate matrix, so its elements are numbered
0 .. |<S>| - 1 and a set of elements of <S> is a Python int with one bit per
element.  The subgroup
spanned by the elements at a set of positions T (a bitmask over positions) is
`span_mask(T)`, built from H = span_mask(T minus its highest position i) by
OR-ing the cosets H + t*g_i until a translate contains 0 again; the table is
memoized per support, and the spans of the prefixes (`prefix_spans`) are
its entries for the masks 2^b - 1.  Then |<T>| is `span_mask(T).bit_count()`,
g in <T> is one AND with the bit of g (`in_span`), and T is independent iff
|<T>| is the product of the orders of its elements (`is_independent`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul

from .errors import ContractError
from .groups import Element, FiniteAbelianGroup


def _diagonalize(a: list[list[int]],
                 e: int) -> tuple[list[list[int]], list[int]]:
    """(P, d) with P invertible mod e and P A Q = diag(p) mod e for some Q
    invertible mod e, d_j = gcd(p_j, e).

    A is an r x m integer matrix, given as rows with entries in [0, e) and
    consumed: the lattice it stands for is its column lattice plus e*Z^r,
    whose columns are never built.  Each pivot is a least nonzero entry, and
    Euclid steps by row and column operations mod e clear its row and
    column (a remainder below the pivot is already reduced).  Each row
    carries its row of P after its m entries, so a row operation updates
    both; the column operations touch the entries alone.  Where every entry
    left is 0 the pivot is 0 and d_j = e.  The lattice is
    {P^-1 y : d_j | y_j} mod e.
    """
    r = len(a)
    m = len(a[0]) if a else 0
    for i, row in enumerate(a):
        row += [0] * i + [1] + [0] * (r - 1 - i)
    diag = []
    for t in range(r):
        # rows above t are already zero from column t on
        while True:
            pivot = 0
            for i in range(t, r):
                x = min(filter(None, a[i][t:m]), default=0)
                if x and (not pivot or x < pivot):
                    pivot, at = x, i
            if not pivot:
                break
            a[t], a[at] = a[at], a[t]
            top = a[t]
            j = top.index(pivot, t)
            for row in a[t:]:
                row[t], row[j] = row[j], row[t]
            clear = True
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // pivot
                    a[i] = row = [(x - q * y) % e for x, y in zip(a[i], top)]
                    clear = clear and not row[t]
            for j in range(t + 1, m):
                if top[j]:
                    q = top[j] // pivot
                    for row in a[t:]:
                        row[j] = (row[j] - q * row[t]) % e
                    clear = clear and not top[j]
            if clear:
                break
        diag.append(gcd(pivot, e))
    return [row[m:] for row in a], diag


class _Span:
    """Mixed-radix coordinates on the subgroup <S> generated by a support.

    Scaling component c by e/n_c, e = exp(G), embeds G in (Z/e)^r; the
    preimage of <S> in Z^r is the lattice L spanned by the scaled generators
    and e*Z^r.  `_diagonalize` works on the scaled generators mod e alone:
    with P invertible mod e and P A Q = diag(p) mod e, y = P x carries L/e*Z^r
    onto the product of the d_j Z/e*Z, d_j = gcd(p_j, e), so digit j of x in
    <S> is (P x)_j / d_j in radix m_j = e/d_j, and the digits give an
    isomorphism of <S> onto the product of the Z/m_j.  Digits with m_j = 1
    are dropped; the last digit is least significant.  The width, prod m_j
    bits, is |<S>|.  A set of elements of <S> is an int mask with bit
    `encode(x)` set for each member.
    """

    def __init__(self, group: FiniteAbelianGroup, gens):
        e = group.exponent
        scale = [e // n for n in group.orders]
        # a scaled coordinate g_c * e/n_c lies in [0, e) already
        p, diag = _diagonalize(
            [[g[c] * s for g in gens] for c, s in enumerate(scale)], e)
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

    def translation(self, code: int) -> tuple[tuple[int, int, int], ...]:
        """Steps (low mask, up shift, down shift), one per nonzero digit of
        the element g with `encode(g) == code`.

        Applying every step as `lo = mask & low;
        mask = (lo << up) | ((mask ^ lo) >> down)` translates a mask by g:
        digit t of radix m and stride s moves the positions with digit < m - t
        up by t*s and the rest down by (m - t)*s. The low mask is one block
        pattern, (m - t)*s set bits out of every m*s, copied across the
        width by doubling.
        """
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


@dataclass(frozen=True)
class SupportSet:
    """An ordered set of distinct nonzero elements; the order fixes exponent
    indexing.  Construction also sets `orders`, the order of each element,
    and `cross_scale`."""

    group: FiniteAbelianGroup
    elements: tuple[Element, ...]

    def __post_init__(self):
        elems = tuple(self.group.element(g) for g in self.elements)
        if any(not any(g) for g in elems):
            raise ContractError("support sets must not contain 0")
        index = {g: i for i, g in enumerate(elems)}
        if len(index) != len(elems):
            raise ContractError(f"support set has duplicate elements: {elems}")
        orders = tuple(self.group.order_of(g) for g in elems)
        n = lcm(*orders)
        # set as plain attributes, past the frozen __setattr__:
        # `cross_scale` is (n, W), n the least common multiple of the orders
        # and W_i = n / ord(g_i), so that n k(S) = sum W_i v_i is an
        # integer; `_multiples` and `_span_masks` are the memos of
        # `multiples` and `span_mask`
        vars(self).update(
            elements=elems, orders=orders, _index=index,
            cross_scale=(n, tuple(n // o for o in orders)),
            _multiples={}, _span_masks={0: 1})

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g) -> bool:
        return tuple(g) in self._index

    def position(self, g) -> int:
        try:
            return self._index[tuple(g)]
        except KeyError:
            raise ContractError(f"{tuple(g)} is not in the support set")

    # -- spans of sub-families, as bitmasks over <S> ------------------------------

    @cached_property
    def codec(self) -> _Span:
        """Mixed-radix coordinates on the span <S> of the whole support."""
        return _Span(self.group, self.elements)

    @cached_property
    def bits(self) -> tuple[int, ...]:
        """Per position, the mask of its element: one set bit over <S>."""
        encode = self.codec.encode
        return tuple(1 << encode(g) for g in self.elements)

    @cached_property
    def steps(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per position, the `_Span.translation` steps of its element."""
        translation = self.codec.translation
        return tuple(translation(bit.bit_length() - 1) for bit in self.bits)

    def multiples(self, i: int) -> dict[int, tuple[int, int]]:
        """The multiples t*g of the element g at position i, 0 < t < ord(g),
        each keyed by its bit and mapped to (ord(g) - t, the mask of the
        later multiples j*g, t < j < ord(g)).

        So for x != 0 in <g>, table[bit of x] = (c, N) with c the one c in
        [1, ord(g)) such that c*g = -x, and N = {-g, -2g, ..., -(c - 1)g}.
        Built once per position.
        """
        table = self._multiples.get(i)
        if table is not None:
            return table
        steps = self.steps[i]
        chain = []  # the bits of g, 2g, ..., (ord(g) - 1)g
        x = 1
        while True:
            for low, up, down in steps:
                lo = x & low
                x = (lo << up) | ((x ^ lo) >> down)
            if x == 1:
                break
            chain.append(x)
        table = self._multiples[i] = {}
        later = 0
        for c, x in enumerate(reversed(chain), 1):  # x = (ord(g) - c)g
            table[x] = (c, later)
            later |= x
        return table

    @cached_property
    def prefix_spans(self) -> tuple[int, ...]:
        """Per position b, the subgroup spanned by the positions below b,
        as a mask over <S>; the first is 1, the mask of {0}."""
        return tuple(self.span_mask((1 << b) - 1)
                     for b in range(len(self.elements)))

    def span_mask(self, positions: int) -> int:
        """The subgroup spanned by the elements at the set bits of
        `positions`, as a mask over <S>; span_mask(0) == 1, the mask of {0}.

        With i the highest position and H the span of the others, the result
        is the union of the cosets H + t*g_i for t = 0, 1, ...; the first
        translate that contains 0 is H again.  So each prefix span adds one
        such join to the one before it.
        """
        masks = self._span_masks
        span = masks.get(positions)
        if span is None:
            if positions < 0 or positions >> len(self.elements):
                raise ContractError(
                    f"position mask {positions} is outside the support")
            high = positions.bit_length() - 1
            span = coset = self.span_mask(positions ^ 1 << high)
            while True:
                for low, up, down in self.steps[high]:
                    lo = coset & low
                    coset = (lo << up) | ((coset ^ lo) >> down)
                if coset & 1:
                    break
                span |= coset
            masks[positions] = span
        return span

    def in_span(self, i: int, positions: int) -> bool:
        """Whether the element at position i lies in the span of `positions`."""
        return bool(self.span_mask(positions) & self.bits[i])

    def is_independent(self, positions: int) -> bool:
        """Whether the elements at `positions` are independent: the sum of
        their cyclic subgroups is direct exactly when its size is the
        product of their orders."""
        size = prod(o for i, o in enumerate(self.orders) if positions >> i & 1)
        return self.span_mask(positions).bit_count() == size


@dataclass(frozen=True)
class SequenceVec:
    """A sequence S over a support set, stored as its exponent vector.

    The all-zero vector is the empty sequence (the monoid identity);
    concatenation is exponent addition.
    """

    support: SupportSet
    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(v) for v in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) != len(self.support):
            raise ContractError(
                f"expected {len(self.support)} exponents, got {len(exps)}")
        if any(v < 0 for v in exps):
            raise ContractError(f"exponents must be >= 0, got {exps}")

    @classmethod
    def _unchecked(cls, support: SupportSet,
                   exponents: tuple[int, ...]) -> "SequenceVec":
        """Package-internal constructor that skips validation, for exponent
        tuples of ints that are valid by construction (the right length,
        no negative entry)."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "support", support)
        object.__setattr__(seq, "exponents", exponents)
        return seq

    @staticmethod
    def empty(support: SupportSet) -> "SequenceVec":
        return SequenceVec(support, (0,) * len(support))

    # -- basic statistics ------------------------------------------------------

    def sigma(self) -> Element:
        """The sum of the sequence in the ambient group."""
        group = self.support.group
        total = group.zero
        for g, v in zip(self.support.elements, self.exponents):
            if v:
                total = group.add(total, group.mul(v, g))
        return total

    def is_zero_sum(self) -> bool:
        return not any(self.sigma())

    def cross_number(self) -> Fraction:
        """k(S) = sum of v_g / ord(g), exact, on the support's scale."""
        n, weights = self.support.cross_scale
        return Fraction(sum(map(mul, self.exponents, weights)), n)

    @property
    def length(self) -> int:
        return sum(self.exponents)

    # -- the monoid operation ----------------------------------------------------

    def __mul__(self, other: "SequenceVec") -> "SequenceVec":
        if self.support != other.support:
            raise ContractError("sequences live over different support sets")
        return SequenceVec(self.support,
                           tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    # -- presentation -------------------------------------------------------------

    def format(self) -> str:
        """Sequence notation over the support order, e.g. (1,1)^3 * (0,1)^2."""
        parts = []
        for g, v in zip(self.support.elements, self.exponents):
            if v:
                coords = ",".join(str(c) for c in g)
                parts.append(f"({coords})^{v}" if v > 1 else f"({coords})")
        return " * ".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.format()
