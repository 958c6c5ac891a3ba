"""Exact arithmetic in finite abelian groups given as direct sums of cyclic groups.

Elements are residue vectors (plain tuples of ints), one coordinate per cyclic
component, always kept reduced modulo the component orders.  Groups are stored
in the user-given component order; the invariant-factor shape is only computed
for exponent/rank reporting, never to reindex elements.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod

from .errors import ContractError

Element = tuple[int, ...]


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending.  Trial division; n stays small here."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def _partitions(n: int) -> list[tuple[int, ...]]:
    """All integer partitions of n, parts non-increasing."""
    if n == 0:
        return [()]
    out = []

    def rec(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """C_{n_1} + ... + C_{n_k} with every n_i >= 2 (empty list = trivial group)."""

    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))
        if any(n < 2 for n in self.orders):
            raise ContractError(
                f"cyclic component orders must be >= 2, got {self.orders}")

    # -- basic element arithmetic -------------------------------------------

    @cached_property
    def size(self) -> int:
        return prod(self.orders)

    @cached_property
    def zero(self) -> Element:
        return (0,) * len(self.orders)

    def element(self, coords) -> Element:
        """Reduce a coordinate vector into the group."""
        coords = tuple(coords)
        if len(coords) != len(self.orders):
            raise ContractError(
                f"expected {len(self.orders)} coordinates, got {len(coords)}")
        return tuple(int(c) % n for c, n in zip(coords, self.orders))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.orders))

    def mul(self, k: int, a: Element) -> Element:
        return tuple((k * x) % n for x, n in zip(a, self.orders))

    def order_of(self, g: Element) -> int:
        """ord(g) = lcm over components of n_i / gcd(n_i, g_i); ord(0) = 1."""
        if len(g) != len(self.orders):
            raise ContractError(
                f"expected {len(self.orders)} coordinates, got {len(g)}")
        return lcm(*(n // gcd(n, c) for c, n in zip(g, self.orders))) if g else 1

    def elements(self):
        """All elements in lexicographic coordinate order."""
        return itertools.product(*(range(n) for n in self.orders))

    @cached_property
    def nonzero_elements(self) -> tuple[Element, ...]:
        return tuple(g for g in self.elements() if any(g))

    # -- invariants -----------------------------------------------------------

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.orders) if self.orders else 1

    def p_rank(self, p: int) -> int:
        return sum(1 for n in self.orders if n % p == 0)

    @cached_property
    def _primes(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for n in self.orders:
            seen.update(prime_factors(n))
        return tuple(sorted(seen))

    @cached_property
    def rank(self) -> int:
        return max((self.p_rank(p) for p in self._primes), default=0)

    # -- subgroup queries -----------------------------------------------------

    def subgroup_closure(self, gens) -> frozenset[Element]:
        """<gens> by breadth-first closure under addition; <empty> = {0}."""
        gens = [self.element(g) for g in gens]
        seen = {self.zero}
        frontier = [self.zero]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.add(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    # -- presentation ----------------------------------------------------------

    def spec_string(self) -> str:
        """Canonical text form, e.g. C2^2xC4 (parses back for every nontrivial group)."""
        if not self.orders:
            return "C1"
        parts = []
        for n, run in itertools.groupby(self.orders):
            count = len(list(run))
            parts.append(f"C{n}" if count == 1 else f"C{n}^{count}")
        return "x".join(parts)

    def __str__(self) -> str:
        return self.spec_string()


def abelian_groups_of_order(n: int) -> list[FiniteAbelianGroup]:
    """One representative per isomorphism type, via primary decomposition.

    Component orders are the prime powers p^part, sorted ascending, so e.g.
    order 12 yields C3xC4 and C2^2xC3.
    """
    if n < 1:
        raise ContractError(f"order must be >= 1, got {n}")
    if n == 1:
        return [FiniteAbelianGroup(())]
    factorization: dict[int, int] = {}
    m = n
    for p in prime_factors(n):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factorization[p] = e
    per_prime = []
    for p, e in sorted(factorization.items()):
        per_prime.append([tuple(p ** part for part in lam) for lam in _partitions(e)])
    groups = []
    for combo in itertools.product(*per_prime):
        orders = tuple(sorted(itertools.chain.from_iterable(combo)))
        groups.append(FiniteAbelianGroup(orders))
    groups.sort(key=lambda g: g.orders)
    return groups
