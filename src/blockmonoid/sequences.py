"""Sequences over a finite set of nonzero group elements, as exponent vectors."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ContractError
from .groups import Element, FiniteAbelianGroup


@dataclass(frozen=True)
class SupportSet:
    """An ordered set of distinct nonzero elements; the order fixes exponent indexing."""

    group: FiniteAbelianGroup
    elements: tuple[Element, ...]

    def __post_init__(self):
        elems = tuple(self.group.element(g) for g in self.elements)
        object.__setattr__(self, "elements", elems)
        if any(not any(g) for g in elems):
            raise ContractError("support sets must not contain 0")
        if len(set(elems)) != len(elems):
            raise ContractError(f"support set has duplicate elements: {elems}")

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return tuple(self.group.order_of(g) for g in self.elements)

    @cached_property
    def _index(self) -> dict[Element, int]:
        return {g: i for i, g in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g) -> bool:
        return tuple(g) in self._index

    def position(self, g) -> int:
        try:
            return self._index[tuple(g)]
        except KeyError:
            raise ContractError(f"{tuple(g)} is not in the support set")

    def span(self) -> frozenset[Element]:
        return self.group.subgroup_closure(self.elements)


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
        """k(S) = sum of v_g / ord(g), exact."""
        return sum((Fraction(v, o) for v, o in zip(self.exponents, self.support.orders)
                    if v), Fraction(0))

    @property
    def length(self) -> int:
        return sum(self.exponents)

    def height(self) -> int:
        """Maximal multiplicity; 0 for the empty sequence."""
        return max(self.exponents, default=0)

    def supp(self) -> tuple[Element, ...]:
        return tuple(g for g, v in zip(self.support.elements, self.exponents) if v)

    def stats(self) -> tuple[int, int, tuple[Element, ...]]:
        """(length, maximal multiplicity, support)."""
        return (self.length, self.height(), self.supp())

    # -- divisibility -----------------------------------------------------------

    def _require_same_support(self, other: "SequenceVec"):
        if self.support != other.support:
            raise ContractError("sequences live over different support sets")

    def divides(self, other: "SequenceVec") -> bool:
        self._require_same_support(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: "SequenceVec") -> "SequenceVec":
        self._require_same_support(other)
        return SequenceVec(self.support,
                           tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, n: int) -> "SequenceVec":
        if n < 0:
            raise ContractError("negative powers are not defined")
        return SequenceVec(self.support, tuple(n * v for v in self.exponents))

    def div(self, other: "SequenceVec") -> "SequenceVec":
        """Exact division; defined only when other divides self."""
        if not other.divides(self):
            raise ContractError(
                f"{other.format()} does not divide {self.format()}")
        return SequenceVec(self.support,
                           tuple(a - b for a, b in zip(self.exponents, other.exponents)))

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
