"""Per-subset classification, the transfer reduction, and named example subsets.

Cross-number flags are read off the atom set's support-mask index, in
integers, and span flags off the support's span table.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .atoms import AtomSet, enumerate_atoms
from .errors import ConsistencyError, ContractError
from .groups import Element, FiniteAbelianGroup, prime_factors
from .kernel import half_factorial, min_delta
from .sequences import SequenceVec, SupportSet


@dataclass(frozen=True)
class ClassificationRecord:
    subset: tuple[Element, ...]
    half_factorial: bool
    lcn: bool
    minimal_non_hf: bool
    decomposable: bool
    simple: bool
    min_delta: int
    davenport: int
    max_cross_number: Fraction
    atom_count: int

    def __post_init__(self):
        # flag consistency is part of the contract of every record
        if self.half_factorial and self.min_delta != 0:
            raise ConsistencyError("half-factorial subset with min_delta != 0")
        if not self.half_factorial and self.min_delta == 0:
            raise ConsistencyError("non-half-factorial subset with min_delta == 0")
        if self.minimal_non_hf and self.half_factorial:
            raise ConsistencyError("minimal_non_hf contradicts half_factorial")
        if self.simple and self.decomposable:
            raise ConsistencyError("simple subsets are indecomposable")


def is_minimal_non_half_factorial(atoms: AtomSet) -> bool:
    """Non-half-factorial with every proper subset half-factorial.

    A set is half-factorial iff each of its atoms has k(A) = 1, and the
    atoms of G0 minus g are the atoms of G0 that avoid g.  So G0 is minimal
    non-half-factorial iff some atom has k(A) != 1 and every such atom has
    all of G0 as its support: the full mask is the index's only non-unit
    entry.
    """
    full = (1 << len(atoms.support)) - 1
    return [mask for mask, entry in atoms.mask_index.items()
            if entry.nonunit] == [full]


def is_decomposable(support: SupportSet) -> bool:
    """Some bipartition G1 + G2 spans the whole span as a direct sum.

    Uses |<G1>| * |<G2>| = |<G0>| as the direct-sum criterion, with the
    sizes read as popcounts of the support's span masks; searches all
    2^(|G0|-1) - 1 bipartitions with the first element pinned to G1.
    """
    n = len(support)
    if n < 2:
        return False
    full = (1 << n) - 1
    total = support.span_mask(full).bit_count()
    # part1 = position 0 plus `extra`, a subset of the positions 1 .. n-1
    for extra in range(0, full - 1, 2):
        part1 = extra | 1
        if (support.span_mask(part1).bit_count()
                * support.span_mask(full ^ part1).bit_count() == total):
            return True
    return False


def is_simple(support: SupportSet) -> bool:
    """Some g has an independent complement that spans g, with no proper
    subset of the complement spanning g.

    Spans grow with the family, so it is enough to test the subsets that
    drop one element of the complement.
    """
    n = len(support)
    full = (1 << n) - 1
    for i in range(n):
        rest = full ^ (1 << i)
        if (support.is_independent(rest) and support.in_span(i, rest)
                and not any(support.in_span(i, rest ^ (1 << j))
                            for j in range(n) if j != i)):
            return True
    return False


def classify(support: SupportSet,
             atoms: AtomSet | None = None) -> ClassificationRecord:
    """Full classification of one support set."""
    if atoms is None:
        atoms = enumerate_atoms(support)
    elif atoms.support != support:
        raise ContractError("support and atoms live over different support sets")
    d = min_delta(atoms)
    return ClassificationRecord(
        subset=support.elements,
        half_factorial=half_factorial(atoms, d),
        lcn=not any(entry.light for entry in atoms.mask_index.values()),
        minimal_non_hf=is_minimal_non_half_factorial(atoms),
        decomposable=is_decomposable(support),
        simple=is_simple(support),
        min_delta=d,
        davenport=atoms.davenport_constant() if len(atoms) else 0,
        max_cross_number=atoms.cross_number() if len(atoms) else Fraction(0),
        atom_count=len(atoms),
    )


# -- transfer reduction ---------------------------------------------------------

def satisfies_span_property(support: SupportSet) -> bool:
    """Every g lies in the span of the other elements."""
    full = (1 << len(support)) - 1
    return all(support.in_span(i, full ^ (1 << i)) for i in range(len(support)))


@dataclass(frozen=True)
class ReductionStep:
    position: int
    element: Element
    multiple: int
    replacement: Element


@dataclass(frozen=True)
class TransferReduction:
    """Composition of one-element replacements g -> m*g, with the sequence map."""

    original: SupportSet
    reduced: SupportSet
    steps: tuple[ReductionStep, ...]

    def apply(self, sequence: SequenceVec) -> SequenceVec:
        """Rewrite a zero-sum sequence over the original support to one over
        the reduced support; preserves cross numbers and sets of lengths."""
        if sequence.support != self.original:
            raise ContractError("sequence does not live over the original support")
        vec = list(sequence.exponents)
        for step in self.steps:
            v = vec[step.position]
            if v % step.multiple:
                raise ConsistencyError(
                    f"multiplicity {v} of {step.element} is not divisible "
                    f"by {step.multiple}")
            vec[step.position] = v // step.multiple
        return SequenceVec(self.reduced, tuple(vec))


def transfer_reduce(support: SupportSet,
                    atoms: AtomSet | None = None) -> TransferReduction:
    """Reduce a minimal non-half-factorial set until every element lies in the
    span of the others, replacing one g by m*g per round.

    m = min{k : k*g in <G0 minus g>} always divides ord(g), so each round
    strictly decreases the order sum and the loop terminates.  It is the
    order of g modulo <G0 minus g>, the index |<G0>| / |<G0 minus g>|, read
    off the support's span masks.  The lexicographically first reducible g
    is picked each round to make the output deterministic.
    """
    if atoms is None:
        atoms = enumerate_atoms(support)
    elif atoms.support != support:
        raise ContractError("support and atoms live over different support sets")
    if not is_minimal_non_half_factorial(atoms):
        raise ContractError(
            "transfer reduction is defined for minimal non-half-factorial sets")
    group = support.group
    current = support
    steps: list[ReductionStep] = []
    for _ in range(sum(support.orders)):
        elems = current.elements
        full = (1 << len(elems)) - 1
        total = current.span_mask(full).bit_count()
        candidates = []
        for i, g in enumerate(elems):
            m = total // current.span_mask(full ^ (1 << i)).bit_count()
            if m > 1:
                candidates.append((g, i, m))
        if not candidates:
            break
        g, i, m = min(candidates)
        mg = group.mul(m, g)
        if not any(mg):
            raise ConsistencyError(f"reduction of {g} collapsed to 0")
        if mg in current:
            # ruled out for minimal non-half-factorial inputs
            raise ConsistencyError(
                f"replacement {mg} already present in {current.elements}")
        steps.append(ReductionStep(i, g, m, mg))
        current = SupportSet(
            group, elems[:i] + (mg,) + elems[i + 1:])
    else:
        raise ConsistencyError("transfer reduction failed to terminate")
    return TransferReduction(support, current, tuple(steps))


# -- named example families ------------------------------------------------------

NAMED_SET_KINDS = ("pm", "eps", "remark-4.6.1", "remark-4.6.2")


def _basis_vector(group: FiniteAbelianGroup, i: int) -> Element:
    return tuple(1 if j == i else 0 for j in range(len(group.orders)))


def build_named_set(kind: str, group: FiniteAbelianGroup | None = None,
                    r: int | None = None) -> SupportSet:
    """Construct one of the named example subsets over the canonical basis.

    pm            {g, -g} for the first element g of maximal order of `group`.
    eps           basis of C_p^s together with the sum of the basis, sum first.
    remark-4.6.1  the non-simple family in C9^(r-1) x C27.
    remark-4.6.2  the non-simple family in C2^(r-2) x C4 x C4.

    pm and eps take a group; the remark-4.6 kinds take a rank r >= 3 and
    build their group from it.
    """
    if kind not in NAMED_SET_KINDS:
        raise ContractError(f"unknown named-set kind {kind!r}; "
                            f"expected one of {NAMED_SET_KINDS}")
    if kind.startswith("remark-4.6"):
        if group is not None:
            raise ContractError(f"kind {kind!r} takes a rank r, not a group")
        if r is None or r < 3:
            raise ContractError(f"kind {kind!r} needs r >= 3, got {r}")
    elif group is None:
        raise ContractError(f"kind {kind!r} needs a group")

    if kind == "pm":
        n = group.exponent
        if n <= 2:
            raise ContractError("kind 'pm' needs an element of order > 2")
        g = next(e for e in group.nonzero_elements if group.order_of(e) == n)
        return SupportSet(group, (g, group.neg(g)))

    if kind == "eps":
        s = len(group.orders)
        p = group.orders[0] if group.orders else 0
        if s < 2 or any(o != p for o in group.orders) or prime_factors(p) != (p,):
            raise ContractError(
                f"kind 'eps' needs a group C_p^s with p prime and s >= 2, "
                f"got {group.spec_string()}")
        basis = [_basis_vector(group, i) for i in range(s)]
        e0 = group.element([1] * s)
        return SupportSet(group, (e0, *basis))

    if kind == "remark-4.6.1":
        group = FiniteAbelianGroup((9,) * (r - 1) + (27,))
        basis = [_basis_vector(group, i) for i in range(r)]
        g_sum = group.element([1] * r)
        triples = tuple(group.mul(3, e) for e in basis[:-1])
        return SupportSet(group, (*triples, basis[-1], g_sum))

    group = FiniteAbelianGroup((2,) * (r - 2) + (4, 4))
    basis = [_basis_vector(group, i) for i in range(r)]
    g_mix = group.element([1] * (r - 2) + [0, 1])
    middle = group.add(basis[r - 3], basis[r - 2])
    return SupportSet(
        group, (*basis[:r - 3], middle, basis[r - 2], basis[r - 1], g_mix))
