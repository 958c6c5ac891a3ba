import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmonoid import (BudgetError, ContractError,
                         FiniteAbelianGroup, SequenceVec, SupportSet,
                         abelian_groups_of_order, build_named_set,
                         enumerate_atoms, enumeration_bound)
from blockmonoid.atoms import EMPTY_ZF, child_entry, zero_sum_free
from blockmonoid.errors import format_bound
from blockmonoid.sequences import _Span
from oracles import (dot_pairs, encode_set, entry_fields, entry_pairs,
                     entry_vectors, grid_atoms, grid_zero_sum_free, regroup,
                     seed_enumerate_atoms, vector_state, walk_enumerate_atoms,
                     walk_search)

C5 = FiniteAbelianGroup((5,))
C33 = FiniteAbelianGroup((3, 3))
C22 = FiniteAbelianGroup((2, 2))
C244 = FiniteAbelianGroup((2, 4, 4))

PM5 = SupportSet(C5, ((1,), (4,)))
# e0 = e1 + e2 first, then the basis
EPS33 = SupportSet(C33, ((1, 1), (1, 0), (0, 1)))
FAMILY = SupportSet(C244, ((1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)))

# the ten atoms of the C2xC4xC4 family at r=3, exponents in support order
FAMILY_ATOMS = {
    (4, 0, 0, 0): Fraction(1),          # (e1+e2)^4
    (0, 4, 0, 0): Fraction(1),          # e2^4
    (0, 0, 4, 0): Fraction(1),          # e3^4
    (0, 0, 0, 4): Fraction(1),          # g^4
    (2, 2, 0, 0): Fraction(1),          # (e1+e2)^2 e2^2
    (0, 0, 2, 2): Fraction(1),          # g^2 e3^2
    (1, 3, 3, 1): Fraction(2),          # g e3^3 (e1+e2) e2^3
    (3, 1, 3, 1): Fraction(2),          # g e3^3 (e1+e2)^3 e2
    (1, 3, 1, 3): Fraction(2),          # g^3 e3 (e1+e2) e2^3
    (3, 1, 1, 3): Fraction(2),          # g^3 e3 (e1+e2)^3 e2
}


def small_support(draw_orders=(2, 6), max_components=2, max_size=3):
    groups = st.builds(
        FiniteAbelianGroup,
        st.lists(st.integers(*draw_orders), min_size=1,
                 max_size=max_components).map(tuple))

    @st.composite
    def build(draw):
        group = draw(groups)
        nonzero = list(group.nonzero_elements)
        size = draw(st.integers(1, min(max_size, len(nonzero))))
        picked = draw(st.permutations(nonzero))[:size]
        return SupportSet(group, tuple(picked))

    return build()


class TestExamples:
    def test_pm_pair(self):
        atoms = enumerate_atoms(PM5)
        assert [a.exponents for a in atoms] == [(0, 5), (1, 1), (5, 0)]

    def test_basis_plus_sum(self):
        atoms = enumerate_atoms(EPS33)
        got = {a.exponents for a in atoms}
        assert got == {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 2, 2), (2, 1, 1)}
        assert [tuple(v) for v in grid_atoms(EPS33)] == \
            sorted(a.exponents for a in atoms)

    def test_family_inventory(self):
        atoms = enumerate_atoms(FAMILY)
        got = {a.exponents: k for a, k in zip(atoms.atoms, atoms.cross_numbers)}
        assert got == FAMILY_ATOMS

    def test_budget_refusal(self):
        with pytest.raises(BudgetError) as info:
            enumerate_atoms(PM5, budget=10)
        assert info.value.bound == enumeration_bound(PM5) == 36

    def test_grid_refused_before_the_codec(self):
        # the grid 3^1497 x 5^4 alone is over the budget, so the span codec,
        # |<S>| = 2^1500 bits wide, is never built
        support = build_named_set("remark-4.6.2", r=1500)
        with pytest.raises(BudgetError, match=r"\(grid size\) exceeds"):
            enumerate_atoms(support, 10**12)
        assert "codec" not in support.__dict__

    def test_refusal_of_a_bound_too_long_to_print(self):
        # the grid of 59 elements of C_(10^100) has about 5900 digits, past
        # the interpreter's limit on printing an int where it has one; the
        # message shows the bound as a power of 2, the error carries it
        support = SupportSet(FiniteAbelianGroup((10 ** 100,)),
                             tuple((i,) for i in range(1, 60)))
        bound = enumeration_bound(support)
        with pytest.raises(BudgetError) as info:
            enumerate_atoms(support, 10 ** 12)
        assert info.value.bound == bound
        assert f"bound {format_bound(bound)} (grid size)" in str(info.value)
        if getattr(sys, "get_int_max_str_digits", lambda: 0)():
            assert format_bound(bound) == f"about 2^{bound.bit_length() - 1}"
        assert format_bound(36) == "36"


class TestDerivedConstants:
    def test_davenport_pm(self):
        assert enumerate_atoms(PM5).davenport_constant() == 5

    def test_davenport_full_c22(self):
        support = SupportSet(C22, C22.nonzero_elements)
        atoms = enumerate_atoms(support)
        assert atoms.davenport_constant() == 3
        assert sorted(a.exponents for a in atoms) == grid_atoms(support)

    def test_davenport_family(self):
        assert enumerate_atoms(FAMILY).davenport_constant() == 8

    def test_cross_number_pm(self):
        assert enumerate_atoms(PM5).cross_number() == 1

    def test_cross_number_family(self):
        assert enumerate_atoms(FAMILY).cross_number() == 2

    @settings(max_examples=100, deadline=None)
    @given(small_support(max_size=4))
    def test_read_off_the_index(self, support):
        # the index's exponent tuples and scaled cross numbers give the
        # values of the expanded atoms
        atoms = enumerate_atoms(support)
        assert atoms.davenport_constant() == max(a.length for a in atoms.atoms)
        assert atoms.cross_number() == max(a.cross_number()
                                           for a in atoms.atoms)

    def test_empty_atom_set_rejected(self):
        empty = SupportSet(C5, ())
        atoms = enumerate_atoms(empty)
        assert len(atoms) == 0
        with pytest.raises(ContractError):
            atoms.davenport_constant()


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(small_support())
    def test_grid_oracle_equivalence(self, support):
        if enumeration_bound(support) > 10 ** 5:
            return
        atoms = enumerate_atoms(support)
        assert sorted(a.exponents for a in atoms) == grid_atoms(support)

    @settings(max_examples=60, deadline=None)
    @given(small_support())
    def test_structure(self, support):
        atoms = enumerate_atoms(support)
        vectors = [a.exponents for a in atoms]
        # every atom is a nonempty zero-sum
        for a in atoms:
            assert a.length > 0 and a.is_zero_sum()
        # pairwise incomparable
        for v in vectors:
            for w in vectors:
                if v != w:
                    assert not all(a <= b for a, b in zip(v, w))
        # g^{ord g} present; multiplicities within bounds
        for i, o in enumerate(support.orders):
            pure = tuple(o if j == i else 0 for j in range(len(support)))
            assert pure in set(vectors)
        for v in vectors:
            for c, o in zip(v, support.orders):
                assert c <= o
                if c == o:
                    assert sum(v) == o  # only the pure power hits the cap

    def test_permutation_invariance(self):
        rng = random.Random(7)
        for support in (EPS33, FAMILY):
            base = {tuple(sorted(zip(support.elements, a.exponents)))
                    for a in enumerate_atoms(support)}
            elems = list(support.elements)
            for _ in range(3):
                rng.shuffle(elems)
                shuffled = SupportSet(support.group, tuple(elems))
                got = {tuple(sorted(zip(shuffled.elements, a.exponents)))
                       for a in enumerate_atoms(shuffled)}
                assert got == base


class TestRestrict:
    """The atoms of a sub-family, read off the sweep's support-mask index:
    the entries filed under every submask of the sub-family's mask, put in
    the sub-family's own coordinates, against a direct enumeration."""

    @staticmethod
    def indexed(index, positions, k) -> list[tuple[int, ...]]:
        mask = sum(1 << i for i in positions)
        out = []
        sub = mask
        while sub:
            entry = index.get(sub)
            if entry is not None:
                out.extend(tuple(exps[i] for i in positions)
                           for exps in entry_vectors(sub, entry, k))
            sub = (sub - 1) & mask
        return sorted(out)

    def test_matches_direct_enumeration(self):
        atoms = enumerate_atoms(FAMILY)
        index = atoms.mask_index
        sub = SupportSet(C244, ((0, 1, 0), (0, 0, 1), (1, 0, 1)))
        assert self.indexed(index, [1, 2, 3], len(FAMILY)) == \
            [a.exponents for a in enumerate_atoms(sub)]

    @pytest.mark.parametrize("orders", [(2, 2, 2), (3, 3), (2, 4)])
    def test_every_subset_of_the_nonzero_elements(self, orders):
        group = FiniteAbelianGroup(orders)
        full = SupportSet(group, group.nonzero_elements)
        atoms = enumerate_atoms(full)
        index = atoms.mask_index
        k = len(full)
        # every atom once, in the sparse form of its support mask's entry
        assert sorted(exps for mask, entry in index.items()
                      for exps in entry_vectors(mask, entry, k)) == \
            [a.exponents for a in atoms]
        # beside each atom, its cross number scaled by exp(G)
        cross = dict(zip((a.exponents for a in atoms), atoms.cross_numbers))
        for mask, entry in index.items():
            assert entry.scaled == [group.exponent * cross[exps]
                                    for exps in entry_vectors(mask, entry, k)]
        for mask in range(1, 1 << len(full)):
            positions = [i for i in range(len(full)) if mask >> i & 1]
            sub = SupportSet(group, tuple(full.elements[i] for i in positions))
            direct = enumerate_atoms(sub)
            assert self.indexed(index, positions, k) == \
                [a.exponents for a in direct]
            # the flags of the atoms whose support is exactly the mask
            exact = [kv for a, kv in zip(direct, direct.cross_numbers)
                     if all(a.exponents)]
            entry = index.get(mask)
            assert (entry is not None) == bool(exact)
            if entry is not None:
                assert entry.nonunit == any(kv != 1 for kv in exact)
                assert entry.light == any(kv < 1 for kv in exact)

    def test_sequences_equal_validated_ones(self):
        # enumerate_atoms skips SequenceVec validation
        sub = SupportSet(C244, ((0, 1, 0), (0, 0, 1), (1, 0, 1)))
        for atom_set in (enumerate_atoms(FAMILY), enumerate_atoms(sub)):
            for a in atom_set:
                assert a == SequenceVec(atom_set.support, a.exponents)
                assert all(type(v) is int for v in a.exponents)


def vectors(support):
    return tuple(a.exponents for a in enumerate_atoms(support))


SMALL_GROUPS = [g for n in range(1, 11) for g in abelian_groups_of_order(n)]
FULL_SUPPORT_GROUPS = [g for n in range(11, 17)
                       for g in abelian_groups_of_order(n)]
FULL_SUPPORT_GROUPS.append(FiniteAbelianGroup((2, 2, 2, 3)))
C1000_3 = FiniteAbelianGroup((1000, 1000, 1000))
C4_C2_C3 = FiniteAbelianGroup((4, 2, 3))
WIDE_SUPPORTS = {
    "remark-4.6.1-r3": build_named_set("remark-4.6.1", r=3),
    "remark-4.6.1-r4": build_named_set("remark-4.6.1", r=4),
    "pm-C997": build_named_set("pm", FiniteAbelianGroup((997,))),
    "axis-pair-C1000^3": SupportSet(C1000_3, ((1, 0, 0), (999, 0, 0))),
    "diagonal-pair-C1000^3": SupportSet(
        C1000_3, ((1, 1, 1), (999, 999, 999))),
    "diagonal-pair-C100^4": SupportSet(
        FiniteAbelianGroup((100,) * 4), ((1, 1, 1, 1), (99, 99, 99, 99))),
    "unsorted-C4xC2xC3": SupportSet(
        C4_C2_C3, ((1, 1, 2), (2, 0, 1), (3, 1, 0), (0, 1, 1), (2, 1, 0))),
}


class TestSeedOracle:
    """The bitmask DFS against the set-of-tuples DFS it replaced: the same
    atoms in the same order."""

    @pytest.mark.parametrize("group", SMALL_GROUPS, ids=str)
    def test_every_support(self, group):
        nonzero = group.nonzero_elements
        for size in range(len(nonzero) + 1):
            for subset in itertools.combinations(nonzero, size):
                support = SupportSet(group, subset)
                assert vectors(support) == seed_enumerate_atoms(support)

    @pytest.mark.parametrize("group", FULL_SUPPORT_GROUPS, ids=str)
    def test_full_support(self, group):
        support = SupportSet(group, group.nonzero_elements)
        assert vectors(support) == seed_enumerate_atoms(support)

    @pytest.mark.parametrize("name", sorted(WIDE_SUPPORTS))
    def test_wide_groups(self, name):
        support = WIDE_SUPPORTS[name]
        # the masks are |<S>| bits wide, however large G is
        span = support.group.subgroup_closure(support.elements)
        assert _Span(support.group, support.elements).width == len(span)
        assert vectors(support) == seed_enumerate_atoms(support)


ON_DEMAND_GROUPS = [g for n in range(1, 13) for g in abelian_groups_of_order(n)]
ON_DEMAND_GROUPS += [FiniteAbelianGroup((2, 2, 2, 2)), FiniteAbelianGroup((2, 2, 4))]
_WHOLE_GROUP = {}


def whole_group(orders):
    """(support, eager index) on the nonzero elements, built once; the index
    files the seed DFS's atoms, so it shares no search with `child_entry`."""
    if orders not in _WHOLE_GROUP:
        group = FiniteAbelianGroup(orders)
        support = SupportSet(group, group.nonzero_elements)
        _WHOLE_GROUP[orders] = (
            support, regroup(support, seed_enumerate_atoms(support)).mask_index)
    return _WHOLE_GROUP[orders]


def prefix_span(support, b):
    """The span of the positions below b, as a mask."""
    return support.span_mask((1 << b) - 1)


def chain_zf(support, positions):
    """The zero-sum-free vectors of the mask of `positions`, ascending,
    grown from the empty mask one position at a time from the highest down,
    each kept where its sigma lies in the span below the position added, as
    the sweep grows them."""
    zf = EMPTY_ZF
    for p in reversed(positions):
        zf = zero_sum_free(support, zf, p, prefix_span(support, p))
    return zf


def mask_entry(support, mask):
    """The entry of `mask` built from the zero-sum-free vectors of the mask
    without its lowest position."""
    positions = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
    return child_entry(support, chain_zf(support, positions[1:]), positions[0],
                       positions[1:])


def every_entry(support):
    """The entry of every nonempty mask, built down the tree of masks that
    the sweep walks, without pruning: mask -> entry or None."""
    k = len(support)
    built = {}

    def walk(positions, zf):
        for b in range(positions[0] if positions else k):
            built[sum(1 << p for p in (b, *positions))] = child_entry(
                support, zf, b, positions)
            walk((b, *positions), zero_sum_free(support, zf, b,
                                                prefix_span(support, b)))

    walk((), EMPTY_ZF)
    return built


class TestOnDemandIndex:
    """Each support mask's entry built from the zero-sum-free vectors of the
    mask without its lowest position, against the seed enumeration of the
    whole support filed by `AtomSet.mask_index`: the same atoms with the
    same scaled cross numbers (compared sorted, as each entry keeps the
    order its route reached them in), the same flags, and None exactly
    where the eager index has no key."""

    @pytest.mark.parametrize("group", ON_DEMAND_GROUPS,
                             ids=lambda g: g.spec_string())
    def test_every_mask(self, group):
        support, index = whole_group(group.orders)
        built = every_entry(support)
        assert len(built) == (1 << len(group.nonzero_elements)) - 1
        for mask, got in built.items():
            assert entry_fields(got) == entry_fields(index.get(mask)), mask

    def test_zero_sum_sets(self):
        # over C2^2, {a, b, a+b} sums to 0, so its only atom is itself, and
        # no vector over it is zero-sum free; {a, a+b} has no proper
        # zero-sum subset, yet no atom has exactly that support
        support, index = whole_group((2, 2))
        whole = support.span_mask(0b111)
        single = zero_sum_free(support, EMPTY_ZF, 2, whole)
        pair = zero_sum_free(support, single, 1, whole)
        # (sigma, PS, exponents, n k): n = 2 and W = (1, 1, 1) on C2^2
        assert [(vec, nk) for _, _, vec, nk in pair] == [((1, 1), 2)]
        entry = child_entry(support, pair, 0, (1, 2))
        assert entry.vectors == [(1, 1, 1)]
        assert entry.above == (1, 2)
        assert zero_sum_free(support, pair, 0, whole) == []
        assert chain_zf(support, (2,)) != []
        assert mask_entry(support, 0b101) is None
        assert 0b101 not in index

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(23,), (3, 3, 3), (2, 2, 2, 3)]), st.data())
    def test_sampled_masks(self, orders, data):
        support, index = whole_group(orders)
        k = len(FiniteAbelianGroup(orders).nonzero_elements)
        positions = data.draw(st.sets(st.integers(0, k - 1), min_size=1,
                                      max_size=7))
        mask = sum(1 << i for i in positions)
        got = mask_entry(support, mask)
        assert entry_fields(got) == entry_fields(index.get(mask))


class TestZeroSumFree:
    """The zero-sum-free vectors grown one position at a time against the
    brute-force filter of the exponent grid, and the entries read off them
    against the brute-force grid atoms with exactly that support, with
    their scaled cross numbers, both sorted."""

    @settings(max_examples=150, deadline=None)
    @given(small_support(), st.data())
    def test_matches_grid_filter(self, support, data):
        k = len(support)
        mask = data.draw(st.integers(1, (1 << k) - 1))
        positions = tuple(i for i in range(k) if mask >> i & 1)
        zf = chain_zf(support, positions)
        # grouped by the vector each chain is raised from: the same vectors,
        # each once, as the grid filter finds them
        assert sorted(zf) == sorted(grid_zero_sum_free(
            support, positions, prefix_span(support, positions[0])))
        atoms = grid_atoms(support)
        for b in range(positions[0]):
            exact = [tuple(a[i] for i in (b, *positions)) for a in atoms
                     if all(bool(a[i]) == (i == b or i in positions)
                            for i in range(k))]
            got = child_entry(support, zf, b, positions)
            assert (entry_pairs(got) if got else []) == \
                dot_pairs(support, (b, *positions), exact)


class TestEmptyVector:
    """Every walk starts from the empty mask, whose one zero-sum-free vector
    is the empty vector: raising one position from it gives the grid filter
    of that one-position mask, and its child entry is g^ord(g)."""

    @settings(max_examples=100, deadline=None)
    @given(small_support(max_size=4))
    def test_one_position(self, support):
        whole = support.span_mask((1 << len(support)) - 1)
        for b in range(len(support)):
            for span in (prefix_span(support, b), whole):
                assert sorted(zero_sum_free(support, EMPTY_ZF, b, span)) == \
                    sorted(grid_zero_sum_free(support, (b,), span))
            entry = child_entry(support, EMPTY_ZF, b, ())
            assert (entry.above, entry.vectors) == ((), [(support.orders[b],)])


def translate(mask, steps):
    """Apply the steps of `_Span.translation` as its docstring specifies."""
    for low, up, down in steps:
        lo = mask & low
        mask = (lo << up) | ((mask ^ lo) >> down)
    return mask


@st.composite
def span_cases(draw):
    """(group, generators, <generators>, a subset A of it, an element g):
    up to 4 components of order 2-12 and up to 6 generators, so composite
    exponents and more generators than components reach the elimination
    mod exp(G)."""
    orders = draw(st.lists(st.integers(2, 12), max_size=4).map(tuple))
    group = FiniteAbelianGroup(orders)
    element = st.tuples(*(st.integers(0, n - 1) for n in orders))
    gens = draw(st.lists(element, max_size=6))
    span = sorted(group.subgroup_closure(gens))
    subset = draw(st.sets(st.sampled_from(span)))
    g = draw(st.sampled_from(span))
    return group, gens, span, subset, g


class TestSpanCodec:
    @settings(max_examples=200, deadline=None)
    @given(span_cases())
    def test_span_is_numbered_onto_the_width(self, case):
        group, gens, span, _, _ = case
        codec = _Span(group, gens)
        assert codec.width == len(span)
        assert codec.encode(group.zero) == 0
        assert encode_set(codec, span) == (1 << codec.width) - 1

    @settings(max_examples=200, deadline=None)
    @given(span_cases())
    def test_translation(self, case):
        group, gens, _, subset, g = case
        codec = _Span(group, gens)
        moved = {group.add(a, g) for a in subset}
        assert translate(encode_set(codec, subset),
                         codec.translation(codec.encode(g))) == \
            encode_set(codec, moved)

    @settings(max_examples=200, deadline=None)
    @given(span_cases())
    def test_span_is_encoded_closure(self, case):
        group, gens, span, _, _ = case
        codec = _Span(group, gens)
        mask = 1  # {0}
        while True:
            grown = mask
            for g in gens:
                grown |= translate(mask, codec.translation(codec.encode(g)))
            if grown == mask:
                break
            mask = grown
        assert mask == encode_set(codec, span)

    @pytest.mark.parametrize("r, width, size",
                             [(3, 729, 2187), (4, 2187, 19683)])
    def test_remark_4_6_1(self, r, width, size):
        # the family spans a subgroup of index 3^(r - 2), so the masks are
        # |G| / 3^(r - 2) bits wide; its atoms still match the walking search
        support = build_named_set("remark-4.6.1", r=r)
        assert support.group.size == size
        assert support.codec.width == width == size // 3 ** (r - 2)
        assert assert_matches_walk(support)


# the groups the queries benchmark draws its supports from
QUERY_GROUPS = [(2, 2, 4), (4, 4), (2, 8), (3, 3, 3), (5, 5), (6, 6), (7, 7),
                (2, 2, 2, 2, 2)]


@st.composite
def query_support(draw, min_size=2):
    """`min_size` to 5 distinct nonzero elements of a queries group, in drawn
    order."""
    group = FiniteAbelianGroup(draw(st.sampled_from(QUERY_GROUPS)))
    picked = draw(st.lists(st.sampled_from(group.nonzero_elements),
                           min_size=min_size, max_size=5, unique=True))
    return SupportSet(group, tuple(picked))


def walk_entry(support, positions):
    """The atoms whose support is exactly `positions`, by the walking search
    from the state of their 0/1 vector, summed subsequence by subsequence,
    as (the positions after the first, the exponent tuples over the
    positions), the fields `above` and `vectors` of an index entry; the
    positions in the order given, each position's steps and bit read off
    `support`."""
    n = len(positions)
    spans = [support.span_mask(sum(1 << p for p in positions[t:]))
             for t in range(n)]
    found = walk_search([support.steps[p] for p in positions],
                        [support.bits[p] for p in positions], spans, (1,) * n,
                        *vector_state(support, positions, (1,) * n))
    return positions[1:], found


class TestSolvedLastPosition:
    """Each entry is solved at its lowest position from the table of
    multiples of that position's element; the DFS that raises every
    exponent one copy at a time, `oracles.walk_search`, must give the same
    atoms: `enumerate_atoms` in the same order as the walk from the empty
    vector, and the entry of a mask, with its scaled cross numbers, as the
    walk from the mask's 0/1 vector, both sorted."""

    @settings(max_examples=150, deadline=None)
    @given(query_support())
    def test_empty_vector(self, support):
        assert list(vectors(support)) == walk_enumerate_atoms(support)

    @settings(max_examples=150, deadline=None)
    @given(query_support(), st.data())
    def test_mask_state(self, support, data):
        mask = data.draw(st.integers(1, (1 << len(support)) - 1))
        positions = tuple(i for i in range(len(support)) if mask >> i & 1)
        entry = mask_entry(support, mask)
        if vector_state(support, positions, (1,) * len(positions))[2] & 1:
            # a proper subset sums to 0, and the walk starts only without one
            assert entry is None
            return
        above, found = walk_entry(support, positions)
        if entry is None:
            assert found == []
        else:
            assert (entry.above, entry_pairs(entry)) == \
                (above, dot_pairs(support, positions, found))

    def test_one_element_support(self):
        # one copy of g at the only position, solved to g^ord(g) at once
        for g, order in (((2,), 5), ((5,), 6), ((1,), 2)):
            support = SupportSet(FiniteAbelianGroup((order,)), (g,))
            assert vectors(support) == ((order,),)
            entry = child_entry(support, EMPTY_ZF, 0, ())
            assert (entry.above, entry.vectors) == ((), [(order,)])

    def test_last_element_of_order_two(self):
        # the table of an element of order 2 holds only g, with c = 1
        group = FiniteAbelianGroup((2, 4))
        support = SupportSet(group, ((0, 1), (1, 1), (1, 2), (1, 0)))
        bit = support.bits[3]
        assert support.multiples(3) == {bit: (1, 0)}
        assert list(vectors(support)) == walk_enumerate_atoms(support) \
            == grid_atoms(support)

    def test_boundary_multiple(self):
        # over C5 with g = 4 last, sigma(1^2) = 2 = -2g, so c = 2 and
        # N_c = {-g} = {1}; the proper zero-sum 1 4 of 1^2 4^2 takes
        # c - 1 copies of g, so only -(c - 1)g, the last multiple in N_c,
        # shows that 1^2 4^2 is no atom
        codec = PM5.codec
        bit = {x: 1 << codec.encode((x,)) for x in range(5)}
        assert PM5.multiples(1)[bit[2]] == (2, bit[1])
        assert PM5.multiples(1)[bit[1]] == (1, 0)
        assert PM5.multiples(1)[bit[3]] == (3, bit[1] | bit[2])
        # no entry reads sigma = 0 there: no zero-sum-free vector sums to 0
        assert bit[0] not in PM5.multiples(1)
        assert vectors(PM5) == ((0, 5), (1, 1), (5, 0))


class TestOneFramePerPosition:
    """`enumerate_atoms` against the DFS that raises every exponent one copy
    at a time (`oracles.walk_search`) and the brute-force grid filter, on
    one-element supports too; and the entry read off zero-sum-free vectors
    grown in any chain order, with no span filter, against the walk from
    the 0/1 vector of the same positions, with the scaled cross numbers,
    both sorted."""

    @settings(max_examples=60, deadline=None)
    @given(query_support(min_size=1), st.data())
    def test_empty_vector_and_chain_order(self, support, data):
        k = len(support)
        assert list(vectors(support)) == walk_enumerate_atoms(support) \
            == grid_atoms(support)
        chain = data.draw(st.permutations(range(k)))[:data.draw(st.integers(1, k))]
        whole = support.span_mask((1 << k) - 1)
        zf = EMPTY_ZF
        for pos in chain[:-1]:
            zf = zero_sum_free(support, zf, pos, whole)
        positions = tuple(reversed(chain))
        entry = child_entry(support, zf, chain[-1], positions[1:])
        if vector_state(support, positions, (1,) * len(positions))[2] & 1:
            assert entry is None
            return
        above, found = walk_entry(support, positions)
        if entry is None:
            assert found == []
        else:
            assert (entry.above, entry_pairs(entry)) == \
                (above, dot_pairs(support, positions, found))


def assert_matches_walk(support) -> int:
    """`enumerate_atoms` gives the atoms of `oracles.walk_search` in the same
    order, and the index it files as it walks the zero-sum-free vectors
    equals those atoms filed by support mask (`oracles.regroup`): the same
    masks, and at each the same positions, exponent tuples with their
    scaled cross numbers (as sorted pairs) and flags; the number of
    atoms."""
    atoms = enumerate_atoms(support)
    walked = walk_enumerate_atoms(support)
    assert [a.exponents for a in atoms] == walked
    expected = regroup(support, walked).mask_index
    assert atoms.mask_index.keys() == expected.keys()
    for mask, entry in atoms.mask_index.items():
        assert entry_fields(entry) == entry_fields(expected[mask]), mask
    return len(walked)


class TestIndexAgainstWalk:
    @settings(max_examples=150, deadline=None)
    @given(query_support(min_size=1))
    def test_index_matches_walk(self, support):
        assert_matches_walk(support)

    @pytest.mark.parametrize(
        "group", [g for n in range(1, 17) for g in abelian_groups_of_order(n)],
        ids=lambda g: g.spec_string())
    def test_whole_group_index_matches_walk(self, group):
        assert_matches_walk(SupportSet(group, group.nonzero_elements))
