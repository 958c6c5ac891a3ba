"""The support's table of span masks against subgroup closures, and the span
predicates built on it against the closure-based oracles they replaced."""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmonoid import (ContractError, FiniteAbelianGroup, SupportSet,
                         abelian_groups_of_order, enumerate_atoms,
                         is_decomposable, is_simple, satisfies_span_property,
                         transfer_reduce)
from blockmonoid.sweep import SubsetRecord, _extremal_report
from oracles import (encode_set, is_independent, min_multiple_in_span,
                     seed_extremal_span_flags, seed_is_decomposable,
                     seed_is_simple, seed_satisfies_span_property,
                     seed_transfer_reduce)


@st.composite
def supports(draw):
    """0-3 components of order 2-8, up to 5 distinct nonzero elements."""
    orders = draw(st.lists(st.integers(2, 8), max_size=3).map(tuple))
    group = FiniteAbelianGroup(orders)
    nonzero = group.nonzero_elements
    if not nonzero:
        return SupportSet(group, ())
    picked = draw(st.lists(st.sampled_from(nonzero), unique=True, max_size=5))
    return SupportSet(group, tuple(picked))


def at(support, positions):
    return [g for i, g in enumerate(support.elements) if positions >> i & 1]


class TestSpanMask:
    @settings(max_examples=200, deadline=None)
    @given(supports())
    def test_every_position_set_is_the_encoded_closure(self, support):
        group = support.group
        for positions in range(1 << len(support)):
            family = at(support, positions)
            closure = group.subgroup_closure(family)
            mask = support.span_mask(positions)
            assert mask == encode_set(support.codec, closure)
            assert mask.bit_count() == len(closure)
            assert support.is_independent(positions) == \
                is_independent(group, family)

    @settings(max_examples=100, deadline=None)
    @given(supports(), st.randoms(use_true_random=False))
    def test_query_order_does_not_matter(self, support, rng):
        # a fresh support fills its memo in another order
        positions = list(range(1 << len(support)))
        rng.shuffle(positions)
        fresh = SupportSet(support.group, support.elements)
        for p in positions:
            assert fresh.span_mask(p) == support.span_mask(p)

    def test_empty_family_spans_zero(self):
        support = SupportSet(FiniteAbelianGroup((4,)), ((2,),))
        assert support.span_mask(0) == 1
        assert support.span_mask(1) == 0b11  # <2> = {0, 2} in C4

    def test_positions_outside_the_support_refused(self):
        support = SupportSet(FiniteAbelianGroup((4,)), ((1,), (2,)))
        with pytest.raises(ContractError):
            support.span_mask(0b100)
        with pytest.raises(ContractError):
            support.span_mask(-1)


def check_against_oracles(support, atoms):
    assert is_decomposable(support) == seed_is_decomposable(support)
    assert is_simple(support) == seed_is_simple(support)
    assert satisfies_span_property(support) == \
        seed_satisfies_span_property(support)
    # the transfer multiple as an index of spans
    group = support.group
    elems = support.elements
    full = (1 << len(support)) - 1
    total = support.span_mask(full).bit_count()
    for i, g in enumerate(elems):
        m = total // support.span_mask(full ^ (1 << i)).bit_count()
        assert m == min_multiple_in_span(group, g, elems[:i] + elems[i + 1:])
    # membership of each element in the span of every sub-family
    for positions in range(1 << len(elems)):
        closure = group.subgroup_closure(at(support, positions))
        for i, g in enumerate(elems):
            assert support.in_span(i, positions) == (g in closure)
    try:
        expected = seed_transfer_reduce(support, atoms)
    except ContractError:
        with pytest.raises(ContractError):
            transfer_reduce(support, atoms=atoms)
    else:
        assert transfer_reduce(support, atoms=atoms) == expected


SMALL_GROUPS = [g for n in range(1, 13) for g in abelian_groups_of_order(n)]
QUERY_GROUPS = [FiniteAbelianGroup(orders) for orders in (
    (2, 2, 4), (4, 4), (2, 8), (3, 3, 3), (5, 5), (6, 6), (7, 7),
    (2, 2, 2, 2, 2))]


class TestPredicatesAgainstOracles:
    @pytest.mark.parametrize("group", SMALL_GROUPS, ids=str)
    def test_every_small_support(self, group):
        for size in range(5):
            for subset in itertools.combinations(group.nonzero_elements, size):
                support = SupportSet(group, subset)
                check_against_oracles(support, enumerate_atoms(support))

    @pytest.mark.parametrize("group", QUERY_GROUPS, ids=str)
    def test_random_supports(self, group):
        rng = random.Random(str(group))
        for _ in range(200):
            size = rng.randint(2, 5)
            support = SupportSet(group, rng.sample(group.nonzero_elements, size))
            check_against_oracles(support, enumerate_atoms(support))

    def test_some_reductions_take_steps(self):
        # the comparison above must also cover non-trivial reductions
        group = FiniteAbelianGroup((2, 3))
        support = SupportSet(group, ((0, 1), (1, 1)))
        atoms = enumerate_atoms(support)
        assert transfer_reduce(support, atoms=atoms).steps
        check_against_oracles(support, atoms)


class TestExtremalSpanFlags:
    @pytest.mark.parametrize("group", SMALL_GROUPS, ids=str)
    def test_every_small_subset(self, group):
        # the span flags do not read the atoms, which only LCN sets need
        elements = group.nonzero_elements
        support = SupportSet(group, elements) if elements else None
        flags = set()
        for size in range(1, 5):
            for picked in itertools.combinations(range(len(elements)), size):
                mask = sum(1 << i for i in picked)
                rec = SubsetRecord(mask, 0, True, False, False)
                ex = _extremal_report(support, {}, rec)
                got = (ex.no_two_element_span_gap,
                       ex.has_independent_complement)
                assert got == seed_extremal_span_flags(group, ex.subset)
                flags.add(got)
        assert len(elements) <= 3 or len(flags) > 1

    def test_match_the_closure_checks(self, groups_up_to_16, sweep_cache):
        seen = 0
        for group in groups_up_to_16:
            for ex in sweep_cache(group).extremal:
                assert (ex.no_two_element_span_gap,
                        ex.has_independent_complement) == \
                    seed_extremal_span_flags(group, ex.subset)
                seen += 1
        assert seen
