import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmonoid import ContractError, FiniteAbelianGroup, abelian_groups_of_order
from oracles import (closure_by_coefficients, independent_by_definition,
                     is_independent, min_multiple_in_span,
                     order_by_repeated_addition, p_rank_by_torsion_count)

C6 = FiniteAbelianGroup((6,))
C4 = FiniteAbelianGroup((4,))
C9927 = FiniteAbelianGroup((9, 9, 27))
C244 = FiniteAbelianGroup((2, 4, 4))
C33 = FiniteAbelianGroup((3, 3))

small_groups = st.builds(
    FiniteAbelianGroup,
    st.lists(st.integers(2, 6), min_size=1, max_size=3).map(tuple)
).filter(lambda g: g.size <= 64)


def element_of(group):
    return st.tuples(*(st.integers(0, n - 1) for n in group.orders))


class TestOrderOf:
    def test_identity(self):
        assert C6.order_of((0,)) == 1

    def test_forced_small(self):
        assert C6.order_of((2,)) == 3

    def test_mixed_component_sum(self):
        g = (1, 1, 1)
        assert C9927.order_of(g) == 27
        assert order_by_repeated_addition(C9927, g) == 27

    def test_mismatched_coordinates(self):
        with pytest.raises(ContractError):
            C6.order_of((1, 0))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_repeated_addition(self, data):
        group = data.draw(small_groups)
        g = data.draw(element_of(group))
        d = group.order_of(g)
        if any(g):
            assert d == order_by_repeated_addition(group, g)
            assert group.mul(d, g) == group.zero
            assert all(group.mul(k, g) != group.zero for k in range(1, d))
        else:
            assert d == 1


class TestInvariants:
    @pytest.mark.parametrize("orders,expected", [
        ((2, 4, 4), (4, 3)),
        ((9, 9, 27), (27, 3)),
        ((6,), (6, 1)),
    ])
    def test_examples(self, orders, expected):
        group = FiniteAbelianGroup(orders)
        assert (group.exponent, group.rank) == expected

    @settings(max_examples=40, deadline=None)
    @given(small_groups)
    def test_rank_against_torsion_count(self, group):
        ranks = [p_rank_by_torsion_count(group, p)
                 for p in (2, 3, 5) if group.size % p == 0]
        assert group.rank == max(ranks, default=0)

    def test_trivial_group(self):
        trivial = FiniteAbelianGroup(())
        assert trivial.size == 1
        assert (trivial.exponent, trivial.rank) == (1, 0)
        assert trivial.nonzero_elements == ()


class TestSubgroupClosure:
    def test_single_generator(self):
        assert C4.subgroup_closure([(2,)]) == {(0,), (2,)}

    def test_empty(self):
        assert C4.subgroup_closure([]) == {(0,)}

    def test_diagonal(self):
        got = C33.subgroup_closure([(1, 1)])
        assert got == {(0, 0), (1, 1), (2, 2)}
        assert got == closure_by_coefficients(C33, [(1, 1)])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_is_subgroup_and_matches_oracle(self, data):
        group = data.draw(small_groups)
        gens = data.draw(st.lists(element_of(group), max_size=3))
        closure = group.subgroup_closure(gens)
        assert closure == closure_by_coefficients(group, gens)
        assert group.zero in closure
        for x in closure:
            assert group.neg(x) in closure
            for y in closure:
                assert group.add(x, y) in closure


class TestIndependence:
    def test_basis_is_independent(self):
        basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert is_independent(C9927, basis)

    def test_dependent_pair(self):
        # 9*(e1+e2+e3) = 9*e3 in C9^2 x C27
        assert not is_independent(C9927, [(0, 0, 1), (1, 1, 1)])

    def test_zero_member(self):
        assert not is_independent(C4, [(0,), (1,)])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_definition(self, data):
        group = data.draw(small_groups)
        family = data.draw(st.lists(element_of(group), min_size=1, max_size=3))
        assert is_independent(group, family) == \
            independent_by_definition(group, family)


class TestMinMultipleInSpan:
    def test_basic(self):
        assert min_multiple_in_span(C4, (1,), [(2,)]) == 2

    def test_element_in_span(self):
        assert min_multiple_in_span(C4, (2,), [(2,)]) == 1

    def test_mixed_span(self):
        g = (1, 0, 1)
        others = [(1, 1, 0), (0, 1, 0), (0, 0, 1)]
        assert min_multiple_in_span(C244, g, others) == 1
        assert g in closure_by_coefficients(C244, others)

    def test_zero_rejected(self):
        with pytest.raises(ContractError):
            min_multiple_in_span(C4, (0,), [(1,)])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_divides_order(self, data):
        group = data.draw(small_groups)
        g = data.draw(element_of(group).filter(any))
        others = data.draw(st.lists(element_of(group), max_size=3))
        d = min_multiple_in_span(group, g, others)
        assert group.order_of(g) % d == 0
        assert group.mul(d, g) in group.subgroup_closure(others)


class TestIsomorphismTypes:
    @pytest.mark.parametrize("order,count", [
        (3, 1), (4, 2), (8, 3), (12, 2), (16, 5),
    ])
    def test_counts(self, order, count):
        assert len(abelian_groups_of_order(order)) == count

    def test_each_has_right_order(self):
        for order in range(1, 17):
            for group in abelian_groups_of_order(order):
                assert group.size == order
