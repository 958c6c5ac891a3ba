from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmonoid import (ContractError, FiniteAbelianGroup, SequenceVec,
                         SupportSet)
from blockmonoid.groups import prime_factors

C5 = FiniteAbelianGroup((5,))
C244 = FiniteAbelianGroup((2, 4, 4))

PM5 = SupportSet(C5, ((1,), (4,)))
# the four-element family over C2 x C4 x C4, in construction order
FAMILY = SupportSet(C244, ((1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)))
# g * e3^3 * (e1+e2) * e2^3 in that order
A1 = SequenceVec(FAMILY, (1, 3, 3, 1))

small_groups = st.builds(
    FiniteAbelianGroup,
    st.lists(st.integers(2, 5), min_size=1, max_size=2).map(tuple))


@st.composite
def support_and_two_sequences(draw):
    group = draw(small_groups)
    nonzero = list(group.nonzero_elements)
    size = draw(st.integers(1, min(3, len(nonzero))))
    picked = draw(st.permutations(nonzero)).copy()[:size]
    support = SupportSet(group, tuple(picked))
    exps = st.tuples(*(st.integers(0, 4) for _ in range(size)))
    return support, SequenceVec(support, draw(exps)), SequenceVec(support, draw(exps))


class TestSigma:
    def test_empty(self):
        assert SequenceVec.empty(PM5).sigma() == (0,)

    def test_inverse_pair(self):
        assert SequenceVec(PM5, (1, 1)).sigma() == (0,)

    def test_listed_atom_is_zero_sum(self):
        assert A1.sigma() == (0, 0, 0)

    @settings(max_examples=50, deadline=None)
    @given(support_and_two_sequences())
    def test_additive(self, data):
        support, s, t = data
        group = support.group
        assert (s * t).sigma() == group.add(s.sigma(), t.sigma())


class TestCrossNumber:
    def test_full_power(self):
        assert SequenceVec(PM5, (5, 0)).cross_number() == 1
        # no orders: the scale is lcm() = 1
        empty = SupportSet(C5, ())
        assert empty.cross_scale == (1, ())
        assert SequenceVec.empty(empty).cross_number() == 0

    def test_inverse_pair(self):
        assert SequenceVec(PM5, (1, 1)).cross_number() == Fraction(2, 5)

    def test_listed_atom(self):
        assert A1.cross_number() == 2
        assert FAMILY.cross_scale == (4, (1, 1, 1, 1))

    @settings(max_examples=50, deadline=None)
    @given(support_and_two_sequences())
    def test_additive(self, data):
        support, s, t = data
        assert (s * t).cross_number() == s.cross_number() + t.cross_number()
        # n is the least common multiple of the orders, W_i = n / ord(g_i),
        # and k(S) on that scale is the sum of the v_g / ord(g)
        n, weights = support.cross_scale
        orders = support.orders
        assert [w * o for w, o in zip(weights, orders)] == [n] * len(orders)
        assert not any(all(n // p % o == 0 for o in orders)
                       for p in prime_factors(n))
        assert s.cross_number() == sum(
            (Fraction(v, o) for v, o in zip(s.exponents, orders)), Fraction(0))

    @settings(max_examples=50, deadline=None)
    @given(support_and_two_sequences())
    def test_zero_sum_lower_bound(self, data):
        support, s, _ = data
        if s.is_zero_sum() and s.length:
            assert s.cross_number() >= Fraction(1, support.group.exponent)


class TestValidation:
    def test_zero_in_support_rejected(self):
        with pytest.raises(ContractError):
            SupportSet(C5, ((0,), (1,)))

    def test_duplicates_rejected(self):
        with pytest.raises(ContractError):
            SupportSet(C5, ((1,), (1,)))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ContractError):
            SequenceVec(PM5, (-1, 0))

    def test_product_over_different_supports_rejected(self):
        other = SupportSet(C5, ((2,), (3,)))
        with pytest.raises(ContractError):
            SequenceVec(PM5, (1, 0)) * SequenceVec(other, (1, 0))

    def test_format(self):
        assert SequenceVec(PM5, (5, 5)).format() == "(1)^5 * (4)^5"
        assert SequenceVec.empty(PM5).format() == "1"
