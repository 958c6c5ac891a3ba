import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmonoid import (BudgetError, ContractError, FiniteAbelianGroup,
                         LengthSet, SequenceVec, SupportSet, delta_of_lengths,
                         distances_oracle, enumerate_atoms, length_set)
from oracles import naive_length_set
from test_atoms import EPS33, FAMILY, PM5, small_support


class TestLengthSet:
    def test_atom(self):
        atoms = enumerate_atoms(PM5)
        for a in atoms:
            assert length_set(a, atoms).values == (1,)

    def test_pm_power(self):
        atoms = enumerate_atoms(PM5)
        b = SequenceVec(PM5, (5, 5))
        assert length_set(b, atoms).values == (2, 5)

    def test_basis_plus_sum_cubes(self):
        atoms = enumerate_atoms(EPS33)
        b = SequenceVec(EPS33, (3, 3, 3))
        got = length_set(b, atoms)
        assert got.values == (2, 3)
        assert set(got.values) == naive_length_set(
            b, [a.exponents for a in atoms])

    def test_non_zero_sum_rejected(self):
        atoms = enumerate_atoms(PM5)
        with pytest.raises(ContractError):
            length_set(SequenceVec(PM5, (1, 0)), atoms)

    def test_memo_budget(self):
        atoms = enumerate_atoms(FAMILY)
        b = SequenceVec(FAMILY, (8, 8, 8, 8))
        with pytest.raises(BudgetError):
            length_set(b, atoms, memo_limit=2)

    @settings(max_examples=40, deadline=None)
    @given(small_support(), st.data())
    def test_matches_naive_enumerator(self, support, data):
        atoms = enumerate_atoms(support)
        if not len(atoms):
            return
        picks = data.draw(st.lists(
            st.integers(0, len(atoms) - 1), min_size=1, max_size=3))
        b = SequenceVec.empty(support)
        for j in picks:
            b = b * atoms.atoms[j]
        if b.length > 12:
            return
        got = length_set(b, atoms)
        assert set(got.values) == naive_length_set(
            b, [a.exponents for a in atoms])

    @settings(max_examples=40, deadline=None)
    @given(small_support(), st.data())
    def test_sanity_bounds(self, support, data):
        atoms = enumerate_atoms(support)
        if not len(atoms):
            return
        picks = data.draw(st.lists(
            st.integers(0, len(atoms) - 1), min_size=1, max_size=4))
        b = SequenceVec.empty(support)
        for j in picks:
            b = b * atoms.atoms[j]
        values = length_set(b, atoms).values
        assert values
        k = b.cross_number()
        assert values[0] >= k / atoms.cross_number()
        assert values[-1] <= k * support.group.exponent


class TestDelta:
    @pytest.mark.parametrize("values,expected", [
        ((2, 5), (3,)),
        ((7,), ()),
        ((2, 4), (2,)),
        ((2, 4, 5, 9), (1, 2, 4)),
    ])
    def test_examples(self, values, expected):
        assert delta_of_lengths(values) == expected
        assert LengthSet(values).delta() == expected


class TestDistancesOracle:
    def test_pm_pair(self):
        atoms = enumerate_atoms(PM5)
        assert distances_oracle(atoms, 10) == (3,)

    def test_half_factorial_sees_nothing(self):
        group = FiniteAbelianGroup((3, 3))
        support = SupportSet(group, ((1, 0), (0, 1)))
        atoms = enumerate_atoms(support)
        assert distances_oracle(atoms, 12) == ()

    def test_basis_plus_sum(self):
        atoms = enumerate_atoms(EPS33)
        assert distances_oracle(atoms, 12) == (1,)

    def test_monotone_in_max_len(self):
        atoms = enumerate_atoms(PM5)
        seen = set()
        for max_len in (4, 6, 8, 10, 12):
            got = set(distances_oracle(atoms, max_len))
            assert got >= seen
            seen = got

    def test_vector_budget(self):
        atoms = enumerate_atoms(PM5)
        with pytest.raises(BudgetError):
            distances_oracle(atoms, 10, vector_limit=5)
        # the walk makes exactly C(10 + 2 + 1, 2) = 78 calls over two
        # elements, and is refused from that count before it starts
        assert distances_oracle(atoms, 10, vector_limit=78) == (3,)
        with pytest.raises(BudgetError) as info:
            distances_oracle(atoms, 10, vector_limit=77)
        assert info.value.bound == 78


class TestHalfFactorialLengths:
    """Over a half-factorial support, every length set is the singleton {k(B)}."""

    def test_random_products(self):
        group = FiniteAbelianGroup((2, 2, 3))
        support = SupportSet(group, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        atoms = enumerate_atoms(support)
        rng = random.Random(11)
        for _ in range(25):
            b = SequenceVec.empty(support)
            for _ in range(rng.randint(1, 5)):
                b = b * rng.choice(atoms.atoms)
            values = length_set(b, atoms).values
            k = b.cross_number()
            assert values == (k,)
            assert k.denominator == 1


class TestFamilyFullPower:
    def test_length_set_of_order_power_product(self):
        # the product of g^{ord g} over the C2xC4xC4 family factors in exactly
        # |G0| atoms or 2 heavy atoms
        atoms = enumerate_atoms(FAMILY)
        s = SequenceVec(FAMILY, FAMILY.orders)
        values = length_set(s, atoms).values
        assert values == (2, 4)
        assert values[-1] == len(FAMILY)
