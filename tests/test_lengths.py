import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmonoid import (BudgetError, ConsistencyError,
                         ContractError, FiniteAbelianGroup, LengthSet,
                         SequenceVec, SupportSet, delta_of_lengths,
                         distances_oracle, enumerate_atoms, length_set)
from blockmonoid.errors import format_bound
from oracles import naive_length_set, regroup, walk_distances_oracle
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

    def test_long_factorization(self):
        # 999 atoms in one factorization, more than Python's recursion
        # limit allows frames: the pass reads its 1000 layers in a loop
        support = SupportSet(FiniteAbelianGroup((4,)), ((1,),))
        b = SequenceVec(support, (3996,))
        assert length_set(b, enumerate_atoms(support)).values == (999,)

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


def assert_matches_naive(sequence, atoms):
    assert set(length_set(sequence, atoms).values) == naive_length_set(
        sequence, [a.exponents for a in atoms])


class TestPackedSearch:
    """The packed length pass at the edges of its field width: a field holds
    the room left, at most the target's largest exponent m, in
    m.bit_length() bits below a guard bit, so m = 1, 2^j - 1 and 2^j are
    where the width changes."""

    EDGES = (1, 2, 3, 4, 7, 8, 15, 16)
    SUPPORTS = (
        SupportSet(FiniteAbelianGroup((3,)), ((1,), (2,))),
        SupportSet(FiniteAbelianGroup((4,)), ((1,), (3,))),
        SupportSet(FiniteAbelianGroup((3, 3)), ((1, 0), (0, 1), (2, 2))),
        SupportSet(FiniteAbelianGroup((2, 2)), ((1, 0), (0, 1), (1, 1))),
    )

    @pytest.mark.parametrize("m", EDGES)
    @pytest.mark.parametrize("support", SUPPORTS,
                             ids=lambda s: s.group.spec_string())
    def test_all_fields_at_the_edge(self, support, m):
        # each support sums to 0, so the sequence with every exponent m is
        # zero-sum
        sequence = SequenceVec(support, (m,) * len(support))
        assert sequence.is_zero_sum()
        assert_matches_naive(sequence, enumerate_atoms(support))

    @pytest.mark.parametrize("m", EDGES)
    def test_one_field_at_the_edge(self, m):
        # one field at m, the others at m mod 2, first and last in the int
        group = FiniteAbelianGroup((2, 2, 2))
        support = SupportSet(group, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
        atoms = enumerate_atoms(support)
        rest = m % 2
        for exps in ((m, rest, rest, rest), (rest, rest, rest, m)):
            sequence = SequenceVec(support, exps)
            assert sequence.is_zero_sum()
            assert_matches_naive(sequence, atoms)

    def test_atoms_above_the_largest_exponent_are_dropped(self):
        # (5, 0) and (0, 5) cannot divide (1, 1)
        atoms = enumerate_atoms(PM5)
        assert length_set(SequenceVec(PM5, (1, 1)), atoms).values == (1,)

    def test_memo_limit_boundary(self):
        # (8, 8, 8, 8) over the C2xC4xC4 family has 232 nonzero residuals
        atoms = enumerate_atoms(FAMILY)
        b = SequenceVec(FAMILY, (8, 8, 8, 8))
        assert length_set(b, atoms, memo_limit=232).values == (4, 6, 8)
        with pytest.raises(BudgetError) as info:
            length_set(b, atoms, memo_limit=231)
        assert info.value.bound == 231


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
        # C(10 + 2 + 1, 2) = 78 bounds the sequences of length <= 10 over
        # two elements, and the oracle is refused from it before it starts
        assert distances_oracle(atoms, 10, vector_limit=78) == (3,)
        with pytest.raises(BudgetError) as info:
            distances_oracle(atoms, 10, vector_limit=77)
        assert info.value.bound == 78

    def test_vector_budget_on_a_bound_too_long_to_print(self):
        # C(10^3000 + 3, 2) has 6000 digits; the error carries it exactly
        atoms = enumerate_atoms(PM5)
        max_len = 10 ** 3000
        with pytest.raises(BudgetError) as info:
            distances_oracle(atoms, max_len, vector_limit=10 ** 6)
        bound = info.value.bound
        assert bound == comb(max_len + 3, 2)
        assert f"distance oracle bound {format_bound(bound)} " in str(info.value)

    def test_memo_limit_boundary(self):
        # the pass files each nonempty zero-sum B with |B| <= 10 once
        atoms = enumerate_atoms(PM5)
        count = sum(SequenceVec(PM5, (a, b)).is_zero_sum()
                    for a in range(11) for b in range(11 - a)) - 1
        assert count == 13
        assert distances_oracle(atoms, 10, memo_limit=count) == (3,)
        with pytest.raises(BudgetError) as info:
            distances_oracle(atoms, 10, memo_limit=count - 1)
        assert info.value.bound == count - 1


class TestIncompleteAtoms:
    """A zero-sum sequence that the given atoms cannot factor is a bug trap,
    not an empty set of lengths."""

    ATOMS = regroup(PM5, [a.exponents for a in enumerate_atoms(PM5)
                          if a.exponents != (1, 1)])

    def test_oracle(self):
        # the pass builds only products of the atoms it has, so it is the
        # tally of zero-sum vectors by length that sees (1, 1) missing
        with pytest.raises(ConsistencyError):
            distances_oracle(self.ATOMS, 10)

    def test_length_set(self):
        with pytest.raises(ConsistencyError):
            length_set(SequenceVec(PM5, (6, 1)), self.ATOMS)


class TestDistancesAgainstWalk:
    """The forward length pass against the walk over every exponent vector,
    which takes each length set from `naive_length_set`."""

    CASES = (
        (PM5, 10),
        (EPS33, 12),
        (FAMILY, 8),
        (SupportSet(FiniteAbelianGroup((2, 4)), ((1, 0), (0, 1), (1, 3))), 10),
        (SupportSet(FiniteAbelianGroup((6,)), ((1,), (2,), (3,))), 9),
    )

    @pytest.mark.parametrize("support,max_len", CASES)
    def test_cases(self, support, max_len):
        atoms = enumerate_atoms(support)
        assert distances_oracle(atoms, max_len) == \
            walk_distances_oracle(atoms, max_len)

    def test_one_element_support(self):
        # only multiples of the order are zero-sum, each with one length
        atoms = enumerate_atoms(SupportSet(FiniteAbelianGroup((4,)), ((1,),)))
        for max_len in (0, 3, 4, 9):
            assert distances_oracle(atoms, max_len) == () == \
                walk_distances_oracle(atoms, max_len)

    def test_empty_support(self):
        atoms = enumerate_atoms(SupportSet(FiniteAbelianGroup((5,)), ()))
        assert distances_oracle(atoms, 5) == () == \
            walk_distances_oracle(atoms, 5)

    @settings(max_examples=40, deadline=None)
    @given(small_support(), st.integers(0, 8))
    def test_small_supports(self, support, max_len):
        atoms = enumerate_atoms(support)
        assert distances_oracle(atoms, max_len) == \
            walk_distances_oracle(atoms, max_len)


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
