"""Results must not depend on how a support is listed, on how a group is
presented, or on an automorphism applied to the support."""
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockmonoid import (FiniteAbelianGroup, SequenceVec, SupportSet,
                         classify, enumerate_atoms, length_set, min_delta,
                         min_delta_witness)


@st.composite
def shuffled_supports(draw):
    """(support, the same elements in another order, the permutation)."""
    orders = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)
                  .map(tuple))
    group = FiniteAbelianGroup(orders)
    picked = draw(st.lists(st.sampled_from(group.nonzero_elements),
                           unique=True, min_size=1, max_size=5))
    perm = draw(st.permutations(range(len(picked))))
    support = SupportSet(group, tuple(picked))
    shuffled = SupportSet(group, tuple(picked[p] for p in perm))
    return support, shuffled, perm


class TestSupportOrder:
    @settings(max_examples=150, deadline=None)
    @given(shuffled_supports())
    def test_classify_min_delta_and_atoms(self, case):
        support, shuffled, perm = case
        atoms = enumerate_atoms(support)
        moved = enumerate_atoms(shuffled)
        # position j of `shuffled` holds element perm[j] of `support`
        back = []
        for a in moved:
            vec = [0] * len(support)
            for j, v in enumerate(a.exponents):
                vec[perm[j]] = v
            back.append(tuple(vec))
        assert sorted(back) == [a.exponents for a in atoms]
        assert min_delta(moved) == min_delta(atoms)
        record = classify(support, atoms=atoms)
        other = classify(shuffled, atoms=moved)
        assert other.subset == shuffled.elements
        assert vars(other) | {"subset": record.subset} == vars(record)

    @settings(max_examples=60, deadline=None)
    @given(shuffled_supports(), st.data())
    def test_length_sets(self, case, data):
        # the packed length pass lays positions out in support order
        support, shuffled, perm = case
        atoms = enumerate_atoms(support)
        picks = data.draw(st.lists(st.sampled_from(atoms.atoms),
                                   min_size=1, max_size=4))
        b = SequenceVec.empty(support)
        for a in picks:
            b = b * a
        moved = SequenceVec(shuffled, tuple(b.exponents[p] for p in perm))
        assert length_set(moved, enumerate_atoms(shuffled)) == \
            length_set(b, atoms)


ISOMORPHIC_SPECS = [
    ((2, 6), (6, 2), (2, 2, 3)),
    ((12,), (3, 4), (4, 3)),
    ((2, 4), (4, 2)),
]


class TestIsomorphicSpecs:
    @pytest.mark.parametrize("specs", ISOMORPHIC_SPECS,
                             ids=lambda specs: "~".join(map(str, specs)))
    def test_sweep_invariants_agree(self, specs, sweep_cache):
        seen = {(report.delta_star, report.max_delta_star, report.m_of_g)
                for report in (sweep_cache(FiniteAbelianGroup(orders))
                               for orders in specs)}
        assert len(seen) == 1


def _determinant(m) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _determinant([row[:j] + row[j + 1:]
                                                   for row in m[1:]])
               for j in range(len(m)))


@st.composite
def unit_scalings(draw):
    """(group, x -> u*x) for a unit u mod exp(G)."""
    orders = draw(st.lists(st.integers(2, 7), min_size=1, max_size=3)
                  .map(tuple))
    group = FiniteAbelianGroup(orders)
    u = draw(st.sampled_from([u for u in range(1, group.exponent)
                              if gcd(u, group.exponent) == 1]))
    return group, lambda x: tuple(u * c % n for c, n in zip(x, orders))


@st.composite
def component_permutations(draw):
    """(group, x -> x permuted among components of equal order)."""
    orders = draw(st.lists(st.sampled_from([2, 3, 4, 6]), min_size=2,
                           max_size=3).map(tuple))
    group = FiniteAbelianGroup(orders)
    # component i of the image is component source[i] of x
    source = list(range(len(orders)))
    for n in set(orders):
        where = [i for i, m in enumerate(orders) if m == n]
        for i, j in zip(where, draw(st.permutations(where))):
            source[i] = j
    return group, lambda x: tuple(x[j] for j in source)


@st.composite
def unit_determinant_matrices(draw):
    """(C_n^r, x -> A x) for an r x r matrix A with det A a unit mod n."""
    n = draw(st.integers(2, 6))
    r = draw(st.integers(1, 3))
    entries = st.integers(0, n - 1)
    a = draw(st.lists(st.lists(entries, min_size=r, max_size=r),
                      min_size=r, max_size=r))
    assume(gcd(_determinant(a), n) == 1)
    return FiniteAbelianGroup((n,) * r), lambda x: tuple(
        sum(aij * xj for aij, xj in zip(row, x)) % n for row in a)


# (m, n) components with m | n and m < n, each group with the positions of
# one such pair
SHEAR_GROUPS = [((2, 4), (0, 1)), ((2, 8), (0, 1)), ((3, 9), (0, 1)),
                ((2, 2, 4), (0, 2)), ((2, 2, 4), (1, 2))]


@st.composite
def admissible_shears(draw, into_smaller: bool):
    """(group, a shear between components i and j of orders m | n): with
    x = x_i and y = x_j, (x, y) -> (x + a*y mod m, y) when `into_smaller`,
    else (x, y) -> (x, y + (n/m)*b*x mod n), for a or b in [1, m)."""
    orders, (i, j) = draw(st.sampled_from(SHEAR_GROUPS))
    group = FiniteAbelianGroup(orders)
    m, n = orders[i], orders[j]
    t = draw(st.integers(1, m - 1))

    def image(x):
        x = list(x)
        if into_smaller:
            x[i] = (x[i] + t * x[j]) % m
        else:
            x[j] = (x[j] + n // m * t * x[i]) % n
        return tuple(x)

    return group, image


def _length_difference(witness) -> int:
    return 0 if witness is None else witness.lengths[1] - witness.lengths[0]


def assert_automorphism_invariant(group, image, data):
    """The support and its image, listed position for position, have the
    same atom exponent vectors, min Delta, classification (the subset
    aside) and witness length difference."""
    picked = data.draw(st.lists(st.sampled_from(group.nonzero_elements),
                                unique=True, min_size=1, max_size=5))
    moved_elements = tuple(image(g) for g in picked)
    # an automorphism maps distinct nonzero elements to distinct nonzero ones
    assert len(set(moved_elements)) == len(picked)
    assert group.zero not in moved_elements
    support = SupportSet(group, tuple(picked))
    moved = SupportSet(group, moved_elements)
    atoms = enumerate_atoms(support)
    moved_atoms = enumerate_atoms(moved)
    assert sorted(a.exponents for a in moved_atoms) == \
        sorted(a.exponents for a in atoms)
    assert min_delta(moved_atoms) == min_delta(atoms)
    record = classify(support, atoms=atoms)
    other = classify(moved, atoms=moved_atoms)
    assert vars(other) | {"subset": record.subset} == vars(record)
    assert _length_difference(min_delta_witness(moved_atoms)) == \
        _length_difference(min_delta_witness(atoms))


class TestAutomorphisms:
    @settings(max_examples=60, deadline=None)
    @given(unit_scalings(), st.data())
    def test_unit_scaling(self, case, data):
        assert_automorphism_invariant(*case, data)

    @settings(max_examples=60, deadline=None)
    @given(component_permutations(), st.data())
    def test_equal_order_component_permutation(self, case, data):
        assert_automorphism_invariant(*case, data)

    @settings(max_examples=60, deadline=None)
    @given(unit_determinant_matrices(), st.data())
    def test_unit_determinant_matrix(self, case, data):
        assert_automorphism_invariant(*case, data)

    @settings(max_examples=60, deadline=None)
    @given(admissible_shears(into_smaller=True), st.data())
    def test_shear_into_smaller_component(self, case, data):
        assert_automorphism_invariant(*case, data)

    @settings(max_examples=60, deadline=None)
    @given(admissible_shears(into_smaller=False), st.data())
    def test_shear_into_larger_component(self, case, data):
        assert_automorphism_invariant(*case, data)
