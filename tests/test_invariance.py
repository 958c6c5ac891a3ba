"""Results must not depend on how a support is listed or how a group is
presented."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmonoid import (FiniteAbelianGroup, SequenceVec, SupportSet,
                         classify, enumerate_atoms, length_set, min_delta)


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
        # the packed length search lays positions out in support order
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
