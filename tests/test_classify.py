import importlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmonoid import (ConsistencyError, ContractError, FiniteAbelianGroup,
                         SequenceVec, SupportSet, abelian_groups_of_order,
                         build_named_set, classify, delta_star,
                         enumerate_atoms, is_decomposable,
                         is_minimal_non_half_factorial, is_simple, min_delta,
                         satisfies_span_property, transfer_reduce)
from oracles import seed_is_minimal_non_half_factorial
from test_atoms import C5, FAMILY, PM5

C22 = FiniteAbelianGroup((2, 2))
TRIPLE22 = SupportSet(C22, ((1, 0), (0, 1), (1, 1)))


class TestClassify:
    def test_c22_triple(self):
        rec = classify(TRIPLE22)
        assert not rec.half_factorial
        assert rec.lcn
        assert rec.minimal_non_hf
        assert rec.min_delta == 1
        assert rec.atom_count == 4
        assert rec.max_cross_number == Fraction(3, 2)

    def test_pm_pair(self):
        rec = classify(PM5)
        assert not rec.half_factorial
        assert not rec.lcn
        assert rec.minimal_non_hf
        assert rec.min_delta == 3
        assert rec.simple and not rec.decomposable

    def test_family(self):
        rec = classify(FAMILY)
        assert rec.minimal_non_hf and rec.lcn
        assert rec.min_delta == 2
        assert not rec.simple
        full = (1 << len(FAMILY)) - 1
        assert not any(FAMILY.is_independent(full ^ (1 << i))
                       for i in range(len(FAMILY)))

    def test_half_factorial_subset(self):
        group = FiniteAbelianGroup((4,))
        rec = classify(SupportSet(group, ((1,), (2,))))
        assert rec.half_factorial and rec.min_delta == 0
        assert not rec.minimal_non_hf

    def test_refuses_atoms_of_another_support(self):
        # the atoms of {1, 2} would give {1, 4} min Delta 1 and 4 atoms
        with pytest.raises(ContractError):
            classify(PM5, atoms=enumerate_atoms(SupportSet(C5, ((1,), (2,)))))
        same = SupportSet(C5, PM5.elements)
        rec = classify(PM5, atoms=enumerate_atoms(same))
        assert (rec.min_delta, rec.atom_count) == (3, 3)

    def test_half_factoriality_routes_are_checked(self, monkeypatch):
        # the package re-exports the function under the module's name
        module = importlib.import_module("blockmonoid.classify")
        monkeypatch.setattr(module, "min_delta", lambda atoms: 0)
        with pytest.raises(ConsistencyError):
            classify(PM5)


class TestMinimalNonHalfFactorial:
    """The atom-support rule against the per-position rescan it replaced."""

    def test_every_support_of_size_at_most_four(self):
        supports = minimal = 0
        for order in range(1, 13):
            for group in abelian_groups_of_order(order):
                for size in range(1, 5):
                    for subset in itertools.combinations(
                            group.nonzero_elements, size):
                        atoms = enumerate_atoms(SupportSet(group, subset))
                        got = is_minimal_non_half_factorial(atoms)
                        assert got == seed_is_minimal_non_half_factorial(atoms), \
                            (group.spec_string(), subset)
                        supports += 1
                        minimal += got
        assert (supports, minimal) == (2499, 237)

    # the groups of the benchmark's query workload
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(2, 2, 4), (4, 4), (2, 8), (3, 3, 3), (5, 5),
                            (6, 6), (7, 7), (2, 2, 2, 2, 2)]), st.data())
    def test_query_group_supports(self, orders, data):
        group = FiniteAbelianGroup(orders)
        subset = data.draw(st.lists(st.sampled_from(group.nonzero_elements),
                                    min_size=1, max_size=5, unique=True))
        atoms = enumerate_atoms(SupportSet(group, tuple(subset)))
        assert is_minimal_non_half_factorial(atoms) == \
            seed_is_minimal_non_half_factorial(atoms)


class TestDecomposable:
    def test_independent_pair_decomposes(self):
        assert is_decomposable(SupportSet(C22, ((1, 0), (0, 1))))

    def test_pm_pair_indecomposable(self):
        assert not is_decomposable(PM5)

    def test_singleton(self):
        assert not is_decomposable(SupportSet(C22, ((1, 0),)))

    def test_minimal_non_hf_sets_are_indecomposable(self, sweep_cache):
        for orders in ((8,), (9,), (2, 4), (3, 3), (2, 2, 3)):
            group = FiniteAbelianGroup(orders)
            report = sweep_cache(group)
            assert len(report.records) == report.counters["subsets_computed"]
            for rec in report.records:
                if rec.minimal_non_hf:
                    subset = SupportSet(group, report.subset_elements(rec.mask))
                    assert not is_decomposable(subset), subset.elements


class TestSimple:
    def test_pm_pair(self):
        assert is_simple(PM5)

    def test_basis_plus_sum(self):
        group = FiniteAbelianGroup((3, 3))
        assert is_simple(SupportSet(group, ((1, 1), (1, 0), (0, 1))))

    def test_named_families_not_simple(self):
        assert not is_simple(build_named_set("remark-4.6.1", r=3))
        assert not is_simple(build_named_set("remark-4.6.2", r=3))

    def test_simple_implies_indecomposable(self, sweep_cache):
        group = FiniteAbelianGroup((2, 4))
        report = sweep_cache(group)
        assert len(report.records) == report.counters["subsets_computed"]
        for rec in report.records[:64]:
            subset = SupportSet(group, report.subset_elements(rec.mask))
            if is_simple(subset):
                assert not is_decomposable(subset)


class TestNamedSets:
    def test_pm_literal(self):
        group = FiniteAbelianGroup((7,))
        assert build_named_set("pm", group).elements == ((1,), (6,))

    def test_eps_literal(self):
        group = FiniteAbelianGroup((3, 3))
        assert build_named_set("eps", group).elements == \
            ((1, 1), (1, 0), (0, 1))

    def test_family_one_literal(self):
        support = build_named_set("remark-4.6.1", r=3)
        assert support.group.orders == (9, 9, 27)
        assert support.elements == \
            ((3, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 1))

    def test_family_two_literal(self):
        support = build_named_set("remark-4.6.2", r=3)
        assert support.group.orders == (2, 4, 4)
        assert support.elements == \
            ((1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1))

    def test_shape_refusals(self):
        with pytest.raises(ContractError):
            build_named_set("eps", FiniteAbelianGroup((4, 4)))
        with pytest.raises(ContractError):
            build_named_set("remark-4.6.1", FiniteAbelianGroup((9, 27)), r=3)
        with pytest.raises(ContractError):
            build_named_set("pm", FiniteAbelianGroup((2, 2)))
        with pytest.raises(ContractError):
            build_named_set("pm", FiniteAbelianGroup(()))
        with pytest.raises(ContractError):
            build_named_set("no-such-kind", FiniteAbelianGroup((5,)))
        # the remark-4.6 kinds build their group from r and refuse one given
        with pytest.raises(ContractError):
            build_named_set("remark-4.6.1", FiniteAbelianGroup((9, 9, 27)), r=3)
        for kind in ("remark-4.6.1", "remark-4.6.2"):
            with pytest.raises(ContractError):
                build_named_set(kind)
            with pytest.raises(ContractError):
                build_named_set(kind, r=2)


class TestTransferReduce:
    def test_identity_when_property_holds(self):
        group = FiniteAbelianGroup((4,))
        support = SupportSet(group, ((1,), (3,)))
        assert satisfies_span_property(support)
        reduction = transfer_reduce(support)
        assert reduction.steps == ()
        assert reduction.reduced == support

    def test_one_step_example(self):
        group = FiniteAbelianGroup((2, 3))
        support = SupportSet(group, ((0, 1), (1, 1)))
        reduction = transfer_reduce(support)
        assert len(reduction.steps) == 1
        assert reduction.reduced.elements == ((0, 1), (0, 2))
        assert satisfies_span_property(reduction.reduced)

    def test_preserves_invariants(self):
        group = FiniteAbelianGroup((2, 3))
        support = SupportSet(group, ((0, 1), (1, 1)))
        atoms = enumerate_atoms(support)
        reduction = transfer_reduce(support, atoms=atoms)
        reduced_atoms = enumerate_atoms(reduction.reduced)
        assert len(reduction.reduced) == len(support)
        assert min_delta(reduced_atoms) == min_delta(atoms)
        rng = random.Random(3)
        for _ in range(100):
            b = SequenceVec.empty(support)
            for _ in range(rng.randint(1, 6)):
                b = b * rng.choice(atoms.atoms)
            image = reduction.apply(b)
            assert image.cross_number() == b.cross_number()
            assert image.is_zero_sum()

    def test_refuses_atoms_of_another_support(self):
        group = FiniteAbelianGroup((2, 3))
        support = SupportSet(group, ((0, 1), (1, 1)))
        # PM5 is minimal non-half-factorial too, so only the support check
        # stops the reduction
        with pytest.raises(ContractError):
            transfer_reduce(support, atoms=enumerate_atoms(PM5))
        same = SupportSet(group, support.elements)
        reduction = transfer_reduce(support, atoms=enumerate_atoms(same))
        assert reduction.reduced.elements == ((0, 1), (0, 2))

    def test_refuses_non_minimal(self):
        group = FiniteAbelianGroup((4,))
        hf = SupportSet(group, ((1,), (2,)))
        with pytest.raises(ContractError):
            transfer_reduce(hf)

    def test_c2xc8_has_a_reducible_minimal_set(self, sweep_cache):
        group = FiniteAbelianGroup((2, 8))
        report = sweep_cache(group)
        assert len(report.records) == report.counters["subsets_computed"]
        reduced_any = False
        for rec in report.records:
            if not rec.minimal_non_hf:
                continue
            support = SupportSet(group, report.subset_elements(rec.mask))
            if satisfies_span_property(support):
                continue
            atoms = enumerate_atoms(support)
            reduction = transfer_reduce(support, atoms=atoms)
            assert satisfies_span_property(reduction.reduced)
            assert min_delta(enumerate_atoms(reduction.reduced)) == rec.min_delta
            reduced_any = True
        assert reduced_any
