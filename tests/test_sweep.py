import pytest

from blockmonoid import (BudgetError, FiniteAbelianGroup, SupportSet,
                         abelian_groups_of_order, delta_star, enumerate_atoms,
                         expected_max_delta_star, is_half_factorial,
                         min_delta)
from blockmonoid.verify import verify_cyclic_second_maximum
from oracles import seed_delta_star


class TestDeltaStarExamples:
    def test_c3(self, sweep_cache):
        report = sweep_cache(FiniteAbelianGroup((3,)))
        assert report.delta_star == (1,)
        assert report.max_delta_star == 1

    def test_c5(self, sweep_cache):
        report = sweep_cache(FiniteAbelianGroup((5,)))
        assert report.delta_star == (1, 3)
        assert report.max_delta_star == 3

    def test_c22(self, sweep_cache):
        report = sweep_cache(FiniteAbelianGroup((2, 2)))
        assert report.max_delta_star == 1  # r - 1; exp - 2 = 0

    def test_order_two_is_empty(self, sweep_cache):
        report = sweep_cache(FiniteAbelianGroup((2,)))
        assert report.delta_star == ()
        assert report.max_delta_star == 0

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 10])
    def test_cyclic_second_maximum(self, sweep_cache, n):
        report = sweep_cache(FiniteAbelianGroup((n,)))
        assert verify_cyclic_second_maximum(report)

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            delta_star(FiniteAbelianGroup((17,)), sweep_max_group=16)


class TestMOfG:
    @pytest.mark.parametrize("orders,expected", [
        ((2, 2), 1), ((3, 3), 1), ((3,), 0), ((4,), 0),
    ])
    def test_examples(self, sweep_cache, orders, expected):
        assert sweep_cache(FiniteAbelianGroup(orders)).m_of_g == expected

    def test_direct_call(self):
        assert delta_star(FiniteAbelianGroup((2, 2, 2))).m_of_g == 2


class TestCrossValidation:
    """The incremental sweep engine against per-subset kernel computations."""

    @pytest.mark.parametrize("orders", [(8,), (2, 4), (3, 3), (2, 2, 2), (9,)])
    def test_every_subset(self, sweep_cache, orders):
        group = FiniteAbelianGroup(orders)
        report = sweep_cache(group)
        by_mask = {rec.mask: rec for rec in report.records}
        k = len(report.elements)
        for mask in range(1, 1 << k):
            subset = SupportSet(group, report.subset_elements(mask))
            atoms = enumerate_atoms(subset)
            expected = min_delta(atoms)
            rec = by_mask.get(mask)
            if rec is None:
                # pruned subsets are exactly those forced to min delta 1
                assert expected == 1
            else:
                assert rec.min_delta == expected
                assert rec.half_factorial == is_half_factorial(atoms)
                assert rec.lcn == all(x >= 1 for x in atoms.cross_numbers)


SEED_ORACLE_GROUPS = [g for n in range(1, 13) for g in abelian_groups_of_order(n)]
SEED_ORACLE_GROUPS += [FiniteAbelianGroup((2, 2, 2, 2)), FiniteAbelianGroup((2, 2, 4))]


class TestSeedOracle:
    """The support-mask descent on pivot-indexed bases against the seed
    descent (per-atom filter, row-list bases) kept in tests/oracles.py."""

    @pytest.mark.parametrize("group", SEED_ORACLE_GROUPS,
                             ids=lambda g: g.spec_string())
    def test_matches_seed_descent(self, sweep_cache, group):
        report = sweep_cache(group)
        got = {
            "records": report.records,
            "extremal": report.extremal,
            "delta_star": report.delta_star,
            "m_of_g": report.m_of_g,
            "subsets_computed": report.counters["subsets_computed"],
            "subsets_pruned": report.counters["subsets_pruned"],
        }
        assert got == seed_delta_star(group)


class TestMembershipAndBounds:
    @pytest.mark.parametrize("orders", [(5,), (8,), (2, 4), (3, 3), (2, 2, 2)])
    def test_known_memberships(self, sweep_cache, orders):
        group = FiniteAbelianGroup(orders)
        dstar = set(sweep_cache(group).delta_star)
        for g in group.nonzero_elements:
            o = group.order_of(g)
            if o > 2:
                assert o - 2 in dstar
        if group.rank >= 2:
            assert set(range(1, group.rank)) <= dstar

    @pytest.mark.parametrize("orders", [(5,), (8,), (2, 4), (3, 3), (2, 2, 2),
                                        (12,), (2, 2, 3)])
    def test_universal_upper_bounds(self, sweep_cache, orders):
        group = FiniteAbelianGroup(orders)
        report = sweep_cache(group)
        bound = expected_max_delta_star(group)
        for rec in report.records:
            if rec.half_factorial:
                continue
            assert rec.min_delta <= bound
            size = bin(rec.mask).count("1")
            if rec.lcn:
                assert rec.min_delta <= size - 2
            else:
                assert rec.min_delta <= group.exponent - 2


class TestDeterminism:
    def test_repeat_runs_identical(self):
        group = FiniteAbelianGroup((2, 4))
        assert delta_star(group) == delta_star(group)


class TestExtremal:
    def test_c5_extremal_are_pm_pairs(self, sweep_cache):
        report = sweep_cache(FiniteAbelianGroup((5,)))
        assert len(report.extremal) == 2
        for ex in report.extremal:
            assert ex.pm_pair_full_order
            assert not ex.lcn

    def test_c23_extremal_are_lcn_quadruples(self, sweep_cache):
        group = FiniteAbelianGroup((2, 2, 2))
        report = sweep_cache(group)
        assert report.extremal
        for ex in report.extremal:
            assert ex.lcn
            assert ex.size_is_rank_plus_one
            assert ex.no_two_element_span_gap
            assert ex.unit_atoms_support_bound
            assert ex.heavy_atoms_complement_atom

    def test_counters_account_for_every_subset(self, sweep_cache):
        group = FiniteAbelianGroup((2, 2, 3))
        report = sweep_cache(group)
        counters = report.counters
        assert counters["subsets_total"] == 2 ** 11 - 1
        assert len(report.records) + counters["subsets_pruned"] == \
            counters["subsets_total"]

    def test_extremal_lcn_sets_need_high_rank(self, groups_up_to_16, sweep_cache):
        # an LCN attainer forces |G0| = r+1 and r >= exp - 1
        for group in groups_up_to_16:
            if group.size < 3:
                continue
            report = sweep_cache(group)
            for ex in report.extremal:
                if ex.lcn:
                    assert ex.size_is_rank_plus_one
                    assert group.rank >= group.exponent - 1, group.orders
