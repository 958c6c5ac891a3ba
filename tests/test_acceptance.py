"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from blockmonoid import (FiniteAbelianGroup, SequenceVec, SupportSet,
                         abelian_groups_of_order, build_named_set, classify,
                         delta_star, distances_oracle, enumerate_atoms,
                         expected_max_delta_star, length_set, min_delta,
                         satisfies_span_property, transfer_reduce)
from blockmonoid.cli import run as run_cli
from blockmonoid.kernel import half_factorial
from blockmonoid.verify import sweep_groups, verify_main_theorem


@pytest.fixture(scope="module")
def main_sweeps():
    """The sweeps of every abelian group of order <= 16, from one
    `sweep_groups(16)`, and thm-1.1 checked on them, with the time both
    took; shared by criteria 3, 4 and 9."""
    start = time.time()
    reports = sweep_groups(16)
    result = verify_main_theorem(reports)
    return result, reports, time.time() - start


def _report_line(num: int, text: str, elapsed: float):
    print(f"PASS criterion {num}: {text} [{elapsed:.2f}s]")


def test_criterion_1_pm_pairs():
    start = time.time()
    for n in range(3, 11):
        group = FiniteAbelianGroup((n,))
        record = classify(build_named_set("pm", group))
        assert record.atom_count == 3, n
        assert record.min_delta == n - 2, n
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report_line(1, "classify({g,-g} in C_n) gives 3 atoms and "
                    "min delta = n-2 for n in 3..10", elapsed)


def test_criterion_2_basis_plus_sum():
    start = time.time()
    for p, s in ((2, 2), (2, 3), (3, 2), (5, 2)):
        group = FiniteAbelianGroup((p,) * s)
        record = classify(build_named_set("eps", group))
        assert record.min_delta == s - 1, (p, s)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report_line(2, "basis-plus-sum sets in C_p^s have min delta = s-1 "
                    "for (p,s) in {(2,2),(2,3),(3,2),(5,2)}", elapsed)


def test_criterion_3_max_delta_star_formula(main_sweeps):
    result, reports, elapsed = main_sweeps
    assert result.ok, [l for l in result.lines if l.endswith("FAIL")]
    # every isomorphism type of order 3..16 appears, plus both tiny orders
    count = sum(len(abelian_groups_of_order(n)) for n in range(3, 17))
    assert len(result.lines) == count + 2
    for order in (1, 2):
        for group in abelian_groups_of_order(order):
            assert reports[group.orders].delta_star == ()
    assert elapsed < 600.0
    _report_line(3, f"max delta* = max{{exp-2, r-1}} on all {count} "
                    f"isomorphism types of order 3..16, empty for orders <= 2",
                 elapsed)


def test_criterion_4_cyclic_second_maximum(main_sweeps):
    _, reports, _ = main_sweeps
    start = time.time()
    for n in (5, 6, 7, 8, 10):
        # the cyclic isomorphism type in primary decomposition
        cyclic = next(g for g in abelian_groups_of_order(n) if g.exponent == n)
        report = reports[cyclic.orders]
        rest = [d for d in report.delta_star if d != n - 2]
        assert max(rest, default=0) == n // 2 - 1, (n, report.delta_star)
    _report_line(4, "max(delta*(C_n) minus {n-2}) = floor(n/2)-1 "
                    "for n in {5,6,7,8,10}", time.time() - start)


def test_criterion_5_p_group_lcn_maximum():
    start = time.time()
    for orders in ((2, 2), (2, 2, 2), (2, 4), (4,), (8,), (9,), (3, 3)):
        group = FiniteAbelianGroup(orders)
        report = delta_star(group)
        assert report.m_of_g == group.rank - 1, orders
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report_line(5, "m(G) = r(G)-1 for the seven listed p-groups", elapsed)


# the ten atoms over (e1+e2, e2, e3, g=e1+e3) in C2xC4xC4, frozen
FAMILY2_ATOMS = {
    (4, 0, 0, 0): Fraction(1), (0, 4, 0, 0): Fraction(1),
    (0, 0, 4, 0): Fraction(1), (0, 0, 0, 4): Fraction(1),
    (2, 2, 0, 0): Fraction(1), (0, 0, 2, 2): Fraction(1),
    (1, 3, 3, 1): Fraction(2), (3, 1, 3, 1): Fraction(2),
    (1, 3, 1, 3): Fraction(2), (3, 1, 1, 3): Fraction(2),
}


def test_criterion_6_even_exponent_family():
    start = time.time()
    support = build_named_set("remark-4.6.2", r=3)
    group = support.group
    assert group.orders == (2, 4, 4)
    atoms = enumerate_atoms(support)
    got = {a.exponents: k for a, k in zip(atoms.atoms, atoms.cross_numbers)}
    assert got == FAMILY2_ATOMS
    assert sorted(atoms.cross_numbers).count(Fraction(1)) == 6
    assert sorted(atoms.cross_numbers).count(Fraction(2)) == 4

    d = min_delta(atoms)
    assert d == 2
    assert d == expected_max_delta_star(group)

    record = classify(support, atoms=atoms)
    assert record.minimal_non_hf and record.lcn and not record.simple
    full = (1 << len(support)) - 1
    assert not any(support.is_independent(full ^ (1 << i))
                   for i in range(len(support)))
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report_line(6, "C2xC4xC4 family: 10 atoms (6 unit, 4 heavy), "
                    "min delta = 2 = max delta*, minimal non-HF LCN, "
                    "not simple, no independent complement", elapsed)


# the twelve atoms over (3e1, 3e2, e3, g=e1+e2+e3) in C9^2xC27, frozen
FAMILY1_ATOMS = {
    (3, 0, 0, 0): Fraction(1), (0, 3, 0, 0): Fraction(1),
    (0, 0, 27, 0): Fraction(1), (0, 0, 0, 27): Fraction(1),
    (0, 0, 18, 9): Fraction(1), (0, 0, 9, 18): Fraction(1),
    (2, 2, 24, 3): Fraction(7, 3), (1, 1, 21, 6): Fraction(5, 3),
    (2, 2, 15, 12): Fraction(7, 3), (1, 1, 12, 15): Fraction(5, 3),
    (2, 2, 6, 21): Fraction(7, 3), (1, 1, 3, 24): Fraction(5, 3),
}


def test_criterion_7_odd_exponent_family():
    start = time.time()
    support = build_named_set("remark-4.6.1", r=3)
    assert support.group.orders == (9, 9, 27)
    atoms = enumerate_atoms(support)
    got = {a.exponents: k for a, k in zip(atoms.atoms, atoms.cross_numbers)}
    assert got == FAMILY1_ATOMS

    d = min_delta(atoms)
    assert d == 2

    # realization: A3 * A24 has lengths {2, 4}
    a3 = SequenceVec(support, (2, 2, 24, 3))
    a24 = SequenceVec(support, (1, 1, 3, 24))
    assert length_set(a3 * a24, atoms).values == (2, 4)

    observed = distances_oracle(atoms, (a3 * a24).length)
    assert 2 in observed
    assert all(x % 2 == 0 for x in observed)
    assert min(observed) == 2

    record = classify(support, atoms=atoms)
    assert not record.simple
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report_line(7, "C9^2xC27 family: 12 atoms with k in {1, 7/3, 5/3}, "
                    "min delta = 2 realized by the oracle, not simple",
                 elapsed)


def test_criterion_8_oracle_cross_validation():
    start = time.time()
    rng = random.Random(88230)
    groups = [g for order in range(2, 10)
              for g in abelian_groups_of_order(order)]
    checked = 0
    escalations = (2, 3, 4, 6)
    while checked < 200:
        group = rng.choice(groups)
        nonzero = list(group.nonzero_elements)
        size = rng.randint(1, min(4, len(nonzero)))
        support = SupportSet(group, tuple(rng.sample(nonzero, size)))
        atoms = enumerate_atoms(support)
        d = min_delta(atoms)
        hf = half_factorial(atoms, d)  # raises on route disagreement
        assert hf == (d == 0)
        big = atoms.davenport_constant()
        if hf:
            assert distances_oracle(atoms, 2 * big) == ()
        else:
            reached = False
            for mult in escalations:
                observed = distances_oracle(atoms, mult * big)
                assert observed, (support.elements, mult)
                assert all(x % d == 0 for x in observed)
                seen_gcd = 0
                for x in observed:
                    seen_gcd = gcd(seen_gcd, x)
                if seen_gcd == d:
                    reached = True
                    break
            assert reached, (support.elements, d, observed)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report_line(8, f"kernel min delta divides and generates the oracle "
                    f"distances on {checked} random subsets; "
                    f"half-factorial routes agree", elapsed)


def test_criterion_9_extremal_structure(main_sweeps):
    _, reports, _ = main_sweeps
    start = time.time()
    checked_sets = 0
    for order in range(3, 17):
        for group in abelian_groups_of_order(order):
            report = reports[group.orders]
            n, r = group.exponent, group.rank
            for ex in report.extremal:
                if r < n - 1:
                    assert ex.pm_pair_full_order, (group.orders, ex.subset)
                if r >= n:
                    assert ex.lcn and ex.size_is_rank_plus_one, \
                        (group.orders, ex.subset)
                if ex.lcn:
                    assert ex.unit_atoms_support_bound, (group.orders, ex.subset)
                    assert ex.heavy_atoms_complement_atom, \
                        (group.orders, ex.subset)
                    if n % 2 == 1 and r >= n - 1:
                        assert ex.has_independent_complement, \
                            (group.orders, ex.subset)
                checked_sets += 1
    assert checked_sets > 0
    _report_line(9, f"extremal-set structure holds on {checked_sets} "
                    f"attaining sets across all groups of order <= 16",
                 time.time() - start)


def test_criterion_10_transfer_reduction(sweep_cache):
    # the minimal non-half-factorial sets are read off every computed
    # subset's record, which `sweep_groups` does not keep
    start = time.time()
    rng = random.Random(1010)
    reduced_count = 0
    for order in range(3, 17):
        for group in abelian_groups_of_order(order):
            report = sweep_cache(group)
            assert len(report.records) == report.counters["subsets_computed"]
            for rec in report.records:
                if not rec.minimal_non_hf:
                    continue
                support = SupportSet(group, report.subset_elements(rec.mask))
                if satisfies_span_property(support):
                    continue
                atoms = enumerate_atoms(support)
                reduction = transfer_reduce(support, atoms=atoms)
                assert reduction.steps
                assert len(reduction.reduced) == len(support)
                assert satisfies_span_property(reduction.reduced)
                reduced_atoms = enumerate_atoms(reduction.reduced)
                assert min_delta(reduced_atoms) == rec.min_delta
                for _ in range(100):
                    b = SequenceVec.empty(support)
                    for _ in range(rng.randint(1, 6)):
                        b = b * rng.choice(atoms.atoms)
                    image = reduction.apply(b)
                    assert image.cross_number() == b.cross_number()
                    assert image.is_zero_sum()
                reduced_count += 1
    elapsed = time.time() - start
    assert reduced_count > 0
    assert elapsed < 300.0
    _report_line(10, f"transfer reduction terminates and preserves size, "
                     f"cross numbers, and min delta on {reduced_count} "
                     f"violating sets", elapsed)


def test_cli_verify_commands_exit_clean(capsys):
    """The verify front ends used by the criteria exit 0."""
    assert run_cli(["verify", "thm-1.1", "--max-order", "9"]) == 0
    assert run_cli(["verify", "prop-3.2"]) == 0
    assert run_cli(["verify", "thm-4.5", "--group", "C3^2"]) == 0
    assert run_cli(["verify", "remark-4.6", "--which", "1", "--r", "3"]) == 0
    assert run_cli(["verify", "remark-4.6", "--which", "2", "--r", "3"]) == 0
    assert run_cli(["verify", "lemma-3.1"]) == 0
    out = capsys.readouterr().out
    assert "verify thm-1.1: OK" in out
