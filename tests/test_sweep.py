import random
from dataclasses import replace
from math import gcd
from types import SimpleNamespace

import pytest

from blockmonoid import (BudgetError, ConsistencyError,
                         FiniteAbelianGroup, SubsetRecord,
                         SupportSet, SweepReport, abelian_groups_of_order,
                         build_named_set, delta_star, enumerate_atoms,
                         expected_max_delta_star)
from blockmonoid import kernel, sweep
from blockmonoid.atoms import child_entry
from oracles import (batch_child_step, echelon_delta_star, echelon_min_delta,
                     entry_fields, regroup, seed_delta_star,
                     seed_extremal_report, span_extremal_report)


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
        # max(delta*(C_n) minus {n-2}) = floor(n/2) - 1
        report = sweep_cache(FiniteAbelianGroup((n,)))
        rest = [d for d in report.delta_star if d != n - 2]
        assert max(rest, default=0) == n // 2 - 1

    def test_trivial_group_takes_the_general_path(self):
        # no atoms, lcm() = 1, a descent that visits nothing, 0 + 0 = 0 subsets
        group = FiniteAbelianGroup(())
        assert delta_star(group) == SweepReport(
            group, (), (), 0, 0, (), {
                "subsets_total": 0, "subsets_computed": 0, "subsets_pruned": 0,
                "subsets_pruned_min_delta_1": 0,
                "subsets_pruned_min_delta_above_1": 0},
            ())

    def test_budget_refusal(self):
        # the refusal names the cap it hit, not a subset count that pruning
        # makes false
        with pytest.raises(BudgetError, match=r"\|G\| = 17 exceeds the sweep cap 16"):
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
    """The incremental sweep engine against per-subset echelon readouts, which
    share no min Delta code with it."""

    @pytest.mark.parametrize("orders", [(8,), (2, 4), (3, 3), (2, 2, 2), (9,)])
    def test_every_subset(self, sweep_cache, orders):
        group = FiniteAbelianGroup(orders)
        report = sweep_cache(group)
        assert len(report.records) == report.counters["subsets_computed"]
        by_mask = {rec.mask: rec for rec in report.records}
        k = len(report.elements)
        for mask in range(1, 1 << k):
            subset = SupportSet(group, report.subset_elements(mask))
            atoms = enumerate_atoms(subset)
            expected = echelon_min_delta(atoms)
            rec = by_mask.get(mask)
            if rec is None:
                # a pruned subset's min Delta divides that of its nearest
                # computed ancestor, all of whose divisors are in Delta*
                ancestor = mask
                while ancestor not in by_mask:
                    ancestor &= ancestor - 1
                assert expected > 0
                assert by_mask[ancestor].min_delta % expected == 0
                assert expected in report.delta_star
            else:
                assert rec.min_delta == expected
                assert rec.half_factorial == kernel.half_factorial(atoms,
                                                                   expected)
                assert rec.lcn == all(x >= 1 for x in atoms.cross_numbers)


def assert_matches_full_descent(report: SweepReport, full: dict) -> None:
    """The pruned sweep against a descent that prunes only at min Delta 1:
    the same Delta*, maximum, m(G) and extremal reports; every computed
    record equal to the full descent's record at its mask, and every record
    it has beyond them of a min Delta already in Delta*; the counters add
    up to every subset, the pruned ones split by the pruning node's min
    Delta as its records show."""
    assert report.delta_star == full["delta_star"]
    assert report.max_delta_star == max(full["delta_star"], default=0)
    assert report.m_of_g == full["m_of_g"]
    assert report.extremal == full["extremal"]
    by_mask = {rec.mask: rec for rec in full["records"]}
    assert all(by_mask.get(rec.mask) == rec for rec in report.records)
    computed = {rec.mask for rec in report.records}
    assert all(rec.min_delta in report.delta_star
               for rec in full["records"] if rec.mask not in computed)
    counters = report.counters
    assert counters["subsets_computed"] == len(report.records)
    assert counters["subsets_computed"] + counters["subsets_pruned"] == \
        counters["subsets_total"] == (1 << len(report.elements)) - 1
    # a computed mask's subtree, the masks adding bits below its lowest,
    # was pruned when no child of it was computed
    split = {False: 0, True: 0}
    for rec in report.records:
        low = (rec.mask & -rec.mask).bit_length() - 1
        if not any(rec.mask | 1 << b in computed for b in range(low)):
            split[rec.min_delta > 1] += (1 << low) - 1
    assert counters["subsets_pruned_min_delta_1"] == split[False]
    assert counters["subsets_pruned_min_delta_above_1"] == split[True]
    assert split[False] + split[True] == counters["subsets_pruned"]


SEED_ORACLE_GROUPS = [g for n in range(1, 13) for g in abelian_groups_of_order(n)]
SEED_ORACLE_GROUPS += [FiniteAbelianGroup((2, 2, 2, 2)), FiniteAbelianGroup((2, 2, 4))]


class TestSeedOracle:
    """The support-mask descent against the seed descent (per-atom filter,
    row-list bases, pruning only at min Delta 1) kept in tests/oracles.py."""

    @pytest.mark.parametrize("group", SEED_ORACLE_GROUPS,
                             ids=lambda g: g.spec_string())
    def test_matches_seed_descent(self, sweep_cache, group):
        assert_matches_full_descent(sweep_cache(group), seed_delta_star(group))


ECHELON_ORACLE_GROUPS = [g for n in range(1, 17) for g in abelian_groups_of_order(n)]
ECHELON_ORACLE_GROUPS += [FiniteAbelianGroup((2, 2, 2, 3)), FiniteAbelianGroup((3, 3, 3)),
                          FiniteAbelianGroup((19,))]


class TestEchelonOracle:
    """The dual-state descent against the copied-echelon-basis descent it
    replaced, which prunes only at min Delta 1: every computed subset's
    record, the extremal reports, Delta*, m(G) and the accounting."""

    @pytest.mark.parametrize("group", ECHELON_ORACLE_GROUPS,
                             ids=lambda g: g.spec_string())
    def test_matches_echelon_descent(self, sweep_cache, group):
        assert_matches_full_descent(sweep_cache(group), echelon_delta_star(group))


def assert_steps_match_batch(group: FiniteAbelianGroup) -> SweepReport:
    """Every child step of the sweep with records against the batch step it
    replaced, fed the start pair (g, S), the (c, B) of all the new atoms,
    each B recomputed from the weights and the exponents, and e*d joined
    with the start D: the same lattice, so the same d', the same W_b when
    d' = 0 and mod e*d' when d' > 1, and a final D of e*d'; every child
    with d' = 1, whose W_b is None, is pruned; and every step from d = 0 to
    d' = 0 returns the forced weight W_b = e / ord(g_b).  The sweep's
    report."""
    fold = sweep.child_step
    steps = []

    def checked(e, d, entries, weights, start, u, w_b):
        atoms = [(entry.above, vec) for entry in entries
                 for vec in entry.vectors]
        g, big_s, big_d = start
        cs = [g] if g else []
        bs = [big_s] if g else []
        cs += [vec[0] for _, vec in atoms]
        bs += [e - sum(weights[i] * v for i, v in zip(above, vec[1:]))
               for above, vec in atoms]
        child_d, w, form = fold(e, d, entries, weights, start, u, w_b)
        want_d, want_w = batch_child_step(e, gcd(e * d, big_d) // e, cs, bs)
        assert child_d == want_d
        assert form[2] == e * child_d
        if child_d == 0:
            assert w == want_w
        elif child_d > 1:
            assert (w - want_w) % (e * child_d) == 0
        else:
            assert w is None
        steps.append((d, child_d, w))
        return child_d, w, form

    sweep.child_step = checked
    try:
        report = delta_star(group, sweep_max_group=None, records=True)
    finally:
        sweep.child_step = fold
    assert len(report.records) == report.counters["subsets_computed"] == len(steps)
    # with records, each child's record is kept right after its step, so
    # the lowest position of the record's mask is the step's b
    e = group.exponent
    for (d, child_d, w), rec in zip(steps, report.records):
        assert rec.min_delta == child_d
        if d == 0 and child_d == 0:
            b = (rec.mask & -rec.mask).bit_length() - 1
            assert w == e // group.order_of(report.elements[b]), rec.mask
    # the records come in preorder, so a computed subset below a record
    # would be the next record
    for rec, after in zip(report.records, report.records[1:]):
        if rec.min_delta == 1:
            low = rec.mask & -rec.mask
            assert after.mask & -low != rec.mask
    return report


BATCH_STEP_GROUPS = [g for n in range(1, 17) for g in abelian_groups_of_order(n)]
BATCH_STEP_GROUPS.append(FiniteAbelianGroup((2, 2, 2, 3)))


class TestBatchStepOracle:
    """Every child step of the sweep, which folds the atoms one at a time
    from its sibling's form, stops at D = e, and under a half-factorial
    parent reads each B off the carried cross number, against the batch
    step it replaced, which takes every B from the weights
    (`assert_steps_match_batch`)."""

    @pytest.mark.parametrize("group", BATCH_STEP_GROUPS,
                             ids=lambda g: g.spec_string())
    def test_every_child_step(self, sweep_cache, group):
        assert assert_steps_match_batch(group) == sweep_cache(group)


def assert_entries_match_index(group: FiniteAbelianGroup) -> SweepReport:
    """Every entry the sweep builds equals the entry of the whole-group
    `AtomSet.mask_index` at its mask, field by field, and every computed
    mask it builds none for (its mask minus the lowest position has no
    zero-sum-free vector) has no entry there; the sweep's report."""
    built = {}

    def recording(support, zf, b, positions):
        entry = child_entry(support, zf, b, positions)
        built[sum(1 << p for p in (b, *positions))] = entry
        return entry

    saved = sweep.child_entry
    sweep.child_entry = recording
    try:
        report = delta_star(group, sweep_max_group=None, records=True)
    finally:
        sweep.child_entry = saved
    index = enumerate_atoms(SupportSet(group, group.nonzero_elements)).mask_index
    for mask, entry in built.items():
        assert entry_fields(entry) == entry_fields(index.get(mask)), mask
    assert len(report.records) == report.counters["subsets_computed"]
    for rec in report.records:
        if rec.mask not in built:
            assert rec.mask not in index, rec.mask
    return report


FILED_ENTRY_GROUPS = [g for n in range(1, 17) for g in abelian_groups_of_order(n)]
FILED_ENTRY_GROUPS.append(FiniteAbelianGroup((2, 2, 2, 3)))


class TestFiledEntries:
    """The entries the sweep reads off each node's zero-sum-free vectors
    against the whole-group atom search filed by support mask."""

    @pytest.mark.parametrize("group", FILED_ENTRY_GROUPS,
                             ids=lambda g: g.spec_string())
    def test_every_filed_entry(self, sweep_cache, group):
        assert assert_entries_match_index(group) == sweep_cache(group)


RECORDS_GROUPS = [g for n in range(3, 17) for g in abelian_groups_of_order(n)]
RECORDS_GROUPS.append(FiniteAbelianGroup((2, 2, 2, 3)))


class TestRecordsOnRequest:
    """A sweep without records reads max Delta*, m(G) and the extremal sets
    off the minimal non-half-factorial records alone, and settles each
    child that contains a subset with min Delta 1 without a step: the same
    report as with every computed subset's record, records aside."""

    @pytest.mark.parametrize("group", RECORDS_GROUPS,
                             ids=lambda g: g.spec_string())
    def test_same_report_without_records(self, sweep_cache, group):
        full = sweep_cache(group)
        assert len(full.records) == full.counters["subsets_computed"]
        summary = delta_star(group, sweep_max_group=None)
        assert summary.records == ()
        assert summary == replace(full, records=())
        # m(G) over every LCN record, not just the minimal ones
        assert full.m_of_g == max(
            (rec.min_delta for rec in full.records if rec.lcn), default=0)


class TestSettledChildren:
    """Without records, a child that contains a subset with min Delta 1 is
    settled, by its sibling's form or by a filed marker, and takes no child
    step; TestRecordsOnRequest checks that the reports agree."""

    def test_fewer_steps_and_none_settled_by_its_start(self, monkeypatch):
        # C2^3xC3 settles the most children of the groups tier 1 sweeps; on
        # C30 a sibling form with D = e*x, x > 1, settles a child of a node
        # with d > 0 by the gcd with e*d alone, the one settle that the bits
        # of the forms with D = e do not carry
        fold = kernel.child_step

        def counted(e, d, entries, weights, start, u, w_b):
            steps[records] += 1
            if not records:
                assert gcd(start[2], e * d) != e
            return fold(e, d, entries, weights, start, u, w_b)

        monkeypatch.setattr(sweep, "child_step", counted)
        for orders in ((2, 2, 2, 3), (30,)):
            group = FiniteAbelianGroup(orders)
            steps = {True: 0, False: 0}
            records = True
            full = delta_star(group, records=True)
            records = False
            summary = delta_star(group)
            assert steps[True] == full.counters["subsets_computed"]
            assert 0 < steps[False] < steps[True]
            assert summary == replace(full, records=())

    def test_settle_before_min_delta_one_is_trapped(self, monkeypatch):
        # a half-factorial child that hands on a form with D = e settles
        # its sibling-derived children at min Delta 1 before any min Delta
        # 1 was recorded
        fold = kernel.child_step

        def lying(e, d, entries, weights, start, u, w_b):
            child_d, w, (g, big_s, big_d) = fold(e, d, entries, weights, start,
                                                 u, w_b)
            return child_d, w, (g, big_s, e if child_d == 0 else big_d)

        monkeypatch.setattr(sweep, "child_step", lying)
        with pytest.raises(ConsistencyError, match="before min Delta 1"):
            delta_star(FiniteAbelianGroup((3,)))

    @staticmethod
    def lie_at(monkeypatch, mask: int) -> list:
        """Make the step of `mask` hand on a form with D = e, and return the
        list that grows by one per step.  Until min Delta 1 is first
        recorded nothing is pruned or settled, and the masks are formed in
        increasing order, so the n-th step is that of mask n."""
        fold = kernel.child_step
        calls = []

        def lying(e, d, entries, weights, start, u, w_b):
            calls.append(None)
            child_d, w, (g, big_s, big_d) = fold(e, d, entries, weights, start,
                                                 u, w_b)
            return child_d, w, (g, big_s, e if len(calls) == mask else big_d)

        monkeypatch.setattr(sweep, "child_step", lying)
        return calls

    def test_trap_fires_at_the_lowest_settled_child(self, monkeypatch):
        # C12 at positions 0 .. 10 holds 1 .. 11, and min Delta 1 is first
        # recorded at mask 21.  The half-factorial {3} (mask 4) hands on
        # D = e, so its sibling {4} (mask 8) settles its child {3, 4} (mask
        # 12), after it has stepped {1, 4}, {2, 4} and {1, 2, 4} (masks 9 to
        # 11): the trap names mask 12 after 11 steps
        calls = self.lie_at(monkeypatch, 4)
        with pytest.raises(ConsistencyError,
                           match="subset mask 12 settled at min Delta 1 before"):
            delta_star(FiniteAbelianGroup((12,)))
        assert len(calls) == 11

    def test_no_trap_once_a_child_below_records_min_delta_one(self, monkeypatch):
        # the half-factorial {4} (mask 8) hands on D = e, so its sibling {5}
        # (mask 16) settles its child {4, 5} (mask 24); before that it steps
        # its children below, and {1, 3, 5} (mask 21), in the subtree of
        # {3, 5}, records the sweep's first min Delta 1
        self.lie_at(monkeypatch, 8)
        assert 1 in delta_star(FiniteAbelianGroup((12,))).delta_star


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
        assert len(report.records) == report.counters["subsets_computed"]
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
        assert delta_star(group, records=True) == delta_star(group, records=True)


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
        assert len(report.records) == report.counters["subsets_computed"]
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


EXTREMAL_GROUPS = [g for n in range(1, 17) for g in abelian_groups_of_order(n)]
EXTREMAL_GROUPS.append(FiniteAbelianGroup((2, 2, 2, 3)))


class TestExtremalReports:
    """The reports read off the support-mask index and the whole-group span
    table against `seed_extremal_report`, which restricts the whole atom set
    to each subset and builds a support set for it."""

    def test_every_field_on_every_extremal_set(self, sweep_cache):
        sets = lcn = 0
        for group in EXTREMAL_GROUPS:
            report = sweep_cache(group)
            if not report.extremal:
                continue
            assert len(report.records) == report.counters["subsets_computed"]
            atoms = enumerate_atoms(SupportSet(group, report.elements))
            expected = tuple(
                seed_extremal_report(group, report.elements, atoms, rec)
                for rec in report.records
                if rec.minimal_non_hf and rec.min_delta == report.max_delta_star)
            assert report.extremal == expected, group.spec_string()
            sets += len(expected)
            lcn += sum(ex.lcn for ex in expected)
        assert (sets, lcn) == (356, 287)

    @pytest.mark.parametrize(
        "group", [g for n in range(2, 13) for g in abelian_groups_of_order(n)],
        ids=lambda g: g.spec_string())
    def test_every_computed_subset(self, sweep_cache, group):
        # every flag takes both values here, the atom-inventory ones on the
        # LCN records
        report = sweep_cache(group)
        support = SupportSet(group, report.elements)
        atoms = enumerate_atoms(support)
        index = atoms.mask_index
        assert len(report.records) == report.counters["subsets_computed"]
        for rec in report.records:
            assert sweep._extremal_report(support, index, rec) == \
                seed_extremal_report(group, report.elements, atoms, rec)

    def test_heavy_atom_reaching_the_rank(self):
        # no LCN set of the groups above has a heavy atom with k(A) >= r whose
        # complement is an atom, so that bound is checked on a made-up
        # inventory: over {1, 2} in C3, k((2,2)) = 4/3 >= r = 1, and the
        # complement (1,1) is listed
        group = FiniteAbelianGroup((3,))
        support = SupportSet(group, group.nonzero_elements)
        atoms = regroup(support, [(1, 1), (2, 2)])
        rec = SubsetRecord(0b11, 1, False, True, True)
        got = sweep._extremal_report(support, atoms.mask_index, rec)
        assert got == seed_extremal_report(group, support.elements, atoms, rec)
        assert got.heavy_atoms_complement_atom is False

    def test_complement_on_a_remark_set(self):
        # the LCN extremal set of Remark 4.6.2 at r = 3: each heavy atom
        # covers all four positions and its complement is an atom
        support = build_named_set("remark-4.6.2", r=3)
        atoms = enumerate_atoms(support)
        rec = SubsetRecord(0b1111, 2, False, True, True)
        got = sweep._extremal_report(support, atoms.mask_index, rec)
        assert got == seed_extremal_report(support.group, support.elements,
                                           atoms, rec)
        assert got.heavy_atoms_complement_atom is True

    def test_complement_below_the_atom(self):
        # a heavy atom that misses the lowest position of the set has a
        # complement with ord(g) copies there, so the complement's own
        # lowest position, not the atom's, keys its sparse form.  Over real
        # atoms such a complement contains g^ord(g) and is no atom, so the
        # inventory is made up: over {(1,0), (0,1), (3,3)} in C4^2, the
        # complement of (0, 2, 3), k = 5/4, is (4, 2, 1), k = 7/4, and the
        # other way round
        group = FiniteAbelianGroup((4, 4))
        support = SupportSet(group, ((1, 0), (0, 1), (3, 3)))
        atoms = regroup(support, [(0, 2, 3), (4, 2, 1)])
        rec = SubsetRecord(0b111, 1, False, True, True)
        got = sweep._extremal_report(support, atoms.mask_index, rec)
        assert got == seed_extremal_report(group, support.elements, atoms, rec)
        assert got.heavy_atoms_complement_atom is True


class TestExtremalSpanReads:
    """The report reads one span per unordered pair and one per element of
    the set, against `span_extremal_report`, which asks `in_span` for each
    ordered pair and `is_independent` for each one-element complement."""

    def test_random_subsets_up_to_order_32(self):
        rng = random.Random(32)
        flags = set()
        for group in [g for n in range(2, 33) for g in abelian_groups_of_order(n)]:
            elements = group.nonzero_elements
            # one support per path, so each memo holds only its own reads
            fast = SupportSet(group, elements)
            slow = SupportSet(group, elements)
            for _ in range(100):
                size = rng.randint(1, min(len(elements), 7))
                mask = sum(1 << i for i in rng.sample(range(len(elements)), size))
                rec = SubsetRecord(mask, rng.randint(1, 5), False,
                                   rng.random() < 0.5, True)
                got = sweep._extremal_report(fast, {}, rec)
                assert got == span_extremal_report(slow, {}, rec), \
                    (group.spec_string(), mask)
                flags.add((got.no_two_element_span_gap,
                           got.has_independent_complement))
            # every span mask read is one the ordered-pair checks read too
            # (they may read more before the first element in span), so the
            # whole-group memo does not grow
            assert fast._span_masks.keys() <= slow._span_masks.keys()
        assert len(flags) == 4


class TestHalfFactorialityTrap:
    """The descent checks min Delta 0 against "every atom has k(A) = 1"."""

    def test_generator_forced_to_zero(self, monkeypatch):
        child_step = kernel.child_step

        def forced(e, d, entries, weights, start, u, w_b):
            _, w, form = child_step(e, d, entries, weights, start, u, w_b)
            return 0, w, form

        monkeypatch.setattr(sweep, "child_step", forced)
        with pytest.raises(ConsistencyError, match="routes disagree"):
            delta_star(FiniteAbelianGroup((3,)))

    def test_nonunit_flags_cleared(self, monkeypatch):
        def cleared(support, zf, b, positions):
            entry = child_entry(support, zf, b, positions)
            if entry is not None:
                entry.nonunit = False
            return entry

        monkeypatch.setattr(sweep, "child_entry", cleared)
        with pytest.raises(ConsistencyError, match="routes disagree"):
            delta_star(FiniteAbelianGroup((3,)))


def fake_entry(above, *vectors, scaled=None):
    """A stand-in index entry: the positions `above` b, one exponent tuple
    per atom, a_b first, and one scaled cross number per atom, None unless
    given (the fold reads them only at d = 0)."""
    return SimpleNamespace(above=above, vectors=list(vectors),
                           scaled=scaled or [None] * len(vectors))


class TestDualStateTraps:
    """The child step's consistency checks, each fed atoms that no set of
    atoms produces: an atom a comes as an exponent tuple, c = a_b first and
    then a_i at the entry's positions i above b, and the fold computes
    B = e - sum W_i a_i from the weights given at d > 0, and
    B = e - u*n k(a) + c*W_b from the cross number, u and W_b given at
    d = 0.  Whatever a step does not read is passed as None."""

    def test_exponent_divides_d(self):
        # B = 0, then 4 + 2 = 6: g = 1, S = 0 and D = gcd(12, 0 - 6) = 6, which
        # stays above e = 4, so the fold ends and 4 does not divide D
        with pytest.raises(ConsistencyError, match="does not divide D = 6"):
            kernel.child_step(4, 3, [fake_entry((0,), (1, 1)),
                                     fake_entry((1,), (1, 1))], [4, -2],
                              (0, 0, 0), None, None)

    def test_g_divides_s_when_half_factorial(self):
        # B = 4 - 1*9 + 2*3 = 1: g = 2, S = 1 and D stays 0, but 2 does not
        # divide 1
        with pytest.raises(ConsistencyError, match="half-factorial child"):
            kernel.child_step(4, 0, [fake_entry((0,), (2, 1), scaled=[9])], None,
                              (0, 0, 0), 1, 3)

    def test_weight_congruence_solvable(self):
        # B = 2 - 1 = 1: g = 2, S = 1 and D = 4, but gcd(2, 4) does not
        # divide 1 (d = 1 would end the fold before it read the atom)
        with pytest.raises(ConsistencyError, match=r"gcd\(2, 4\) does not divide 1"):
            kernel.child_step(2, 2, [fake_entry((0,), (2, 1))], [1], (0, 0, 0),
                              None, None)

    def test_d_below_exponent_partway(self):
        # B = 0, 2, 1: D = gcd(8, 0 - 2) = 2 at the second atom, which is no
        # multiple of e = 4; the fold stops there, where it would have read
        # D = 1 at the end
        with pytest.raises(ConsistencyError, match="does not divide D = 2$"):
            kernel.child_step(4, 2, [fake_entry((0, 1), (1, 1, 0), (1, 0, 1)),
                                     fake_entry((2,), (1, 1))], [4, 2, 3],
                              (0, 0, 0), None, None)


class TestEarlyExit:
    """D = e ends the fold with (1, None, form) at the atom that brings it
    there, or before any atom when the start form has it."""

    def test_at_the_last_atom(self):
        # B = 0, then 4 - 0 = 4: g = 1, S = 0 and D = gcd(8, 0 - 4) = 4 = e
        assert kernel.child_step(4, 2, [fake_entry((0, 1), (1, 1, 0), (1, 0, 1))],
                                 [4, 0], (0, 0, 0), None, None) == (1, None, (1, 0, 4))

    def test_later_atoms_unread(self):
        # the third atom's weight is None, which it would fail to read
        assert kernel.child_step(4, 2, [fake_entry((0, 1), (1, 1, 0), (1, 0, 1)),
                                        fake_entry((2,), (1, 1))],
                                 [4, 0, None], (0, 0, 0), None, None) == \
            (1, None, (1, 0, 4))

    @pytest.mark.parametrize("d,start,form", [
        (2, (1, 0, 4), (1, 0, 4)),    # the sibling ended at D = e
        (3, (2, 1, 8), (2, 1, 4)),    # gcd(8, e*d = 12) = 4 = e
        (1, (0, 0, 0), (0, 0, 4)),    # e*d = e on its own
    ])
    def test_start_at_exponent_reads_no_atom(self, d, start, form):
        def unread():
            raise AssertionError("the fold read an entry")
            yield

        assert kernel.child_step(4, d, unread(), None, start, None, None) == \
            (1, None, form)

    def test_min_delta_stops_inside_a_position(self, monkeypatch):
        # on the whole of C3^2 the first position brings 4 atoms, and D = e
        # at the second of them
        fold = kernel.child_step
        steps = []

        def counted(e, d, entries, weights, start, u, w_b):
            read = 0

            def walk(vectors):
                nonlocal read
                for atom in vectors:
                    read += 1
                    yield atom

            out = fold(e, d, [SimpleNamespace(above=entry.above,
                                              vectors=walk(entry.vectors),
                                              scaled=entry.scaled)
                              for entry in entries], weights, start, u, w_b)
            steps.append((out[0], read, sum(len(entry.vectors) for entry in entries)))
            return out

        monkeypatch.setattr(kernel, "child_step", counted)
        group = FiniteAbelianGroup((3, 3))
        atoms = enumerate_atoms(SupportSet(group, group.nonzero_elements))
        assert kernel.min_delta(atoms) == 1
        assert steps[-1] == (1, 2, 4)
