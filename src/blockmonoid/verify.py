"""Verification routines behind the `verify` CLI subcommands.

Each routine recomputes a published identity from scratch and reports one
line per check.  A failed check falsifies the implementation, not the
identity, and flips the process exit code.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .atoms import enumerate_atoms
from .classify import build_named_set, classify
from .config import (DEFAULT_ENUMERATION_BUDGET, DEFAULT_MEMO_LIMIT,
                     DEFAULT_ORACLE_VECTOR_LIMIT)
from .groups import FiniteAbelianGroup, abelian_groups_of_order, prime_factors
from .lengths import distances_oracle
from .sequences import SupportSet
from .sweep import SweepReport, delta_star


@dataclass
class VerifyResult:
    name: str
    ok: bool = True
    lines: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def check(self, label: str, passed: bool):
        self.lines.append(f"{label} {'OK' if passed else 'FAIL'}")
        self.ok = self.ok and passed


def expected_max_delta_star(group: FiniteAbelianGroup) -> int:
    """max{exp(G) - 2, r(G) - 1} with the max-of-empty-set-is-0 convention."""
    if group.size <= 2:
        return 0
    return max(group.exponent - 2, group.rank - 1)


def sweep_groups(max_order: int) -> dict[tuple[int, ...], SweepReport]:
    """The sweep of every abelian group of order <= max_order, with no |G|
    cap, keyed by component orders, by order and then in the order of
    `abelian_groups_of_order`."""
    return {group.orders: delta_star(group)
            for order in range(1, max_order + 1)
            for group in abelian_groups_of_order(order)}


def verify_main_theorem(reports: dict) -> VerifyResult:
    """Compare max of the minimal distances of each swept group against
    max{exp(G)-2, r(G)-1} (empty for orders <= 2)."""
    result = VerifyResult("thm-1.1")
    for report in reports.values():
        group = report.group
        if group.size <= 2:
            result.check(
                f"{group.spec_string()}: delta* = {{}} (order <= 2)",
                report.delta_star == ())
            continue
        want = expected_max_delta_star(group)
        result.check(
            f"{group.spec_string()}: max delta* = {report.max_delta_star} "
            f"= max{{{group.exponent - 2},{group.rank - 1}}}",
            report.max_delta_star == want)
    return result


def verify_p_group_m(reports: dict) -> VerifyResult:
    """m(G) = r(G) - 1 on every swept abelian p-group."""
    result = VerifyResult("prop-3.2")
    for report in reports.values():
        group = report.group
        if len(prime_factors(group.size)) != 1:
            continue
        result.check(f"{group.spec_string()}: m(G) = {report.m_of_g} "
                     f"= r-1 = {group.rank - 1}",
                     report.m_of_g == group.rank - 1)
    return result


def verify_extremal_structure(report: SweepReport) -> VerifyResult:
    """Structure of the minimal non-half-factorial sets attaining the maximum:

    r < n-1: every attainer is {g, -g} with ord(g) = n.
    r = n-1: attainers are either such pairs or LCN-sets of size r+1.
    r >= n:  every attainer is an LCN-set of size r+1 with the span-gap
             property, and (n odd) some element has an independent complement.
    LCN attainers additionally satisfy the atom-inventory bounds.
    """
    result = VerifyResult("thm-4.5")
    group = report.group
    n = group.exponent
    r = group.rank
    name = group.spec_string()
    result.data["extremal_count"] = len(report.extremal)
    for ex in report.extremal:
        label = f"{name} {ex.subset}"
        if r < n - 1:
            result.check(f"{label}: pm pair of full order", ex.pm_pair_full_order)
        elif r == n - 1:
            result.check(
                f"{label}: pm pair or LCN of size r+1",
                ex.pm_pair_full_order or (
                    ex.lcn and ex.size_is_rank_plus_one
                    and ex.no_two_element_span_gap))
        else:
            result.check(
                f"{label}: LCN of size r+1 with span gaps",
                ex.lcn and ex.size_is_rank_plus_one and ex.no_two_element_span_gap)
        if ex.lcn:
            result.check(f"{label}: unit atoms have support <= n/2",
                         ex.unit_atoms_support_bound is True)
            result.check(f"{label}: heavy atoms have k < r and atom complement",
                         ex.heavy_atoms_complement_atom is True)
            if n % 2 == 1 and r >= n - 1:
                result.check(f"{label}: independent complement exists (n odd)",
                             ex.has_independent_complement)
    return result


def verify_pm_and_basis_families(max_n: int = 10) -> VerifyResult:
    """{g,-g} in C_n gives 3 atoms and min distance n-2 for n in [3, max_n];
    the basis-plus-sum set in C_p^s gives min distance s-1 for small (p, s)."""
    result = VerifyResult("lemma-3.1")
    for n in range(3, max_n + 1):
        group = FiniteAbelianGroup((n,))
        record = classify(build_named_set("pm", group))
        result.check(
            f"C{n} pm pair: atoms = {record.atom_count}, "
            f"min delta = {record.min_delta} (want {n - 2})",
            record.atom_count == 3 and record.min_delta == n - 2
            and record.minimal_non_hf)
    for p, s in ((2, 2), (2, 3), (3, 2), (5, 2)):
        group = FiniteAbelianGroup((p,) * s)
        record = classify(build_named_set("eps", group))
        result.check(
            f"C{p}^{s} basis-plus-sum: min delta = {record.min_delta} "
            f"(want {s - 1})",
            record.min_delta == s - 1)
    return result


# -- the two named example families -----------------------------------------------


def expected_family_atoms(which: int, support: SupportSet) -> dict[tuple[int, ...], Fraction]:
    """Expected atom inventory (exponent vector -> cross number), any r >= 3.

    Exponent positions follow the construction order of build_named_set.
    """
    r = len(support.group.orders)
    k = len(support)
    expected: dict[tuple[int, ...], Fraction] = {}

    def vec(assignments: dict[int, int]) -> tuple[int, ...]:
        out = [0] * k
        for pos, mult in assignments.items():
            out[pos] = mult
        return tuple(out)

    if which == 1:
        # support order: 3e_1 ... 3e_{r-1}, e_r, g
        e_r, g = k - 2, k - 1
        for i in range(r - 1):
            expected[vec({i: 3})] = Fraction(1)
        expected[vec({e_r: 27})] = Fraction(1)
        expected[vec({g: 27})] = Fraction(1)
        expected[vec({g: 9, e_r: 18})] = Fraction(1)
        expected[vec({g: 18, e_r: 9})] = Fraction(1)
        for a, c in ((3, 2), (6, 1), (12, 2), (15, 1), (21, 2), (24, 1)):
            entry = {i: c for i in range(r - 1)}
            entry.update({g: a, e_r: 27 - a})
            heavy = Fraction(2 * r + 1, 3) if c == 2 else Fraction(r + 2, 3)
            expected[vec(entry)] = heavy
    elif which == 2:
        # support order: e_1 ... e_{r-3}, e_{r-2}+e_{r-1}, e_{r-1}, e_r, g
        mid, e_r1, e_r, g = k - 4, k - 3, k - 2, k - 1
        for i in range(r - 3):
            expected[vec({i: 2})] = Fraction(1)
        for pos in (mid, e_r1, e_r, g):
            expected[vec({pos: 4})] = Fraction(1)
        expected[vec({mid: 2, e_r1: 2})] = Fraction(1)
        expected[vec({g: 2, e_r: 2})] = Fraction(1)
        for a, b in ((1, 1), (1, 3), (3, 1), (3, 3)):
            entry = {i: 1 for i in range(r - 3)}
            entry.update({g: a, e_r: 4 - a, mid: b, e_r1: 4 - b})
            expected[vec(entry)] = Fraction(r + 1, 2)
    else:
        raise ValueError(f"which must be 1 or 2, got {which}")
    return expected


def verify_named_family(which: int, r: int = 3,
                        oracle_max_len: int | None = None) -> VerifyResult:
    """Check the atom inventory, min distance, and structural flags of the
    named non-simple families; with an oracle pass for which=1.

    The atoms are enumerated under the default enumeration budget and the
    oracle runs under the default vector and memo limits, so a rank too
    large for either is refused with a `BudgetError` naming its bound.
    Independence and spans are read off the support's span table.
    """
    result = VerifyResult(f"remark-4.6.{which}")
    support = build_named_set(f"remark-4.6.{which}", r=r)
    atoms = enumerate_atoms(support, DEFAULT_ENUMERATION_BUDGET)
    expected = expected_family_atoms(which, support)

    got = {a.exponents: kv for a, kv in zip(atoms.atoms, atoms.cross_numbers)}
    result.check(f"atom inventory matches ({len(expected)} atoms)", got == expected)

    record = classify(support, atoms=atoms)
    d = record.min_delta
    result.check(f"min delta = {d} = r-1", d == r - 1)
    result.check("minimal non-half-factorial LCN-set",
                 record.minimal_non_hf and record.lcn)
    result.check("not simple", not record.simple)

    elems = support.elements
    full = (1 << len(elems)) - 1
    if which == 1:
        # e_r and g sit at the last two positions
        e_r, g_sum = len(elems) - 2, len(elems) - 1
        result.check("(e_r, g) dependent",
                     not support.is_independent((1 << e_r) | (1 << g_sum)))
        result.check("complements of g and e_r independent",
                     support.is_independent(full ^ (1 << g_sum))
                     and support.is_independent(full ^ (1 << e_r)))
        result.check("g and e_r outside their complement spans",
                     not support.in_span(g_sum, full ^ (1 << g_sum))
                     and not support.in_span(e_r, full ^ (1 << e_r)))
        max_len = oracle_max_len
        if max_len is None:
            max_len = 2 * atoms.davenport_constant()
        observed = distances_oracle(atoms, max_len,
                                    vector_limit=DEFAULT_ORACLE_VECTOR_LIMIT,
                                    memo_limit=DEFAULT_MEMO_LIMIT)
        result.check(
            f"oracle at max_len={max_len} sees {observed}: multiples of {d}, "
            f"minimum {d}",
            bool(observed) and min(observed) == d
            and all(x % d == 0 for x in observed))
    else:
        result.check("no element has an independent complement",
                     not any(support.is_independent(full ^ (1 << i))
                             for i in range(len(elems))))
        result.check("min delta = max{exp-2, r-1}",
                     d == expected_max_delta_star(support.group))
    result.data["atom_count"] = len(atoms)
    result.data["min_delta"] = d
    return result


def verify_all(max_order: int = 16) -> VerifyResult:
    """Every routine above in one result: thm-1.1 and prop-3.2 on one
    `sweep_groups(max_order)`, lemma-3.1, remark-4.6.1 and 4.6.2 at r = 3,
    and thm-4.5 on every swept group with extremal sets.  Each check line is
    prefixed with the name of its routine."""
    reports = sweep_groups(max_order)
    runs = [verify_main_theorem(reports),
            verify_p_group_m(reports),
            verify_pm_and_basis_families(),
            verify_named_family(1, r=3),
            verify_named_family(2, r=3)]
    runs += [verify_extremal_structure(report)
             for _, report in sorted(reports.items()) if report.extremal]
    result = VerifyResult("all")
    for run in runs:
        result.lines.extend(f"{run.name}: {line}" for line in run.lines)
        result.ok = result.ok and run.ok
    return result
