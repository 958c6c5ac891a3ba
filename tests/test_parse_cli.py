import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmonoid import (ConsistencyError, ContractError, FiniteAbelianGroup,
                         ParseError, SequenceVec,
                         SupportSet, delta_star, parse_group, parse_sequence,
                         parse_subset)
from blockmonoid import report as rpt
from blockmonoid.cli import run
from blockmonoid.config import MAX_GROUP_COMPONENTS
from blockmonoid.specparse import format_subset


class TestParseGroup:
    def test_basic(self):
        assert parse_group("C2^2xC4").orders == (2, 2, 4)

    def test_whitespace_tolerated(self):
        assert parse_group("C2^2xC4x C4").orders == (2, 2, 4, 4)

    def test_single(self):
        assert parse_group("C5").orders == (5,)

    # str.isdigit() holds for the superscript two, which int() refuses
    @pytest.mark.parametrize("text", ["", "D4", "C", "C1", "C4^0", "C4x", "C4y",
                                      "C\u00b2"])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_group(text)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_group("C4x?")
        assert info.value.position == 3

    @pytest.mark.parametrize("text, position", [
        ("C2^1000000000", 3),
        # the running count: one component and then the cap's worth
        (f"C2xC3^{MAX_GROUP_COMPONENTS}", 6),
    ])
    def test_component_count_capped(self, text, position):
        # refused at the exponent, before a tuple of that many orders is built
        with pytest.raises(ParseError) as info:
            parse_group(text)
        assert info.value.position == position
        assert info.value.expected == \
            f"at most {MAX_GROUP_COMPONENTS} cyclic components in all"


class TestParseSubset:
    def test_remark_set(self):
        support = parse_subset("(3,0,0);(0,3,0);(0,0,1);(1,1,1)",
                               parse_group("C9^2xC27"))
        assert support.elements == ((3, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 1))

    def test_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_subset("(0)", parse_group("C5"))

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError):
            parse_subset("(1);(1)", parse_group("C5"))

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError):
            parse_subset("(7)", parse_group("C5"))

    def test_arity_checked(self):
        with pytest.raises(ParseError):
            parse_subset("(1,2)", parse_group("C5"))

    @pytest.mark.parametrize("text", ["", "  "])
    def test_empty_rejected_with_a_position(self, text):
        with pytest.raises(ParseError) as info:
            parse_subset(text, parse_group("C5"))
        assert info.value.position == len(text)


class TestParseSequence:
    def test_basic(self):
        support = parse_subset("(1);(4)", parse_group("C5"))
        seq = parse_sequence("(1)^5*(4)^5", support)
        assert seq.exponents == (5, 5)

    def test_repeats_accumulate(self):
        support = parse_subset("(1);(4)", parse_group("C5"))
        assert parse_sequence("(1)*(1)^2", support).exponents == (3, 0)

    def test_unknown_element(self):
        support = parse_subset("(1);(4)", parse_group("C5"))
        with pytest.raises(ParseError):
            parse_sequence("(2)", support)


# the most digits int() converts from a string; 0 (or no such limit) means
# it converts any number of them
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "9" * (INT_DIGITS + 1)


@pytest.mark.skipif(not INT_DIGITS,
                    reason="int() converts strings of any length here")
class TestOverLongIntegers:
    """An integer past the digit limit of int() is a positioned parse error,
    not the ValueError that int() raises."""

    def assert_refused(self, parse, text, position):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == position
        assert info.value.expected == f"an integer of at most {INT_DIGITS} digits"

    def test_group_order(self):
        self.assert_refused(parse_group, "C" + TOO_LONG, 1)
        self.assert_refused(parse_group, "C4^" + TOO_LONG, 3)

    def test_subset_coordinate(self):
        group = parse_group("C5")
        self.assert_refused(lambda text: parse_subset(text, group),
                            "(1);(" + TOO_LONG + ")", 5)

    def test_sequence_exponent(self):
        support = parse_subset("(1);(4)", parse_group("C5"))
        self.assert_refused(lambda text: parse_sequence(text, support),
                            "(1)^5*(4)^" + TOO_LONG, 10)

    def test_cli_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli_main("atoms", "--group", "C" + TOO_LONG, "--subset", "(1)")
        assert info.value.code == 2


small_groups = st.builds(
    FiniteAbelianGroup,
    st.lists(st.integers(2, 9), min_size=1, max_size=3).map(tuple))


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(small_groups)
    def test_group(self, group):
        assert parse_group(group.spec_string()) == group

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_subset_and_sequence(self, data):
        group = data.draw(small_groups.filter(lambda g: g.size <= 64))
        nonzero = list(group.nonzero_elements)
        size = data.draw(st.integers(1, min(3, len(nonzero))))
        elems = tuple(data.draw(st.permutations(nonzero))[:size])
        support = SupportSet(group, elems)
        assert parse_subset(format_subset(elems), group) == support
        exps = data.draw(st.tuples(*(st.integers(0, 3) for _ in range(size))))
        seq = SequenceVec(support, exps)
        if any(exps):
            assert parse_sequence(seq.format(), support) == seq


# `delta-star --group C2xC3 --format csv`, byte for byte
DELTA_STAR_C2XC3_CSV = (
    'subset,min_delta,half_factorial,lcn,minimal_non_hf\n'
    '"(0,1)",0,True,True,False\n'
    '"(0,2)",0,True,True,False\n'
    '"(0,1);(0,2)",1,False,False,True\n'
    '"(1,0)",0,True,True,False\n'
    '"(0,1);(1,0)",0,True,True,False\n'
    '"(0,2);(1,0)",0,True,True,False\n'
    '"(0,1);(0,2);(1,0)",1,False,False,False\n'
    '"(1,1)",0,True,True,False\n'
    '"(0,1);(1,1)",1,False,False,True\n'
    '"(0,2);(1,1)",0,True,True,False\n'
    '"(0,1);(0,2);(1,1)",1,False,False,False\n'
    '"(1,0);(1,1)",0,True,True,False\n'
    '"(0,1);(1,0);(1,1)",1,False,False,False\n'
    '"(0,2);(1,0);(1,1)",0,True,True,False\n'
    '"(0,1);(0,2);(1,0);(1,1)",1,False,False,False\n'
    '"(1,2)",0,True,True,False\n'
    '"(0,1);(1,2)",0,True,True,False\n'
    '"(0,2);(1,2)",1,False,False,True\n'
    '"(1,0);(1,2)",0,True,True,False\n'
    '"(0,1);(1,0);(1,2)",0,True,True,False\n'
    '"(0,2);(1,0);(1,2)",1,False,False,False\n'
    '"(1,1);(1,2)",4,False,False,True\n'
    '"(0,1);(1,1);(1,2)",1,False,False,False\n'
    '"(0,2);(1,1);(1,2)",1,False,False,False\n'
    '"(1,0);(1,1);(1,2)",2,False,False,False\n'
)


# sha256 of `delta-star --group C2^3xC3 --budget 24 --format csv`
DELTA_STAR_C2_3XC3_CSV_SHA256 = (
    "7887b8710582003d263642b0df7109e211d4c292c5a8bc9470c9d029c6b0e515")


GOLDEN_TABLE = os.path.join(os.path.dirname(__file__), "golden",
                            "delta_star_max_order_48.txt")


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue()


class TestCli:
    def test_atoms_text(self):
        code, out = run_cli("atoms", "--group", "C5", "--subset", "(1);(4)")
        assert code == 0
        assert "D(G0) = 5" in out

    def test_atoms_json_deterministic(self):
        args = ("atoms", "--group", "C2xC4^2", "--subset",
                "(1,1,0);(0,1,0);(0,0,1);(1,0,1)", "--format", "json")
        code1, out1 = run_cli(*args)
        code2, out2 = run_cli(*args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["atom_count"] == 10
        assert payload["cross_number"] == "2"

    def test_lengths(self):
        code, out = run_cli("lengths", "--group", "C5", "--subset", "(1);(4)",
                            "--sequence", "(1)^5*(4)^5")
        assert code == 0
        assert "{2, 5}" in out and "{3}" in out

    def test_min_delta_json(self):
        code, out = run_cli("min-delta", "--group", "C5", "--subset", "(1);(4)",
                            "--format", "json", "--explain")
        assert code == 0
        payload = json.loads(out)
        assert payload["min_delta"] == 3
        assert payload["half_factorial"] is False
        assert payload["kernel_rank"] == 1
        assert abs(sum(payload["witness"]["kernel_vector"])) == 3

    @pytest.mark.parametrize("explain, calls", [((), 1), (("--explain",), 2)])
    def test_min_delta_evaluated_once_outside_the_witness(self, monkeypatch,
                                                         explain, calls):
        # the witness evaluates min Delta once more for its kernel-gcd check
        cli = importlib.import_module("blockmonoid.cli")
        kernel = importlib.import_module("blockmonoid.kernel")
        min_delta = kernel.min_delta
        seen = []

        def counted(atoms):
            seen.append(atoms)
            return min_delta(atoms)

        argv = ("min-delta", "--group", "C5", "--subset", "(1);(4)", *explain)
        expected = run_cli(*argv)
        monkeypatch.setattr(cli, "min_delta", counted)
        monkeypatch.setattr(kernel, "min_delta", counted)
        assert run_cli(*argv) == expected
        assert len(seen) == calls

    def test_min_delta_checks_the_cross_number_route(self, monkeypatch):
        cli = importlib.import_module("blockmonoid.cli")
        monkeypatch.setattr(cli, "min_delta", lambda atoms: 0)
        with pytest.raises(ConsistencyError, match="routes disagree"):
            run_cli("min-delta", "--group", "C5", "--subset", "(1);(4)")

    def test_classify_half_factorial_json(self):
        code, out = run_cli("classify", "--group", "C4", "--subset", "(1);(2)",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["min_delta"] == 0

    def test_delta_observed(self):
        code, out = run_cli("delta-observed", "--group", "C5",
                            "--subset", "(1);(4)", "--max-len", "10")
        assert code == 0
        assert "{3}" in out

    def test_delta_star_json_schema(self):
        code, out = run_cli("delta-star", "--group", "C5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["group"] == "C5"
        assert payload["delta_star"] == [1, 3]
        assert payload["max_delta_star"] == 3
        assert payload["m_of_g"] == 0
        assert all(set(e) == {"subset", "flags"} for e in payload["extremal"])

    def test_delta_star_csv(self):
        # 25 computed subsets in mask order; the 6 subsets in pruned
        # subtrees have no row: 4 below min Delta 1 subsets, and 2 below
        # (1,0);(1,1);(1,2), whose min Delta 2 has its divisors 1 and 2
        # recorded before it
        code, out = run_cli("delta-star", "--group", "C2xC3", "--format", "csv")
        assert code == 0
        assert out == DELTA_STAR_C2XC3_CSV

    def test_delta_star_csv_of_c2_3xc3(self):
        # the records of the 12840 computed subsets, pinned by digest
        code, out = run_cli("delta-star", "--group", "C2^3xC3", "--budget",
                            "24", "--format", "csv")
        assert code == 0
        assert out.count("\n") == 12841
        assert hashlib.sha256(out.encode()).hexdigest() == DELTA_STAR_C2_3XC3_CSV_SHA256

    @pytest.mark.parametrize("fmt", rpt.FORMATS)
    def test_delta_star_keeps_records_for_csv_only(self, monkeypatch, fmt):
        asked = []

        def recorded(group, **kwargs):
            asked.append(kwargs["records"])
            return delta_star(group, **kwargs)

        monkeypatch.setattr(importlib.import_module("blockmonoid.cli"),
                            "delta_star", recorded)
        assert run_cli("delta-star", "--group", "C2xC3", "--format", fmt)[0] == 0
        assert asked == [fmt == "csv"]

    def test_csv_refused_without_records(self):
        # a bare header would read as a sweep that computed no subset
        report = delta_star(FiniteAbelianGroup((2, 3)))
        assert report.records == ()
        with pytest.raises(ContractError, match="records=True"):
            rpt.emit_sweep(report, "csv")
        assert rpt.emit_sweep(report, "text") == rpt.emit_sweep(
            delta_star(FiniteAbelianGroup((2, 3)), records=True), "text")

    @pytest.mark.parametrize("fmt, expected", [
        ("text", "group        exp rank max d* m(G) #extremal delta*\n"
                 "--------------------------------------------------\n"
                 "C3             3    1      1    0         1 {1}\n"
                 "C2^2           2    2      1    1         1 {1}\n"
                 "C4             4    1      2    0         1 {1,2}\n"),
        ("csv", "group,exponent,rank,max_delta_star,m_of_g,extremal_count,"
                "delta_star\nC3,3,1,1,0,1,1\nC2^2,2,2,1,1,1,1\n"
                "C4,4,1,2,0,1,1 2\n"),
    ])
    def test_delta_star_table(self, fmt, expected):
        code, out = run_cli("delta-star", "--max-order", "4", "--format", fmt)
        assert code == 0
        assert out == expected

    def test_delta_star_table_matches_golden(self):
        # the pinned `delta-star --max-order 48` table opens with the header,
        # the rule and the 23 groups of order 3 .. 16, the whole of the
        # order-16 table; the weekly CI job regenerates all of it
        with open(GOLDEN_TABLE) as f:
            head = "".join(itertools.islice(f, 25))
        assert run_cli("delta-star", "--max-order", "16") == (0, head)

    def test_delta_star_table_json(self):
        code, out = run_cli("delta-star", "--max-order", "6", "--format", "json")
        assert code == 0
        rows = json.loads(out)["groups"]
        assert [r["group"] for r in rows] == ["C3", "C2^2", "C4", "C5", "C2xC3"]
        assert rows[-1] == {"group": "C2xC3", "exponent": 6, "rank": 1,
                            "max_delta_star": 4, "m_of_g": 0,
                            "extremal_count": 1, "delta_star": [1, 2, 4]}

    def test_delta_star_needs_group_or_max_order(self):
        for argv in (("delta-star",),
                     ("delta-star", "--group", "C3", "--max-order", "4")):
            with pytest.raises(SystemExit) as info:
                run_cli_main(*argv)
            assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("verify", "thm-1.1", "--max-order", "-3"),
        ("verify", "thm-1.1", "--max-order", "0"),
        ("verify", "all", "--max-order", "0"),
        ("verify", "prop-3.2", "--max-order", "0"),
        ("delta-star", "--max-order", "2"),
        ("verify", "lemma-3.1", "--max-n", "2"),
        ("verify", "remark-4.6", "--which", "1", "--max-len", "0"),
        ("delta-observed", "--group", "C5", "--subset", "(1);(4)",
         "--max-len", "0"),
        ("transfer-reduce", "--group", "C5", "--subset", "(1);(4)",
         "--check", "-1"),
        ("verify", "all", "--max-order", "x"),
    ])
    def test_limits_that_leave_nothing_to_check(self, argv):
        # refused by the parser rather than passing or failing vacuously
        with pytest.raises(SystemExit) as info:
            run_cli_main(*argv)
        assert info.value.code == 2

    def test_smallest_accepted_limits(self):
        code, out = run_cli("verify", "thm-1.1", "--max-order", "1")
        assert code == 0
        assert out == "C1: delta* = {} (order <= 2) OK\nverify thm-1.1: OK\n"
        code, out = run_cli("delta-star", "--max-order", "3", "--format", "csv")
        assert code == 0 and out.endswith("C3,3,1,1,0,1,1\n")
        code, out = run_cli("verify", "lemma-3.1", "--max-n", "3")
        assert code == 0 and out.startswith("C3 pm pair")

    def test_transfer_reduce(self):
        code, out = run_cli("transfer-reduce", "--group", "C2xC3",
                            "--subset", "(0,1);(1,1)", "--check", "20",
                            "--seed", "5")
        assert code == 0
        assert "(0,2)" in out

    def test_delta_star_reports_m_of_g(self):
        code, out = run_cli("delta-star", "--group", "C2^2xC3")
        assert code == 0
        assert "  max delta* = 4   m(G) = 1" in out.splitlines()
        code, out = run_cli("delta-star", "--group", "C2^2xC3",
                            "--format", "json")
        assert code == 0 and json.loads(out)["m_of_g"] == 1

    def test_sweep_budget_exit_code(self):
        with pytest.raises(SystemExit) as info:
            run_cli_main("delta-star", "--group", "C17")
        assert info.value.code == 2

    def test_sweep_budget_raised(self):
        code, out = run_cli("delta-star", "--group", "C17", "--budget", "17")
        assert code == 0
        assert "  max delta* = 15   m(G) = 0" in out.splitlines()

    @pytest.mark.parametrize("spec", ["C2^20000", "C2^3000000"])
    def test_sweep_cap_on_many_components(self, spec):
        # |G| = 2^20000 has 6021 digits, past the interpreter's limit on
        # printing an int, and 2^3000000 is slow to form: both are refused
        # on the lower bound 2^N, a factor 2 per component, before |G| is
        # formed
        done = run_cli_process(2 << 30, 10, "delta-star", "--group", spec)
        assert done.returncode == 2, done.stderr
        count = spec.split("^")[1]
        assert f"|G| >= 2^{count} exceeds the sweep cap 16" in done.stderr

    def test_thm_4_5_sweep_cap(self):
        # verify thm-4.5 sweeps under the same cap as delta-star --group, so
        # |G| = 64 is refused before the sweep starts
        done = run_cli_process(2 << 30, 10, "verify", "thm-4.5", "--group", "C2^6")
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert "sweep over C2^6: |G| >= 2^6 exceeds the sweep cap 16" in done.stderr
        done = run_cli_process(2 << 30, 60, "verify", "thm-4.5", "--group", "C17",
                               "--budget", "17")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "verify thm-4.5: OK"

    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ("atoms", "--group", "C5", "--subset", "(1);(4)"),
        ("delta-star", "--group", "C2"),
    ])
    def test_budget_that_admits_nothing(self, command, budget):
        # a usage error from the parser, not a refusal by the budget itself
        done = run_cli_process(2 << 30, 10, *command, "--budget", budget)
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert f"argument --budget: must be >= 1, got {budget}" in done.stderr

    def test_budget_bounds_the_mask_memory(self):
        # the grid bound 10^11 passes the default budget, but one DFS mask
        # would take 10^11 bits; the run must refuse before building any, so
        # it is given about 1 GB of address space and must still exit 2
        done = run_cli_process(1 << 30, 60, "classify",
                               "--group", "C99999999999", "--subset", "(1)")
        assert done.returncode == 2, done.stderr
        assert "bound 156250000000000000000 (grid size x 64-bit words per mask)" \
            in done.stderr

    def test_component_cap_exit_code(self):
        # a billion components would take gigabytes to list; the spec is
        # refused as it is parsed
        done = run_cli_process(2 << 30, 10, "delta-star", "--group",
                               "C2^1000000000")
        assert done.returncode == 2, done.stderr
        assert "cyclic components in all" in done.stderr

    @pytest.mark.parametrize("argv", [
        # C(10^3000 + 3, 2), the oracle's bound, has 6000 digits
        ("delta-observed", "--group", "C5", "--subset", "(1);(4)",
         "--max-len", "1" + "0" * 3000),
        # the grid of 59 elements of C_(10^100) has about 5900 digits
        ("atoms", "--group", "C1" + "0" * 100,
         "--subset", ";".join(f"({i})" for i in range(1, 60))),
    ], ids=["oracle", "atoms"])
    def test_refusals_of_bounds_too_long_to_print(self, argv):
        with pytest.raises(SystemExit) as info:
            run_cli_main(*argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("which, r, bound", [
        # the grid 3^21 x 5^4 of the rank-24 family, over the budget alone
        ("2", "24", "atom enumeration bound 6537720751875 (grid size)"),
        # the grid 3^13 x 5^4 of the rank-16 family is under the budget, and
        # times the 4096 words of a 2^18-bit mask over it
        ("2", "16", "atom enumeration bound 4081466880000 (grid size x"),
        # C(70 + 6 + 1, 6), the oracle's bound on the sequences it files
        # at 2 * D(G0) = 70
        ("1", "5", "distance oracle bound 237093780"),
    ])
    def test_verify_remark_refuses_large_ranks(self, which, r, bound):
        # unbounded, r = 24 runs out of memory; r = 16 is over the atom
        # budget on its mask words; r = 5 is over the oracle's default
        # vector limit; each must exit 2 at once, naming its bound
        done = run_cli_process(2 << 30, 10, "verify", "remark-4.6",
                               "--which", which, "--r", r)
        assert done.returncode == 2, done.stderr
        assert bound in done.stderr

    def test_lengths_of_long_sequences(self):
        # (1)^4000 is a product of 1000 atoms: the length pass reads one
        # layer per divisor (1)^(4i), with no recursion
        code, out = run_cli("lengths", "--group", "C4", "--subset", "(1)",
                            "--sequence", "(1)^4000")
        assert code == 0
        assert out == "L((1)^4000) = {1000}\nDelta(L) = {}\n"
        # (1 3)^j (1^4 3^4)^i with j + 4i = 2000, of length 2000 - 2i; the
        # pass files about 10^6 zero-sum divisors, but keeps only the few
        # pending layers, and runs in its own process
        done = run_cli_process(2 << 30, 120, "lengths", "--group", "C4",
                               "--subset", "(1);(3)",
                               "--sequence", "(1)^2000*(3)^2000")
        assert done.returncode == 0, done.stderr
        values = ", ".join(str(v) for v in range(1000, 2001, 2))
        assert done.stdout == (f"L((1)^2000 * (3)^2000) = {{{values}}}\n"
                               "Delta(L) = {2}\n")

    def test_parse_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            run_cli_main("atoms", "--group", "C5", "--subset", "(0)")
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["atoms", "min-delta", "classify",
                                         "transfer-reduce"])
    def test_empty_subset_exit_code(self, command):
        with pytest.raises(SystemExit) as info:
            run_cli_main(command, "--group", "C5", "--subset", "")
        assert info.value.code == 2

    def test_verify_remark(self):
        code, out = run_cli("verify", "remark-4.6", "--which", "2", "--r", "3")
        assert code == 0
        assert "atom inventory matches (10 atoms) OK" in out

    def test_verify_lemma(self):
        code, out = run_cli("verify", "lemma-3.1", "--max-n", "6")
        assert code == 0
        assert "verify lemma-3.1: OK" in out

    def test_verify_all(self):
        code, out = run_cli("verify", "all", "--max-order", "6")
        assert code == 0
        assert out.endswith("verify all: OK\n")
        names = {line.split(":")[0] for line in out.splitlines()[:-1]}
        assert names == {"thm-1.1", "prop-3.2", "lemma-3.1", "remark-4.6.1",
                         "remark-4.6.2", "thm-4.5"}
        # thm-4.5 runs on each swept group with extremal sets, C3 .. C2xC3
        assert "thm-4.5: C2xC3 ((1, 1), (1, 2)): pm pair of full order OK" in out
        assert run_cli("verify", "all", "--max-order", "6") == (code, out)

    def test_verify_p_groups(self):
        # the 18 abelian p-groups of order <= 16, then the verdict
        code, out = run_cli("verify", "prop-3.2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 19 and lines[-1] == "verify prop-3.2: OK"
        assert "C2^2xC4: m(G) = 2 = r-1 = 2 OK" in lines

    def test_verify_p_groups_up_to_max_order(self, monkeypatch):
        # the 9 p-groups among the 11 abelian groups of order <= 8
        swept = record_sweeps(monkeypatch)
        code, out = run_cli("verify", "prop-3.2", "--max-order", "8")
        assert code == 0
        assert len(swept) == len(set(swept)) == 11
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            "C2", "C3", "C2^2", "C4", "C5", "C7", "C2^3", "C2xC4", "C8"]
        assert "C2^3: m(G) = 2 = r-1 = 2 OK" in lines
        assert lines[-1] == "verify prop-3.2: OK"

    def test_verify_all_sweeps_each_group_once(self, monkeypatch):
        swept = record_sweeps(monkeypatch)
        code, out = run_cli("verify", "all", "--max-order", "8")
        assert code == 0
        # the 11 abelian groups of order <= 8, the trivial one included
        assert len(swept) == len(set(swept)) == 11
        assert "prop-3.2: C2^3: m(G) = 2 = r-1 = 2 OK" in out.splitlines()

    @pytest.mark.parametrize("argv, count, line", [
        # the 11 abelian groups of order <= 8, as for `verify all`
        (("verify", "thm-1.1", "--max-order", "8"), 11,
         "C2^3: max delta* = 2 = max{0,2} OK"),
        (("delta-star", "--max-order", "8"), 11,
         "C2^3           2    3      2    2         7 {1,2}"),
        # the 25 abelian groups of order <= 16, of which 18 are p-groups
        (("verify", "prop-3.2"), 25, "C2^2xC4: m(G) = 2 = r-1 = 2 OK"),
    ])
    def test_other_sweeps_take_each_group_once(self, monkeypatch, argv,
                                               count, line):
        swept = record_sweeps(monkeypatch)
        code, out = run_cli(*argv)
        assert code == 0
        assert len(swept) == len(set(swept)) == count
        assert line in out.splitlines()

    def test_verify_routines_read_the_sweeps_they_are_given(self,
                                                             monkeypatch):
        verify = importlib.import_module("blockmonoid.verify")
        reports = verify.sweep_groups(8)

        def refuse(group, **kwargs):
            raise AssertionError(f"swept {group.spec_string()} again")

        monkeypatch.setattr(verify, "delta_star", refuse)
        monkeypatch.setattr(importlib.import_module("blockmonoid.sweep"),
                            "delta_star", refuse)
        assert verify.verify_main_theorem(reports).ok
        assert verify.verify_p_group_m(reports).ok
        assert all(verify.verify_extremal_structure(report).ok
                   for report in reports.values())

    def test_verify_all_fails_with_any_routine(self, monkeypatch):
        module = importlib.import_module("blockmonoid.verify")
        monkeypatch.setattr(module, "expected_max_delta_star", lambda group: -1)
        code, out = run_cli("verify", "all", "--max-order", "4",
                            "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["verify"] == "all" and payload["ok"] is False
        assert "thm-1.1: C3: max delta* = 1 = max{1,0} FAIL" in payload["checks"]


def record_sweeps(monkeypatch) -> list:
    """The component orders of each group `verify` sweeps from now on."""
    swept = []

    def counted(group, **kwargs):
        swept.append(group.orders)
        return delta_star(group, **kwargs)

    monkeypatch.setattr(importlib.import_module("blockmonoid.verify"),
                        "delta_star", counted)
    return swept


def run_cli_process(address_space: int, timeout: float, *argv):
    """The CLI in a subprocess limited to `address_space` bytes of memory."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return subprocess.run(
        [sys.executable, "-m", "blockmonoid.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=limit,
        capture_output=True, text=True, timeout=timeout)


def run_cli_main(*argv):
    import sys
    from blockmonoid.cli import main
    old = sys.argv
    sys.argv = ["blockmonoid", *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
             contextlib.redirect_stderr(io.StringIO()):
            main()
    finally:
        sys.argv = old

