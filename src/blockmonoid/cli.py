"""Command-line interface.

Exit codes: 0 success, 1 a verify command found a counterexample (which would
falsify the implementation), 2 parse or budget errors.
"""
from __future__ import annotations

import argparse
import random
import sys

from . import report as rpt
from .atoms import enumerate_atoms
from .classify import classify, transfer_reduce
from .config import (DEFAULT_ENUMERATION_BUDGET, DEFAULT_MEMO_LIMIT,
                     DEFAULT_ORACLE_VECTOR_LIMIT, DEFAULT_SWEEP_MAX_GROUP)
from .errors import BudgetError, ContractError, ParseError
from .kernel import half_factorial, min_delta, min_delta_witness
from .lengths import distances_oracle, length_set
from .sequences import SequenceVec
from .specparse import parse_group, parse_sequence, parse_subset
from .sweep import delta_star
from .verify import (sweep_groups, verify_all, verify_extremal_structure,
                     verify_main_theorem, verify_named_family, verify_p_group_m,
                     verify_pm_and_basis_families)


def _at_least(low: int):
    """An argparse type for ints >= low, so a limit that would leave a run
    with nothing to check is refused with exit code 2."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _add_common(p):
    p.add_argument("--group", required=True, help="group spec, e.g. C2^2xC4")
    p.add_argument("--subset", required=True,
                   help="subset spec, e.g. \"(1);(4)\"")
    p.add_argument("--format", choices=rpt.FORMATS, default="text")
    p.add_argument("--budget", type=_at_least(1), default=DEFAULT_ENUMERATION_BUDGET,
                   help="atom enumeration budget (grid size times "
                        f"words per mask; default {DEFAULT_ENUMERATION_BUDGET})")


def _add_sweep_cap(p):
    p.add_argument("--budget", type=_at_least(1), default=DEFAULT_SWEEP_MAX_GROUP,
                   help=f"largest |G| the sweep accepts "
                        f"(default {DEFAULT_SWEEP_MAX_GROUP})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockmonoid",
        description="Exact factorization invariants of zero-sum sequence "
                    "monoids over finite abelian groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("atoms", help="enumerate the minimal zero-sum sequences")
    _add_common(p)

    p = sub.add_parser("lengths", help="set of factorization lengths of one sequence")
    _add_common(p)
    p.add_argument("--sequence", required=True,
                   help="sequence spec, e.g. \"(1)^5*(4)^5\"")

    p = sub.add_parser("min-delta", help="exact min Delta via the kernel lattice")
    _add_common(p)
    p.add_argument("--explain", action="store_true",
                   help="print one kernel vector realizing the gcd")

    p = sub.add_parser("delta-observed",
                       help="distances observed among short zero-sum sequences")
    _add_common(p)
    p.add_argument("--max-len", type=_at_least(1), required=True)

    p = sub.add_parser("classify", help="full classification of one subset")
    _add_common(p)

    p = sub.add_parser("delta-star", help="whole-group sweep of minimal distances")
    p.add_argument("--format", choices=rpt.FORMATS, default="text")
    _add_sweep_cap(p)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--group", help="group spec, e.g. C2^2xC4")
    which.add_argument("--max-order", type=_at_least(3), metavar="N",
                       help="one summary row per abelian group of order "
                            "3 .. N, with no |G| cap")

    p = sub.add_parser("transfer-reduce",
                       help="reduce a minimal non-HF set to span form")
    _add_common(p)
    p.add_argument("--check", type=_at_least(0), default=0, metavar="N",
                   help="probe cross-number preservation on N random sequences")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="re-derive published identities")
    vsub = p.add_subparsers(dest="target", required=True)

    v = vsub.add_parser("thm-1.1")
    v.add_argument("--max-order", type=_at_least(1), default=16)
    v.add_argument("--format", choices=rpt.FORMATS, default="text")

    v = vsub.add_parser("prop-3.2")
    v.add_argument("--max-order", type=_at_least(1), default=16)
    v.add_argument("--format", choices=rpt.FORMATS, default="text")

    v = vsub.add_parser("thm-4.5")
    v.add_argument("--group", required=True)
    _add_sweep_cap(v)
    v.add_argument("--format", choices=rpt.FORMATS, default="text")

    v = vsub.add_parser("remark-4.6")
    v.add_argument("--which", type=int, choices=(1, 2), required=True)
    v.add_argument("--r", type=int, default=3)
    v.add_argument("--max-len", type=_at_least(1), default=None,
                   help="oracle length bound (default 2*D(G0))")
    v.add_argument("--format", choices=rpt.FORMATS, default="text")

    v = vsub.add_parser("lemma-3.1")
    v.add_argument("--max-n", type=_at_least(3), default=10)
    v.add_argument("--format", choices=rpt.FORMATS, default="text")

    v = vsub.add_parser("all", help="every routine above; thm-4.5 on each "
                                    "swept group with extremal sets")
    v.add_argument("--max-order", type=_at_least(1), default=16)
    v.add_argument("--format", choices=rpt.FORMATS, default="text")

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    if "subset" in args:
        # each command that takes a --subset (`_add_common`) starts from
        # its atoms
        support = parse_subset(args.subset, parse_group(args.group))
        atoms = enumerate_atoms(support, args.budget)

    if args.command == "atoms":
        out.write(rpt.emit_atoms(atoms, args.format))
        return 0

    if args.command == "lengths":
        seq = parse_sequence(args.sequence, support)
        lengths = length_set(seq, atoms, memo_limit=DEFAULT_MEMO_LIMIT)
        out.write(rpt.emit_lengths(seq, lengths, args.format))
        return 0

    if args.command == "min-delta":
        d = min_delta(atoms)
        hf = half_factorial(atoms, d)
        # M has full row rank: every g^ord(g) is an atom
        kernel_rank = len(atoms) - len(support)
        witness = min_delta_witness(atoms) if args.explain else None
        out.write(rpt.emit_min_delta(support, d, kernel_rank, hf, witness, args.format))
        return 0

    if args.command == "delta-observed":
        observed = distances_oracle(
            atoms, args.max_len,
            vector_limit=DEFAULT_ORACLE_VECTOR_LIMIT,
            memo_limit=DEFAULT_MEMO_LIMIT)
        out.write(rpt.emit_distances(support, args.max_len, observed, args.format))
        return 0

    if args.command == "classify":
        record = classify(support, atoms=atoms)
        out.write(rpt.emit_classify(record, args.format))
        return 0

    if args.command == "delta-star":
        if args.max_order is not None:
            # the table lists the groups of order 3 .. N
            reports = [report for report in sweep_groups(args.max_order).values()
                       if report.group.size > 2]
            out.write(rpt.emit_sweep_table(reports, args.format))
            return 0
        # only the CSV prints a row per computed subset
        report = delta_star(parse_group(args.group), sweep_max_group=args.budget,
                            records=args.format == "csv")
        out.write(rpt.emit_sweep(report, args.format))
        return 0

    if args.command == "transfer-reduce":
        reduction = transfer_reduce(support, atoms=atoms)
        probes = 0
        if args.check:
            rng = random.Random(args.seed)
            for _ in range(args.check):
                seq = SequenceVec.empty(support)
                for _ in range(rng.randint(1, 6)):
                    seq = seq * rng.choice(atoms.atoms)
                image = reduction.apply(seq)
                if image.cross_number() != seq.cross_number():
                    raise ContractError(
                        f"cross number not preserved on {seq.format()}")
                probes += 1
        out.write(rpt.emit_transfer(reduction, probes, args.format))
        return 0

    if args.command == "verify":
        if args.target == "thm-1.1":
            result = verify_main_theorem(sweep_groups(args.max_order))
        elif args.target == "prop-3.2":
            result = verify_p_group_m(sweep_groups(args.max_order))
        elif args.target == "thm-4.5":
            result = verify_extremal_structure(
                delta_star(parse_group(args.group), sweep_max_group=args.budget))
        elif args.target == "remark-4.6":
            result = verify_named_family(args.which, r=args.r,
                                         oracle_max_len=args.max_len)
        elif args.target == "lemma-3.1":
            result = verify_pm_and_basis_families(args.max_n)
        else:
            result = verify_all(args.max_order)
        out.write(rpt.emit_verify(result, args.format))
        return 0 if result.ok else 1

    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    try:
        sys.exit(run())
    except (ParseError, BudgetError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
