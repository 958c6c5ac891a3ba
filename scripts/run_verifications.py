#!/usr/bin/env python3
"""Run every verification routine end to end and summarize.

Usage: python scripts/run_verifications.py [--max-order N]
Exits nonzero if any check fails.
"""
import argparse
import sys
import time

from blockmonoid import FiniteAbelianGroup
from blockmonoid.verify import (verify_extremal_structure, verify_main_theorem,
                                verify_named_family, verify_p_group_m,
                                verify_pm_and_basis_families)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-order", type=int, default=16)
    args = parser.parse_args()

    reports: dict = {}
    runs = []
    t0 = time.time()
    runs.append(verify_main_theorem(args.max_order, reports=reports))
    runs.append(verify_p_group_m())
    runs.append(verify_pm_and_basis_families())
    runs.append(verify_named_family(1, r=3))
    runs.append(verify_named_family(2, r=3))
    for orders, report in sorted(reports.items()):
        if report.extremal:
            runs.append(verify_extremal_structure(
                FiniteAbelianGroup(orders), report=report))

    failed = 0
    for result in runs:
        status = "OK" if result.ok else "FAILED"
        print(f"[{status}] {result.name} ({len(result.lines)} checks)")
        if not result.ok:
            failed += 1
            for line in result.lines:
                if line.endswith("FAIL"):
                    print(f"    {line}")
    print(f"{len(runs)} verification runs in {time.time() - t0:.1f}s, "
          f"{failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
