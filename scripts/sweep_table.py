#!/usr/bin/env python3
"""Sweep every abelian group up to a given order and print a summary table.

Usage: python scripts/sweep_table.py [--max-order 16]
"""
import argparse
import time

from blockmonoid import abelian_groups_of_order, delta_star


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-order", type=int, default=16)
    args = parser.parse_args()

    header = (f"{'group':<12} {'exp':>3} {'rank':>4} {'max d*':>6} "
              f"{'m(G)':>4} {'#extremal':>9} {'delta*':<24} {'time':>7}")
    print(header)
    print("-" * len(header))
    for order in range(3, args.max_order + 1):
        for group in abelian_groups_of_order(order):
            t0 = time.time()
            report = delta_star(group, sweep_max_group=None)
            dt = time.time() - t0
            dstar = "{" + ",".join(map(str, report.delta_star)) + "}"
            print(f"{group.spec_string():<12} {group.exponent:>3} "
                  f"{group.rank:>4} {report.max_delta_star:>6} "
                  f"{report.m_of_g:>4} {len(report.extremal):>9} "
                  f"{dstar:<24} {dt:>6.2f}s")


if __name__ == "__main__":
    main()
