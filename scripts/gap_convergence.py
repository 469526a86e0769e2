#!/usr/bin/env python3
"""Tabulate the scaled profile gap (gap + 2K) sqrt(v) along a dyadic
volume grid, with K the renormalized volume (its rho -> inf limit).

The column settles to a mass-proportional constant; the table prints K
and the measured values next to the two candidate constants
8 sqrt(2) pi^{3/2} m and 16 sqrt(2) pi^{5/2} m so the limit can be read
off directly.

    PYTHONPATH=src python scripts/gap_convergence.py --n 4 --masses 1.0
"""

import argparse
import math
import sys

from ahiso.cli import _cmd_expansion
from ahiso.models import make_ads_schwarzschild
from ahiso.profiles import _renormalized_limit

LOW = 8.0 * math.sqrt(2.0) * math.pi**1.5
HIGH = 16.0 * math.sqrt(2.0) * math.pi**2.5


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--v-max", type=float, default=1e6)
    parser.add_argument("--n", type=int, default=8, help="dyadic grid points")
    parser.add_argument(
        "--masses", type=float, nargs="+", default=[0.5, 1.0, 2.0]
    )
    args = parser.parse_args()

    for m in args.masses:
        metric = make_ads_schwarzschild(m)
        # The expansion subcommand's table, on its dyadic grid v_max 4^-k.
        try:
            table = _cmd_expansion(args, metric)
        except ValueError as exc:
            parser.error(str(exc))
        print(f"mass {m}: K = {_renormalized_limit(metric).value!r}")
        print(f"  {'v':>12s}  {'(gap + 2K) sqrt(v)':>18s}  {'per mass':>12s}")
        for v, scaled in zip(table["v"].tolist(), table["scaled_gap"].tolist()):
            print(f"  {v:12.5g}  {scaled:18.6f}  {scaled / m:12.6f}")
        last = float(table["scaled_gap"][-1])
        print(f"  candidate 8 sqrt2 pi^1.5 m  = {LOW * m:14.6f}  "
              f"(off by {abs(last - LOW * m) / (LOW * m):.2%})")
        print(f"  candidate 16 sqrt2 pi^2.5 m = {HIGH * m:14.6f}  "
              f"(off by {abs(last - HIGH * m) / (HIGH * m):.2%})")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
