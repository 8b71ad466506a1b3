#!/usr/bin/env python3
"""Convergence study of the characteristic-grid transform solver.

Sweeps the column count on the grid ``ruin --method pde`` solves on
(``r_max = max(1, 1.05 r)`` for the query's ``r``), reporting the error against
the exact ruin probability at s = 0, the observed convergence order between
consecutive resolutions, the step-halving estimate and the ratio of the true
error to that estimate.  The trapezoidal march should show second-order decay
until interpolation error or round-off takes over; a ratio above 1 is an
estimate that understates the error.
"""

import argparse
import math
import sys

from ruin2d.closedform import ruin
from ruin2d.model import Exponential, RiskModel
from ruin2d.pde import evaluate, solve, to_grid_coords


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--c", type=float, nargs=2, default=[3.0, 2.0])
    ap.add_argument("--point", type=float, nargs=2, default=[1.0, 3.0])
    ap.add_argument("--steps", type=int, nargs="+", default=[50, 100, 200, 400])
    args = ap.parse_args(argv)

    model = RiskModel(lam=args.lam, claim=Exponential(args.mu),
                      c1=args.c[0], c2=args.c[1])
    x1, x2 = args.point
    target = ruin(model, x1, x2)
    r_need, _ = to_grid_coords(model, x1, x2)
    r_max = max(1.0, 1.05 * r_need)

    print(f"target ruin({x1}, {x2}) = {target:.10f}   (r_max = {r_max:.2f})")
    print(f"{'steps':>7} {'error':>12} {'order':>7} {'halving estimate':>17} {'true/estimate':>14}")
    prev_err = None
    for steps in args.steps:
        grid = solve(model, s=0.0, r_max=r_max, steps=steps)
        err = abs(evaluate(grid, x1, x2) - target)
        order = ""
        if prev_err is not None and err > 0:
            order = f"{math.log2(prev_err / err):7.2f}"
        ratio = err / grid.error_estimate if grid.error_estimate > 0 else math.inf
        print(f"{steps:7d} {err:12.3e} {order:>7} {grid.error_estimate:17.3e} {ratio:14.2f}")
        prev_err = err
    return 0


if __name__ == "__main__":
    sys.exit(main())
