#!/usr/bin/env python3
"""Convergence study of the characteristic-grid transform solver.

Sweeps ``--steps N`` of ``ruin --method pde`` on the grid that command solves
on: ``r_max`` is the query's own ``r``, so the point lies on the last column,
and the grids have ``N // 2`` and ``2 (N // 2)`` columns.  For each ``N`` it
reports the error of the printed, extrapolated value against the exact ruin
probability at s = 0, the observed convergence order between consecutive
``N``, the printed bound (the step-halving estimate) and the ratio of the
true error to that bound.  A ratio above 1 is a bound that does not hold.
"""

import argparse
import math
import sys

from ruin2d.closedform import survival
from ruin2d.model import Exponential, RiskModel
from ruin2d.pde import evaluate, solve, to_grid_coords


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--c", type=float, nargs=2, default=[3.0, 2.0])
    ap.add_argument("--point", type=float, nargs=2, default=[1.0, 3.0])
    ap.add_argument("--steps", type=int, nargs="+", default=[50, 100, 200, 400, 800])
    args = ap.parse_args(argv)

    model = RiskModel(lam=args.lam, claim=Exponential(args.mu),
                      c1=args.c[0], c2=args.c[1])
    x1, x2 = args.point
    target = survival(model, x1, x2, tol=1e-12).ruin
    r, _ = to_grid_coords(model, x1, x2)

    print(f"target ruin({x1}, {x2}) = {target:.12f}   (r_max = r = {r:.4g})")
    print(f"{'steps':>7} {'error':>12} {'order':>7} {'bound':>12} {'true/bound':>11}")
    prev_err = None
    for steps in args.steps:
        grid = solve(model, s=0.0, r_max=r, steps=steps // 2)
        err = abs(evaluate(grid, x1, x2) - target)
        order = ""
        if prev_err is not None and err > 0:
            order = f"{math.log2(prev_err / err):7.2f}"
        ratio = err / grid.error_estimate if grid.error_estimate > 0 else math.inf
        print(f"{steps:7d} {err:12.3e} {order:>7} {grid.error_estimate:12.3e} {ratio:11.2e}")
        prev_err = err
    return 0


if __name__ == "__main__":
    sys.exit(main())
