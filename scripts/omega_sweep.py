#!/usr/bin/env python3
"""Random-model sweep of the cut integral against its 30-digit reference.

Draws ``--models`` exponential-claim models from one region of the parameter
space, with ``delta = (1, 1)``, and 3 upper-cone points per model: ``x1``
log-uniform in [0.01, 32] and ``x2 - x1`` log-uniform in [1e-3, 50].  At each
point it compares ``closedform.omega(tol=1e-8)`` with ``mp_omega`` from
``tests/oracles.py``.  With margins ``e1 = (p1 - p2)/p2`` and
``e2 = (p2 - rho)/rho``, the regions are

    clean  e1 in [1e-3, 3],   e2 in [1e-3, 2],   lam, mu in [0.2, 5]
    mid    e1 in [1e-6, 1e-3], e2 in [1e-6, 1e-3], lam, mu in [0.2, 5]
    nd     e1 in [1e-9, 1e-1], e2 in [1e-9, 1e-2], lam, mu in [0.2, 5]
    seam   p1 = (p2^2/rho)(1 +- delta), delta in [1e-10, 1e-2], e2 in [1e-2, 2],
           lam, mu in [0.2, 5]
    wide   e1 in [1e-3, 30],  e2 in [1e-3, 30],  lam, mu in [0.01, 100]

all log-uniform; a draw that ``validate`` rejects is drawn again.  Prints
each point that exits 4 (``ToleranceNotMet``) or whose error exceeds its
reported bound by more than 1e-14, then one summary line: the points outside
their bound, the worst error among them, the points that exit 4, the points
where scipy warned, and the mean milliseconds per ``omega`` call.

Run from a checkout: ``PYTHONPATH=src python scripts/omega_sweep.py --region nd``.
"""

import argparse
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy.integrate  # noqa: F401  omega imports it on its first call: keep that untimed

from ruin2d import closedform
from ruin2d.errors import ToleranceNotMet
from ruin2d.model import Exponential, RiskModel, validate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import mp_omega  # noqa: E402

# (e1 or seam delta, e2, lam and mu) ranges of each region
REGIONS = {"clean": ((1e-3, 3.0), (1e-3, 2.0), (0.2, 5.0)),
           "mid": ((1e-6, 1e-3), (1e-6, 1e-3), (0.2, 5.0)),
           "nd": ((1e-9, 1e-1), (1e-9, 1e-2), (0.2, 5.0)),
           "seam": ((1e-10, 1e-2), (1e-2, 2.0), (0.2, 5.0)),
           "wide": ((1e-3, 30.0), (1e-3, 30.0), (0.01, 100.0))}


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_model(rng, region):
    (lo1, hi1), (lo2, hi2), (lo, hi) = REGIONS[region]
    while True:
        lam, mu = log_uniform(rng, lo, hi), log_uniform(rng, lo, hi)
        rho = lam / mu
        p2 = rho * (1.0 + log_uniform(rng, lo2, hi2))
        if region == "seam":
            sign = float(rng.choice((-1.0, 1.0)))
            p1 = (p2 * p2 / rho) * (1.0 + sign * log_uniform(rng, lo1, hi1))
        else:
            p1 = p2 * (1.0 + log_uniform(rng, lo1, hi1))
        model = RiskModel(lam=lam, claim=Exponential(mu), c1=p1, c2=p2)
        if validate(model).ok:
            return model


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--region", choices=REGIONS, required=True)
    ap.add_argument("--models", type=int, default=60)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    outside, exits, warned, seconds, calls, worst = 0, 0, 0, 0.0, 0, 0.0
    print(" ".join(f"{name:>20}" for name in ("lam", "mu", "c1", "c2", "x1", "x2")),
          f"{'error':>9} {'bound':>9}")
    for _ in range(args.models):
        model = draw_model(rng, args.region)
        lam, mu = model.lam, model.claim.mu
        for _ in range(3):
            x1 = log_uniform(rng, 0.01, 32.0)
            x2 = x1 + log_uniform(rng, 1e-3, 50.0)
            where = " ".join(f"{v!r:>20}" for v in (lam, mu, model.c1, model.c2, x1, x2))
            start = time.perf_counter()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    value, bound = closedform.omega(model, x1, x2, tol=1e-8)
            except ToleranceNotMet as exc:
                exits += 1
                print(where, f" exit 4: {exc}")
                continue
            finally:
                seconds += time.perf_counter() - start
                calls += 1
            warned += bool(caught)
            ref = mp_omega(model, x1, x2)
            error = abs(value - ref)
            # the bound leaves out the rounding of the panel sum, a few 1e-15
            if error > bound + 1e-14:
                outside += 1
                worst = max(worst, error)
                print(where, f"{error:9.2e} {bound:9.2e}")
    print(f"region={args.region} models={args.models} seed={args.seed} points={calls} "
          f"outside={outside} worst={worst:.2e} exit4={exits} warned={warned} "
          f"ms_per_point={1e3 * seconds / calls:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
