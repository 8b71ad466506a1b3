"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to stream the lines.
Tolerances are pinned here and nowhere else; Monte Carlo path counts are the
stated 10^6 per point.
"""

import json
import math

import numpy as np
from scipy.integrate import quad

from ruin2d.cli import main as cli_main
from ruin2d.closedform import survival
from ruin2d.mc import conditional_survival, ruin_time_lt, simulate_joint_ruin, stream
from ruin2d.model import derive
from ruin2d.pde import GoursatCoefficients, evaluate, solve, to_grid_coords
from ruin2d.transform import ab, invert_2d, z_roots

from conftest import march_rectangle
from oracles import (
    ScaleFunction,
    fluid_embed,
    g,
    kappa,
    killed_position_frequencies,
    path_ruin_time,
    q_plus,
    resolvent_density,
    sample_path,
)


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status}  {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {suffix}"


def test_criterion_01_boundary_continuity(p0, p1):
    worst = 0.0
    for m in (p0, p1):
        dc = derive(m)
        for x in (0.25, 0.5, 1.0, 2.0, 4.0):
            upper = survival(m, x, x * (1.0 + 1e-12) + 1e-13, tol=1e-8).value
            cone = 1.0 - dc.C2 * math.exp(-dc.gamma2 * x)
            worst = max(worst, abs(upper - cone))
    report(1, "spectral assembly vs cone reduction at x2 -> x1 (tol 1e-6)",
           worst <= 1e-6, f"worst |diff| = {worst:.2e}")


def test_criterion_02_closedform_vs_unbiased_mc(p0, p1):
    n = 10**6
    all_ok = True
    details = []
    for name, m in (("P0", p0), ("P1", p1)):
        offsets = (0.25, 0.75, 1.5, 3.0)
        x1s = (0.25, 0.75, 1.5, 2.5)
        hits = 0
        worst_z = 0.0
        for i, x1 in enumerate(x1s):
            for j, off in enumerate(offsets):
                x2 = x1 + off
                cf = survival(m, x1, x2).value
                est = conditional_survival(m, x1, x2, n, seed=1000 + 16 * i + j)
                z = abs(cf - est.mean) / est.std_error
                worst_z = max(worst_z, z)
                if z <= 3.5:
                    hits += 1
        details.append(f"{name}: {hits}/16 within 3.5se, worst z={worst_z:.2f}")
        if hits < 15:
            all_ok = False
    report(2, "closed form within 3.5 SE of unbiased MC on 4x4 grids (>=15/16)",
           all_ok, "; ".join(details))


def test_criterion_03_transform_round_trip(p0):
    worst = 0.0
    for x1 in (0.5, 1.0, 2.0):
        for off in (0.5, 1.5, 3.0):
            x2 = x1 + off
            err = abs(invert_2d(p0, x1, x2) - survival(p0, x1, x2).value)
            worst = max(worst, err)
    report(3, "numeric double inversion vs closed form at 9 points (tol 1e-3)",
           worst <= 1e-3, f"worst |diff| = {worst:.2e}")


def test_criterion_04_root_identities(p0, p1):
    ok = True
    worst = 0.0
    for m in (p0, p1):
        dc = derive(m)
        span = m.p1 - m.p2
        for q in np.linspace(dc.q_minus_end + 0.05, 5.0, 50):
            pair = z_roots(m, float(q))
            for z in (pair.z1, pair.z2):
                gap = abs(kappa(m, 1, z + q) - q * span)
                worst = max(worst, gap / max(1.0, abs(q)))
            gap_qp = abs(q_plus(m, span * float(q)) - (pair.z2 + q))
            worst = max(worst, gap_qp / max(1.0, abs(q)))
        if abs(z_roots(m, 0.0).z1 + dc.gamma1) > 1e-12:
            ok = False
        z1g2 = (dc.mu / dc.p2) * min(dc.p2 ** 2 / dc.p1 - dc.rho, 0.0)
        z2g2 = (dc.mu / dc.p2) * max(dc.p2 ** 2 / dc.p1 - dc.rho, 0.0)
        pair = z_roots(m, -dc.gamma2)
        if abs(pair.z1 - z1g2) > 1e-12 or abs(pair.z2 - z2g2) > 1e-12:
            ok = False
    ok = ok and worst <= 1e-10
    report(4, "root/identification identities at 50 points (1e-10) and exact "
              "values at q in {0, -gamma2} (1e-12)", ok, f"worst = {worst:.2e}")


def test_criterion_05_scale_function_lt_identity(p0):
    worst = 0.0
    for q in (0.0, 0.5, 1.0):
        w = ScaleFunction.build(p0, q)
        for alpha in (1.0, 2.0, 5.0):
            val, _ = quad(lambda x: math.exp(-alpha * x) * w(x), 0, 250, limit=400)
            worst = max(worst, abs(val - 1.0 / (kappa(p0, 1, alpha) - q)))
    report(5, "scale-function Laplace identity by quadrature (tol 1e-6)",
           worst <= 1e-6, f"worst |diff| = {worst:.2e}")


def test_criterion_06_resolvent_vs_killing_mc(p0):
    q, x1, n = 0.5, 1.0, 10**6
    edges = np.linspace(0.0, 6.0, 21)
    freq, se = killed_position_frequencies(p0, q, x1, edges, n, seed=2024)
    good = 0
    worst_z = 0.0
    for k in range(20):
        pts = [x1] if edges[k] < x1 < edges[k + 1] else None
        pred = q * quad(lambda z: resolvent_density(p0, q, x1, z),
                        edges[k], edges[k + 1], points=pts)[0]
        z = abs(freq[k] - pred) / se[k] if se[k] > 0 else 0.0
        worst_z = max(worst_z, z)
        if z <= 3.5:
            good += 1
    report(6, "killed resolvent vs exponential-killing MC, 20 bins (>=90% in 3.5se)",
           good >= 18, f"{good}/20 bins, worst z={worst_z:.2f}")


def test_criterion_07_pde_consistency(p0):
    # (a) s = 0 against the closed form on a 5x5 cone grid
    x1s = (0.4, 0.8, 1.2, 1.6, 2.0)
    offs = (0.4, 0.8, 1.2, 1.6, 2.0)
    pts = [(x1, x1 + off) for x1 in x1s for off in offs]
    r_need = max(to_grid_coords(p0, *p)[0] for p in pts)
    grid0 = solve(p0, s=0.0, r_max=1.02 * r_need, steps=400)
    worst0 = max(
        abs(evaluate(grid0, x1, x2) - (1.0 - survival(p0, x1, x2).value))
        for x1, x2 in pts
    )
    ok_a = worst0 <= 1e-3

    # (b) s = 0.5 against the truncated transform estimator at 4 points
    s, horizon, n = 0.5, 15.0, 10**6
    grid_s = solve(p0, s=s, r_max=9.0, steps=400)
    ok_b = True
    worst_b = 0.0
    for idx, (u1, u2) in enumerate(((0.5, 1.5), (1.0, 2.0), (1.0, 3.0), (2.0, 3.0))):
        est = ruin_time_lt(p0, u1, u2, s, horizon, n, seed=3000 + idx)
        gap = abs(evaluate(grid_s, u1, u2) - est.mean)
        band = 3.5 * est.std_error + est.meta["bias_bound"]
        worst_b = max(worst_b, gap - band)
        if gap > band:
            ok_b = False

    # (c) Goursat kernel vs the manufactured two-boundary solution
    coeffs = GoursatCoefficients(alpha=0.0, beta=1.0, gamma=-1.0, delta=0.0)

    def run(nn):
        P, _ = march_rectangle(coeffs, nn, nn, 1.0 / nn, 1.0 / nn,
                               np.ones(nn + 1), np.zeros(nn + 1))
        return P

    rich = (4.0 * run(300)[::2, ::2] - run(150)) / 3.0

    def bessel(r, w):
        x = -r * w
        term = total = 1.0
        for k in range(1, 120):
            term *= x / (k * k)
            total += term
            if abs(term) < 1e-18 * abs(total):
                break
        return total

    worst_c = max(
        abs(rich[i, j] - bessel(i / 150.0, -j / 150.0))
        for i in (0, 30, 75, 150)
        for j in (0, 30, 75, 150)
    )
    ok_c = worst_c <= 1e-8
    report(7, "PDE: s=0 grid (1e-3), s=0.5 vs MC (3.5se + bias), kernel vs series (1e-8)",
           ok_a and ok_b and ok_c,
           f"s0 worst={worst0:.2e}; s>0 slack={worst_b:.2e}; kernel={worst_c:.2e}")


def test_criterion_08_fluid_embedding_identities(p0):
    rng = stream(424242, 0)
    n_paths = 10**4
    ruined = 0
    for _ in range(n_paths):
        path = sample_path(p0, 20.0, rng)
        fp = fluid_embed(path, 0.5, 1.5, p0)
        tau = path_ruin_time(path, 0.5, 1.5, p0)
        if fp.ruin_time_original() != tau:
            report(8, "fluid-embedding ruin-time and extrema identities", False,
                   "ruin-time mismatch")
        if math.isfinite(tau):
            ruined += 1
        m1, m2 = fp.minimum_reserves()
        t = np.cumsum(path.interarrivals)
        ssum = np.cumsum(path.claim_sizes)
        u1 = 0.5 + p0.c1 * t - p0.delta1 * ssum
        u2 = 1.5 + p0.c2 * t - p0.delta2 * ssum
        d1 = min(0.5, u1.min()) if len(t) else 0.5
        d2 = min(1.5, u2.min()) if len(t) else 1.5
        if m1 != d1 or m2 != d2:
            report(8, "fluid-embedding ruin-time and extrema identities", False,
                   "extrema mismatch")
    report(8, "fluid-embedding ruin-time and extrema identities on 1e4 paths "
              "(zero tolerance)", True, f"{ruined} ruined paths exercised")


def test_criterion_09_branch_cut_structure(p0):
    dc = derive(p0)
    ok = True
    b_ends = max(ab(p0, dc.q_plus_end).b, ab(p0, dc.q_minus_end).b)
    if b_ends > 1e-10:
        ok = False
    # one-sided limits with O(eps) error
    pt = ab(p0, -1.0)
    errs = {}
    for eps in (1e-4, 1e-6):
        za = z_roots(p0, complex(-1.0, eps)).z1
        zb = z_roots(p0, complex(-1.0, -eps)).z1
        errs[eps] = max(abs(za - complex(pt.a, -pt.b)), abs(zb - complex(pt.a, pt.b)))
    slope = errs[1e-4] / 1e-4
    if errs[1e-6] > 1.1 * slope * 1e-6 + 1e-13:
        ok = False
    qg = [abs(q * g(p0, q)) for q in
          np.concatenate([np.geomspace(1e2, 1e4, 7), -np.geomspace(1e2, 1e4, 7)])]
    bounded = max(qg) < 10.0
    report(9, "b(q+-)=0 (1e-10); z1 branch limits O(eps); |q g(q)| bounded on "
              "1e2<=|q|<=1e4", ok and bounded,
           f"b at ends={b_ends:.1e}, limit errs={errs[1e-4]:.1e}/{errs[1e-6]:.1e}, "
           f"max|qg|={max(qg):.3f}")


def test_criterion_10_determinism(p0, tmp_path, capsys):
    model_file = tmp_path / "m.json"
    model_file.write_text(json.dumps({
        "lambda": 1.0, "claim": {"type": "exponential", "mu": 1.0},
        "c": [3.0, 2.0], "delta": [1.0, 1.0],
    }))
    ok = True
    # every MC entry point bit-reproducible
    pairs = [
        simulate_joint_ruin(p0, 1.0, 2.0, 30.0, 50_000, seed=5) for _ in range(2)
    ]
    ok &= pairs[0] == pairs[1]
    pairs = [conditional_survival(p0, 1.0, 2.0, 50_000, seed=5) for _ in range(2)]
    ok &= pairs[0] == pairs[1]
    pairs = [ruin_time_lt(p0, 1.0, 2.0, 0.5, 30.0, 50_000, seed=5) for _ in range(2)]
    ok &= pairs[0] == pairs[1]
    # byte-identical CLI emissions
    outs = []
    for tag in ("a", "b"):
        f = tmp_path / f"table_{tag}.csv"
        cli_main(["table", "--model", str(model_file),
                  "--x1", "0.5", "2.0", "4", "--x2", "1.0", "3.0", "4",
                  "--output", str(f)])
        outs.append(f.read_bytes())
    ok &= outs[0] == outs[1]
    outs = []
    for tag in ("a", "b"):
        f = tmp_path / f"sim_{tag}.csv"
        cli_main(["simulate", "--model", str(model_file), "--u", "1", "2",
                  "--paths", "2e4", "--seed", "9", "--horizon", "25",
                  "--output", str(f)])
        outs.append(f.read_bytes())
    ok &= outs[0] == outs[1]
    capsys.readouterr()
    report(10, "MC estimates and CLI emissions byte-reproducible for fixed seeds", bool(ok))
