import numpy as np
import pytest

from ruin2d import pde
from ruin2d.cli import main
from ruin2d.closedform import survival
from ruin2d.errors import DomainError, ToleranceNotMet, UnsupportedClaimLaw
from ruin2d.mc import ruin_time_lt
from ruin2d.model import Exponential, RiskModel
from ruin2d.onedim import ruin_transform_exp
from ruin2d.pde import GoursatCoefficients, evaluate, solve, to_grid_coords

from conftest import march_rectangle, triangle_reference


def bessel_series(mu_lam: float, r: float, w: float) -> float:
    """Exact solution sum_k (-mu lam r w)^k / (k!)^2 of the pure problem."""
    x = -mu_lam * r * w
    term, total = 1.0, 1.0
    for k in range(1, 120):
        term *= x / (k * k)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def test_boundary_row_is_imposed(p0):
    grid = solve(p0, s=0.0, r_max=5.0, steps=40)
    datum = np.array([ruin_transform_exp(p0, r, 0.0) for r in np.arange(grid.n + 1) * grid.r_step])
    assert np.array_equal(grid.chi[:, 0], datum)
    assert abs(float(grid.chi[0, 0]) - ruin_transform_exp(p0, 0.0, 0.0)) == 0.0


def test_oblique_edge_carries_unit_xi(p0):
    grid = solve(p0, s=0.0, r_max=5.0, steps=40)
    diag = np.diagonal(grid.xi)
    assert np.allclose(diag, 1.0, atol=0.0)


def test_matches_closed_form_at_s0(p0):
    grid = solve(p0, s=0.0, r_max=9.0, steps=300)
    got = evaluate(grid, 1.0, 3.0)
    assert got == pytest.approx(survival(p0, 1.0, 3.0).ruin, abs=1e-3)
    assert grid.error_estimate < 1e-4


def test_grid_agreement_on_cone_grid(p0, p1):
    # 5x5 upper-cone grids, both regimes, 1e-3 agreement with the closed form
    x1s = (0.4, 0.8, 1.2, 1.6, 2.0)
    offs = (0.4, 0.8, 1.2, 1.6, 2.0)
    for m in (p0, p1):
        pts = [(x1, x1 + off) for x1 in x1s for off in offs]
        r_need = max(to_grid_coords(m, *p)[0] for p in pts)
        grid = solve(m, s=0.0, r_max=1.05 * r_need, steps=300)
        for x1, x2 in pts:
            assert evaluate(grid, x1, x2) == pytest.approx(survival(m, x1, x2).ruin, abs=1e-3)


def test_matches_mc_at_positive_s(p0):
    s, horizon = 0.5, 25.0
    grid = solve(p0, s=s, r_max=6.0, steps=250)
    est = ruin_time_lt(p0, 1.0, 2.0, s, horizon, 200_000, seed=44)
    got = evaluate(grid, 1.0, 2.0)
    assert abs(got - est.mean) <= 3.5 * est.std_error + est.meta["bias_bound"]


def test_discrete_residual_second_order(p0):
    """Centered-difference residual of the first-order system is O(h^2)."""

    def max_residual(steps):
        grid = solve(p0, s=0.0, r_max=6.0, steps=steps)
        chi, xi = grid.chi, grid.xi
        n = grid.n
        lam, mu = p0.lam, p0.claim.mu
        worst = 0.0
        for i in range(2, n - 1, 3):
            for j in range(1, i - 1, 2):
                if j + 1 > i or i + 1 > n or j + 1 > i - 1:
                    continue
                chi_w = (chi[i, j - 1] - chi[i, j + 1]) / (2.0 * grid.w_step)
                xi_r = (xi[i + 1, j] - xi[i - 1, j]) / (2.0 * grid.r_step)
                r1 = chi_w - lam * chi[i, j] + lam * xi[i, j]
                r2 = -xi_r + mu * chi[i, j] - mu * xi[i, j]
                worst = max(worst, abs(r1), abs(r2))
        return worst

    coarse, fine = max_residual(60), max_residual(120)
    assert coarse / fine >= 3.0


def test_oblique_boundary_condition_second_order(p0):
    """lam^-1 [(lam+s)chi - chi_w] = 1 on the oblique edge, to O(h^2)."""
    s = 0.25

    def worst_gap(steps):
        grid = solve(p0, s=s, r_max=6.0, steps=steps)
        chi = grid.chi
        lam = p0.lam
        gaps = []
        for i in range(4, grid.n + 1, 3):
            # second-order one-sided derivative in w at the edge node (i, i)
            chi_w = (-3.0 * chi[i, i] + 4.0 * chi[i, i - 1] - chi[i, i - 2]) / (
                2.0 * grid.w_step
            )
            gaps.append(abs(((lam + s) * chi[i, i] - chi_w) / lam - 1.0))
        return max(gaps)

    coarse, fine = worst_gap(80), worst_gap(160)
    assert coarse / fine >= 3.0
    assert fine < 1e-3


def test_goursat_kernel_against_bessel_series():
    """Manufactured data h(r,0)=1, h(0,w)=1 on a rectangle; solver vs series."""
    mu_lam = 1.0
    coeffs = GoursatCoefficients(alpha=0.0, beta=1.0, gamma=-mu_lam, delta=0.0)

    def run(n):
        dr = dw = 1.0 / n
        top = np.ones(n + 1)
        left = np.zeros(n + 1)  # h_w(0, w) = 0 because h(0, w) is constant
        P, _ = march_rectangle(coeffs, n, n, dr, dw, top, left)
        return P

    coarse, fine = run(150), run(300)
    rich = (4.0 * fine[::2, ::2] - coarse) / 3.0
    worst = 0.0
    for i in (0, 50, 75, 150):
        for j in (0, 50, 75, 150):
            exact = bessel_series(mu_lam, i / 150.0, -j / 150.0)
            worst = max(worst, abs(rich[i, j] - exact))
    assert worst <= 1e-8
    # left-edge consistency: h(0, w) stays at its prescribed value 1
    assert np.allclose(rich[0, :], 1.0, atol=1e-12)


def test_grid_too_coarse(p0):
    with pytest.raises(ToleranceNotMet, match="step-halving estimate"):
        solve(p0, s=0.0, r_max=8.0, steps=12, tol=1e-12)


def test_cone_boundary_returns_datum(p0):
    grid = solve(p0, s=0.0, r_max=5.0, steps=100)
    # u2/delta2 = u1/delta1: w = 0 row
    val = evaluate(grid, 2.0, 2.0)
    assert val == pytest.approx(ruin_transform_exp(p0, 2.0, 0.0), abs=1e-9)


def test_monotone_in_s(p0):
    lo = solve(p0, s=0.1, r_max=9.0, steps=150)
    hi = solve(p0, s=1.0, r_max=9.0, steps=150)
    for pt in ((1.0, 2.0), (0.5, 1.5), (2.0, 3.5)):
        assert evaluate(lo, *pt) >= evaluate(hi, *pt)


def test_normalization_invariance():
    raw = RiskModel(lam=1.0, claim=Exponential(1.0), c1=1.5, c2=1.0,
                    delta1=0.5, delta2=0.5)
    unit = RiskModel(lam=1.0, claim=Exponential(1.0), c1=3.0, c2=2.0)
    graw = solve(raw, s=0.3, r_max=8.0, steps=250)
    gunit = solve(unit, s=0.3, r_max=8.0, steps=250)
    # (u1, u2) = (0.5, 1.5) in raw coordinates is (1, 3) normalized
    a = evaluate(graw, 0.5, 1.5)
    b = evaluate(gunit, 1.0, 3.0)
    assert a == pytest.approx(b, abs=2e-4)


def test_evaluate_domain_errors(p0):
    grid = solve(p0, s=0.0, r_max=4.0, steps=60)
    with pytest.raises(DomainError, match="below the cone boundary"):
        evaluate(grid, 3.0, 1.0)
    with pytest.raises(DomainError, match=r"outside \[0, "):
        evaluate(grid, 1.0, 50.0)


@pytest.mark.parametrize("u1, u2", [(1.0, np.inf), (np.inf, 1.0), (np.inf, np.inf), (1.0, np.nan)])
def test_evaluate_non_finite_point_out_of_footprint(p0, u1, u2):
    grid = solve(p0, s=0.0, r_max=4.0, steps=60)
    with pytest.raises(DomainError, match="is not a finite point"):
        evaluate(grid, u1, u2)


@pytest.mark.parametrize("s, r_max, steps", [
    (np.nan, 4.0, 10), (np.inf, 4.0, 10), (-0.5, 4.0, 10),
    (0.0, np.inf, 10), (0.0, np.nan, 10), (0.0, 0.0, 10), (0.0, 4.0, 1),
    # grids whose march overflows, nodes that nanmax over the gap would skip
    (0.0, 1e300, 2), (0.0, 1e30, 2), (0.0, 1e300, 40),
])
def test_solve_refuses_out_of_domain_input(p0, s, r_max, steps):
    with pytest.raises(DomainError):
        solve(p0, s=s, r_max=r_max, steps=steps)


def test_phasetype_rejected(erlang2_model):
    with pytest.raises(UnsupportedClaimLaw):
        solve(erlang2_model, s=0.0, r_max=4.0, steps=40)


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 40, 400, 401, 800])
@pytest.mark.parametrize("s", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("name", ["p0", "p1", "nd"])
def test_triangle_march_matches_reference_bits(request, name, s, n):
    model = request.getfixturevalue(name)
    dr = 6.0 / n
    dw = model.delta1 / model.c1 * dr
    mu = model.claim.mu
    coeffs = pde.GoursatCoefficients(alpha=model.lam + s, beta=-model.lam, gamma=mu, delta=-mu)
    top = ruin_transform_exp(model, np.arange(n + 1) * dr, s)
    got = pde.march_triangle(coeffs, n, dr, dw, top)
    want = triangle_reference(coeffs, n, dr, dw, top)
    assert_same_bits(got, want)


def test_solve_matches_reference_kernel(p1, monkeypatch):
    got = solve(p1, s=0.5, r_max=4.0, steps=60)
    monkeypatch.setattr(pde, "march_triangle", triangle_reference)
    want = solve(p1, s=0.5, r_max=4.0, steps=60)
    assert_same_bits((got.chi, got.xi), (want.chi, want.xi))
    assert got.error_estimate == want.error_estimate


def test_error_estimate_bounds_interior_points(p0, p1, nd):
    rng = np.random.default_rng(28)
    grids = [(p0, 8.0, 150), (p0, 5.0, 60), (p0, 12.0, 400), (p1, 8.0, 150), (p1, 5.0, 60),
             (p1, 12.0, 400), (nd, 8.0, 150), (nd, 5.0, 60)]
    for model, r_max, steps in grids:
        grid = solve(model, s=0.0, r_max=r_max, steps=steps)
        # anywhere, in the first columns near the apex, and in the half cells along the
        # oblique edge (the last cell of a column, between j = floor(i) and the edge)
        fi = np.concatenate([rng.uniform(0, grid.n, 15), rng.uniform(0, 4, 10),
                             rng.uniform(0, grid.n, 10)])
        fj = np.concatenate([rng.uniform(0, fi[:25]), rng.uniform(np.floor(fi[25:]), fi[25:])])
        for r, w in zip(fi * grid.r_step, -fj * grid.w_step):
            u1 = max(model.delta1 * r + model.c1 * w, 0.0)
            u2 = model.delta2 * r + model.c2 * w
            exact = survival(model, u1, u2, tol=1e-12)
            assert abs(evaluate(grid, u1, u2) - exact.ruin) <= (
                grid.error_estimate - exact.quadrature_error), (u1, u2)


@pytest.mark.parametrize("steps", [2, 3, 4, 5])
def test_evaluate_is_finite_on_tiny_grids(p0, p1, nd, steps):
    for model in (p0, p1, nd):
        grid = solve(model, s=0.5, r_max=2.0, steps=steps)
        for fi in np.linspace(0.0, grid.n, 4 * grid.n + 1):  # the apex to the last column
            for fj in (0.0, fi / 3, fi):  # the cone boundary, inside, the oblique edge
                r, w = fi * grid.r_step, -fj * grid.w_step
                u1, u2 = model.delta1 * r + model.c1 * w, model.delta2 * r + model.c2 * w
                assert np.isfinite(evaluate(grid, u1, u2)), (fi, fj)


def test_last_column_is_extrapolated(p1):
    grid = solve(p1, s=0.5, r_max=4.0, steps=30)
    coarse, _, _, _ = pde._solve_once(p1, 0.5, 4.0, 30)
    assert_same_bits((grid.chi_gap,), (grid.chi[::2, ::2] - coarse,))
    # at a node (2k, 2l) of both grids the cubics take the node values, up to the rounding
    # of the node's (u1, u2): the Richardson value (4 fine - coarse) / 3.  From column 3 on,
    # the stencils hold the node, on the last column and inside the grid alike.
    for k, l in ((30, 0), (30, 7), (30, 30), (3, 0), (3, 3), (7, 2), (15, 15), (22, 9), (29, 28)):
        r, w = 2 * k * grid.r_step, -2 * l * grid.w_step
        u1, u2 = p1.delta1 * r + p1.c1 * w, p1.delta2 * r + p1.c2 * w
        want = (4 * grid.chi[2 * k, 2 * l] - coarse[k, l]) / 3
        assert evaluate(grid, u1, u2) == pytest.approx(want, abs=1e-14)


# ruin --method pde at the raw reserves u and --steps; the tuple names its model by
# (lam, mu, c1, c2).  Each case but (20, 40) was outside its printed bound when the CLI
# interpolated bilinearly on a grid with r_max = 1.05 r.
CLI_PDE_CASES = {
    "P0-(0.3,4)": ((1, 1, 3, 2), (0.3, 4.0), 400),
    "P1-(0.3,4)": ((2, 1, 5, 2.2), (0.3, 4.0), 400),
    "ND-(1,2)": ((1, 1, 1.002, 1.001), (1.0, 2.0), 400),
    "P0-(0.05,8)": ((1, 1, 3, 2), (0.05, 8.0), 400),
    "P0-(20,40)": ((1, 1, 3, 2), (20.0, 40.0), 400),
    "c63-28": ((3.8, 0.24, 63, 28), (1.6, 1.7), 1600),
}


@pytest.mark.parametrize("params, u, steps", CLI_PDE_CASES.values(), ids=CLI_PDE_CASES)
def test_error_estimate_bounds_true_error_at_cli_default(capsys, params, u, steps):
    lam, mu, c1, c2 = params
    argv = ["ruin", "--lam", str(lam), "--mu", str(mu), "--c", str(c1), str(c2),
            "--u", str(u[0]), str(u[1]), "--method", "pde", "--steps", str(steps)]
    assert main(argv) == 0
    fields = capsys.readouterr().out.split()
    assert fields[:2] == ["ruin", "="] and fields[3] == "method=pde"
    value, bound = float(fields[2]), float(fields[4].removeprefix("error<="))
    exact = survival(RiskModel(lam=lam, claim=Exponential(mu), c1=c1, c2=c2), *u, tol=1e-12)
    assert abs(value - exact.ruin) <= bound - exact.quadrature_error
    if u == (0.3, 4.0):  # P0 and P1
        assert abs(value - exact.ruin) <= 1e-8
