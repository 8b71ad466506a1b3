import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruin2d import closedform
from ruin2d.closedform import omega, survival
from ruin2d.errors import DomainError, ToleranceNotMet, UnsupportedClaimLaw
from ruin2d.mc import conditional_survival
from ruin2d.model import Exponential, RiskModel, derive, normalize
from ruin2d.transform import invert_2d

from conftest import z_score
from oracles import g, mp_omega, residue_terms


def test_omega_boundary_identity_p0(p0):
    dc = derive(p0)
    expected = dc.C1 * math.exp(-dc.gamma1) - dc.C2 * math.exp(-dc.gamma2)
    assert expected == pytest.approx(-0.132127, abs=1e-6)
    val, err = omega(p0, 1.0, 1.0, tol=1e-9)
    assert val == pytest.approx(expected, abs=1e-7)
    assert err < 1e-9


def test_omega_decays_in_x2(p0):
    val, _ = omega(p0, 1.0, 50.0, tol=1e-12)
    assert abs(val) < 1e-10


def test_omega_finite_at_zero_x1(p0):
    val, err = omega(p0, 0.0, 1.0)
    assert abs(val) < 1.0
    assert math.isfinite(val) and err < 1e-8


def test_omega_underflow_saturation(p0):
    val, err = omega(p0, 3000.0, 3001.0)
    assert val == 0.0 and err == 0.0
    res = survival(p0, 3000.0, 3001.0)
    assert res.omega == 0.0 and res.quadrature_error == 0.0
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_survival_lower_cone(p0):
    res = survival(p0, 2.0, 1.0)
    assert res.value == pytest.approx(1.0 - 0.5 * math.exp(-0.5), abs=1e-12)
    assert res.value == pytest.approx(0.696735, abs=1e-6)
    assert res.omega == 0.0


def test_survival_cone_boundary_continuity(p0, p1):
    for m in (p0, p1):
        dc = derive(m)
        for x in (0.25, 0.5, 1.0, 2.0, 4.0):
            upper = survival(m, x, x * (1.0 + 1e-12) + 1e-13, tol=1e-8).value
            cone = 1.0 - dc.C2 * math.exp(-dc.gamma2 * x)
            assert abs(upper - cone) <= 1e-6


def test_survival_interior_pinned_by_mc(p0, p1):
    for m, pt in ((p0, (1.0, 3.0)), (p1, (1.0, 2.0))):
        res = survival(m, *pt)
        est = conditional_survival(m, pt[0], pt[1], 200_000, seed=31)
        assert abs(z_score(res.value, est)) <= 3.5


def test_survival_p0_value_frozen(p0):
    # frozen against the double-inversion route and the conditional MC oracle
    assert survival(p0, 1.0, 3.0).value == pytest.approx(0.8059766742, abs=1e-8)
    assert survival(p0, 1.0, 2.0).value == pytest.approx(0.7782018140, abs=1e-8)


def test_residue_terms_case1(p0):
    terms = residue_terms(p0, 1.0, 2.0)
    dc = derive(p0)
    # z1(-gamma2) = 0 in case 1, so the cross term cancels company2 exactly
    assert terms["cross"] == pytest.approx(-terms["company2"], abs=1e-14)
    assert terms["company1"] == pytest.approx(-dc.C1 * math.exp(-dc.gamma1), abs=1e-14)
    assert terms["constant"] == 1.0


def test_residue_terms_case2(p1):
    dc = derive(p1)
    x1, x2 = 1.0, 2.0
    terms = residue_terms(p1, x1, x2)
    expected_cross = (dc.p2 / dc.p1) * math.exp(-dc.gamma3 * x1 - dc.gamma2 * x2)
    assert terms["cross"] == pytest.approx(expected_cross, rel=1e-12, abs=0)
    assert dc.gamma3 == pytest.approx(0.469091, abs=1e-6)


def test_residue_zero_pole_coefficient_matches_g_limit(p0, p1):
    """a * (residue at 0) recovers lim q g(q) = C1 to 1e-8."""
    for m in (p0, p1):
        dc = derive(m)
        eps = 1e-6
        lim = 2.0 * (eps / 2.0) * g(m, eps / 2.0) - eps * g(m, eps)
        assert lim == pytest.approx(dc.C1, abs=1e-8)
        terms = residue_terms(m, 1.0, 2.0)
        assert terms["company1"] == pytest.approx(-lim * math.exp(-dc.gamma1), abs=1e-7)


def test_ruin_at_origin(p0):
    assert survival(p0, 0.0, 0.0).ruin == pytest.approx(0.5, abs=1e-12)


def test_small_ruin_keeps_its_digits(p0):
    # 1 - survival loses the digits below 1e-16; in case 1 at x2 = 2 x1 the psi1 term leads
    dc = derive(p0)
    assert survival(p0, 60.0, 120.0).ruin == pytest.approx(dc.C1 * math.exp(-dc.gamma1 * 60.0), rel=1e-12)
    assert survival(p0, 60.0, 50.0).ruin == pytest.approx(dc.C2 * math.exp(-dc.gamma2 * 50.0), rel=1e-12)


def test_ruin_monotone_in_reserves(p0):
    assert survival(p0, 1.0, 3.0).ruin >= survival(p0, 2.0, 3.0).ruin >= survival(p0, 2.0, 4.0).ruin
    assert survival(p0, 30.0, 40.0).ruin < 1e-8


def test_survival_monotone_on_grid(p0):
    xs = np.linspace(0.0, 4.0, 10)
    vals = np.array([[survival(p0, x1, x2).value for x2 in xs] for x1 in xs])
    assert np.all(np.diff(vals, axis=0) >= -1e-8)
    assert np.all(np.diff(vals, axis=1) >= -1e-8)
    assert np.all(vals >= -1e-9) and np.all(vals <= 1.0 + 1e-9)


def test_regime_seam_continuity():
    # vary rho across p2^2/p1 = 4/3 with +-1e-3 perturbations; the one-sided
    # linear extrapolations to the seam must agree (the gamma3 term merges
    # with -C2 e^{-gamma2 x2} as gamma3 -> 0), isolating any regime jump from
    # the smooth dependence on lambda
    star, h = 4.0 / 3.0, 1e-3

    def s_at(rho):
        m = RiskModel(lam=rho, claim=Exponential(1.0), c1=3.0, c2=2.0)
        return survival(m, 1.0, 2.0, tol=1e-10).value

    left = 2.0 * s_at(star - h) - s_at(star - 2 * h)
    right = 2.0 * s_at(star + h) - s_at(star + 2 * h)
    assert abs(left - right) < 1e-4
    m_lo = RiskModel(lam=star - h, claim=Exponential(1.0), c1=3.0, c2=2.0)
    m_hi = RiskModel(lam=star + h, claim=Exponential(1.0), c1=3.0, c2=2.0)
    assert derive(m_lo).regime == "case1" and derive(m_hi).regime == "case2"


def test_cross_method_against_inversion(p0):
    for pt in ((0.5, 1.5), (1.0, 2.0), (2.0, 3.0)):
        assert survival(p0, *pt).value == pytest.approx(
            invert_2d(p0, *pt), abs=2e-3
        )


def test_errors(p0, erlang2_model):
    with pytest.raises(DomainError, match="reserves must be nonnegative"):
        survival(p0, -0.5, 1.0)
    with pytest.raises(UnsupportedClaimLaw):
        survival(erlang2_model, 1.0, 2.0)


@pytest.mark.parametrize("x1, x2", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
@pytest.mark.parametrize("call", [survival, lambda *point: survival(*point).ruin, omega],
                         ids=["survival", "ruin", "omega"])
def test_nan_reserves_rejected(p0, call, x1, x2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before quad could warn
        with pytest.raises(DomainError, match="reserves must be nonnegative"):
            call(p0, x1, x2)


def test_infinite_reserves_are_limits(p0):
    dc = derive(p0)
    # x2 -> inf leaves company 1 alone; x1 -> inf leaves the lower-cone formula
    assert survival(p0, 1.0, math.inf).value == pytest.approx(0.8288609603, abs=1e-10)
    assert survival(p0, 1.0, math.inf).value == 1.0 - dc.C1 * math.exp(-dc.gamma1)
    assert survival(p0, math.inf, 1.0).value == 1.0 - dc.C2 * math.exp(-dc.gamma2)
    assert survival(p0, math.inf, math.inf).value == 1.0
    assert survival(p0, math.inf, math.inf).ruin == 0.0
    assert omega(p0, 1.0, math.inf) == (0.0, 0.0)


@pytest.mark.parametrize("x2", [1.0, math.inf])
def test_omega_refuses_infinite_x1(p0, x2):
    # the panel count grows with x1; survival never asks, since x2 <= x1 = inf is the lower cone
    with pytest.raises(DomainError, match="needs a finite x1"):
        omega(p0, math.inf, x2)


@pytest.mark.parametrize("x1, x2", [(200.0, 0.0), (1000.0, 500.0), (100.0, 0.0), (5.0, 4.0)])
def test_omega_refuses_the_lower_cone(p0, x1, x2):
    # below the diagonal the cut integral means nothing: it used to overflow, miss its
    # tolerance by 6e237 or return -0.0519; survival never asks there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="x2 >= x1"):
            omega(p0, x1, x2)


def test_quadrature_error_reported_below_tol(p0):
    res = survival(p0, 1.0, 2.0, tol=1e-8)
    assert 0.0 <= res.quadrature_error <= 1e-8


def test_unreachable_tolerance_raises(p0):
    from ruin2d.errors import ToleranceNotMet

    with pytest.raises(ToleranceNotMet):
        omega(p0, 1.0, 2.0, tol=1e-16)


# ND is near-degenerate (p1 -> p2 -> rho); E1 has margin e1 = (p1 - p2)/p2 = 1e-5
INTEGRAND_MODELS = {
    "P0": RiskModel(lam=1.0, claim=Exponential(1.0), c1=3.0, c2=2.0),
    "P1": RiskModel(lam=2.0, claim=Exponential(1.0), c1=5.0, c2=2.2),
    "ND": RiskModel(lam=1.0, claim=Exponential(1.0), c1=1.002, c2=1.001),
    "E1": RiskModel(lam=1.0, claim=Exponential(1.0), c1=1.01 * (1.0 + 1e-5), c2=1.01),
}
INTEGRAND_RESERVES = [(0.0, 0.5), (0.7, 1.3), (2.5, 2.5), (4.0, 9.5), (25.0, 26.0)]


# On the regime seam rho = p2^2/p1 the pole -gamma2 meets q_minus_end: exactly at
# c = (4, 2), and 1.1e-16 inside the cut after rounding at c = (9, 3).
SEAM_MODELS = {
    "c=(4,2)": RiskModel(lam=1.0, claim=Exponential(1.0), c1=4.0, c2=2.0),
    "c=(9,3)": RiskModel(lam=1.0, claim=Exponential(1.0), c1=9.0, c2=3.0),
}


def mp_cut_integrand(model, dc, x1, x2):
    """``closedform._cut_integrand``'s expression in ``d``, in 40-digit arithmetic.

    Its constants are the float ones the integrand reads, ``span`` included,
    so the two differ only by the integrand's own rounding.
    """
    import mpmath as mp

    mu, lam, p1, p2 = (mp.mpf(v) for v in (dc.mu, model.lam, dc.p1, dc.p2))
    hi, gap = mp.mpf(dc.q_minus_end), mp.mpf(dc.end_gap)
    span = mp.mpf(dc.q_minus_end - dc.q_plus_end)

    def integrand(d):
        with mp.workdps(40):
            d = mp.mpf(d)
            q = hi - d
            a = -(p1 * mu - lam + (p1 + p2) * q) / (2 * p1)
            b = (p1 - p2) / (2 * p1) * mp.sqrt(max(d * (span - d), 0))
            osc = (mu + q + a) * mp.sin(b * x1) + b * mp.cos(b * x1)
            return mp.exp(x1 * a + x2 * q) * osc / (p2 * q * (gap - d))

    return integrand


@pytest.mark.parametrize("name", [*INTEGRAND_MODELS, *SEAM_MODELS])
def test_cut_integrand_matches_mpmath(name):
    model = {**INTEGRAND_MODELS, **SEAM_MODELS}[name]
    dc = derive(model)
    span = dc.q_minus_end - dc.q_plus_end
    # a uniform grid, points crowding towards each cut end down to 1e-14 of the
    # cut (d = 0 is q_minus_end, where a seam model's integrand is unbounded) and
    # random points
    crowd = span * np.logspace(-14, 0, 120)
    ds = np.linspace(0.0, span, 101)[1:-1].tolist() + crowd.tolist()
    ds += (span - crowd[:-1]).tolist() + np.random.default_rng(7).uniform(0, span, 60).tolist()
    for x1, x2 in INTEGRAND_RESERVES:
        got = np.array([closedform._cut_integrand(model, dc, x1, x2)(d) for d in ds])
        want = np.array([float(v) for v in map(mp_cut_integrand(model, dc, x1, x2), ds)])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (x1, x2)


def reference_integrand(model, dc, x1, x2):
    """The cut integrand in ``d``, written out from ``derive``'s record with nothing bound
    ahead of the call, which ``closedform._cut_integrand`` must match bit for bit."""

    def integrand(d):
        p1, p2, hi = dc.p1, dc.p2, dc.q_minus_end
        q = hi - d
        s = (p1 - p2) / (2.0 * p1) * q - (p1 * dc.mu - model.lam) / (2.0 * p1)
        w = d * (hi - dc.q_plus_end - d)
        b = (p1 - p2) / (2.0 * p1) * math.sqrt(w) if w > 0.0 else 0.0
        osc = (dc.mu + s) * math.sin(b * x1) + b * math.cos(b * x1)
        return math.exp(x1 * s + (x2 - x1) * q) * osc / (p2 * q * (dc.end_gap - d))

    return integrand


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("scalar", [float, np.float64], ids=["float", "float64"])
@pytest.mark.parametrize("name", INTEGRAND_MODELS)
def test_cut_integrand_matches_reference_bits(name, scalar):
    model = INTEGRAND_MODELS[name]
    dc = derive(model)
    span = dc.q_minus_end - dc.q_plus_end
    # both cut ends (d = 0 is q_minus_end, d = span is q_plus_end, where b is 0 or
    # w rounds to 0), a uniform grid, points crowding towards each end and random points
    crowd = span * np.logspace(-14, 0, 2000)
    ds = np.linspace(0.0, span, 4001).tolist()
    ds += crowd.tolist() + (span - crowd[:1000]).tolist()
    ds += np.random.default_rng(7).uniform(0.0, span, 3000).tolist()
    for x1, x2 in INTEGRAND_RESERVES:
        x1, x2 = scalar(x1), scalar(x2)
        got = closedform._cut_integrand(model, dc, x1, x2)
        want = reference_integrand(model, dc, x1, x2)
        assert np.array_equal(bits([got(d) for d in ds]), bits([want(d) for d in ds])), (x1, x2)


def counting(factory, nodes):
    def make(*args):
        integrand = factory(*args)

        def counted(d):
            nodes.append(d)
            return integrand(d)

        return counted

    return make


@pytest.mark.parametrize("name, x1, x2, tol", [
    ("P0", 1.0, 2.0, 1e-8), ("P0", 0.0, 1.0, 1e-8), ("P1", 12.0, 14.0, 1e-8),
    ("ND", 0.5, 1.0, 1e-6), ("E1", 0.5, 1.5, 1e-8),
])
def test_omega_quad_nodes_match_reference(monkeypatch, name, x1, x2, tol):
    model = INTEGRAND_MODELS[name]
    got_nodes, want_nodes = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no IntegrationWarning, ND included
        monkeypatch.setattr(closedform, "_cut_integrand",
                            counting(closedform._cut_integrand, got_nodes))
        got = omega(model, np.float64(x1), np.float64(x2), tol=tol)
        monkeypatch.setattr(closedform, "_cut_integrand", counting(reference_integrand, want_nodes))
        want = omega(model, np.float64(x1), np.float64(x2), tol=tol)
    assert got == want
    assert len(got_nodes) == len(want_nodes) > 0
    assert got_nodes == want_nodes


def test_mp_omega_reference_matches_omega_on_p0(p0):
    assert mp_omega(p0, 1.0, 2.0) == pytest.approx(omega(p0, 1.0, 2.0, tol=1e-12)[0], abs=1e-12)


def test_omega_error_bound_near_degenerate():
    # the pole -gamma2 sits 2.5e-10 past q_minus_end, on a cut 4004 long
    model = RiskModel(lam=1.0, claim=Exponential(1.0), c1=1.002, c2=1.001)
    value, err = omega(model, 0.5, 1.0, tol=1e-8)
    assert abs(value - mp_omega(model, 0.5, 1.0)) <= err


@pytest.mark.parametrize("x1, x2", [(0.0, 0.5), (1.0, 3.0), (2.0, 2.5), (12.0, 14.0)])
@pytest.mark.parametrize("name", SEAM_MODELS)
def test_omega_on_regime_seam(name, x1, x2):
    model = SEAM_MODELS[name]
    dc = derive(model)
    assert dc.q_minus_end + dc.gamma2 == {"c=(4,2)": 0.0, "c=(9,3)": 2.0**-53}[name]
    assert dc.end_gap == 0.0
    value, err = omega(model, x1, x2, tol=1e-8)
    assert abs(value - mp_omega(model, x1, x2)) <= err <= 1e-8


def test_omega_error_bound_next_to_regime_seam():
    # c1 = 3.999 is 1e-3 from the seam c1 = 4: the pole -gamma2 sits 1.6e-8 past q_minus_end
    model = RiskModel(lam=1.0, claim=Exponential(1.0), c1=3.999, c2=2.0)
    value, err = omega(model, 0.3, 0.8, tol=1e-8)
    assert abs(value - mp_omega(model, 0.3, 0.8)) <= err


# Within 1e-7 of the seam the pole -gamma2 sits about an ulp of q_minus_end past it:
# 1.4 ulp at c1 = 4 +- 1e-7, 0.7 ulp at 4 +- 5e-8 and 1e-4 ulp at 4 +- 1e-9; the
# integrand reads that distance as derive's end_gap, not as a difference next to q_minus_end
@pytest.mark.parametrize("c1", [4 + 1e-7, 4 - 1e-7, 4 + 5e-8, 4 - 5e-8, 4 + 1e-9, 4 - 1e-9])
def test_omega_within_an_ulp_of_regime_seam(c1):
    model = RiskModel(lam=1.0, claim=Exponential(1.0), c1=c1, c2=2.0)
    value, err = omega(model, 1.0, 3.0, tol=1e-8)
    assert abs(value - mp_omega(model, 1.0, 3.0)) <= err


# Where q + gamma2 and b, built from the model's raw parameters, once cancelled:
# next to the seam to about sqrt(ulp) (these points were off by 3.1e-9, 2.9e-9 and
# 8.7e-9 under bounds of 2.6e-9, 7.1e-12 and 8.5e-12), and at margins
# e1 = (p1 - p2)/p2 below about 1e-8, where omega refused.
@pytest.mark.parametrize("lam, mu, c, x", [
    (1.0, 1.0, (4 + 5e-8, 2.0), (0.05, 0.06)),
    (1.0, 1.0, (4 - 5e-8, 2.0), (0.05, 0.06)),
    (0.5012948697505991, 2.2232782320576114, (0.27503273521622584, 0.249024408435536),
     (14.865165251355505, 14.866364946513322)),
    (0.7968839975879595, 1.815112334716617, (0.4593614020651916, 0.44907931261887823),
     (12.600292515608778, 12.631051254215402)),
    # p1 = p2^2 to the last bit, so end_gap is 0 and only the pole q = 0, 1e-9 past
    # q_minus_end, grades the first panel: without it omega was 1.0e-13, not -2.0e-9
    (1.0, 1.0, (1.0000000020000002, 1.000000001), (1.0, 3.0)),
    # derive's end_gap was 4.4e-7 off here, and omega 2.2e-16 off under a bound of 3.1e-19
    (1.0, 1.0, (1.000000003, 1.000000001), (1.0, 3.0)),
    (1.8513038178371457, 0.3553552766071365, (5.209729646525698, 5.209729640725913),
     (0.0831923393446468, 0.17850566084941116)),
], ids=["seam+5e-8", "seam-5e-8", "seam-sweep", "seam-sweep-worst", "e1=1e-9", "e1=2e-9",
        "nd-sweep"])
def test_omega_within_its_bound_where_the_cut_cancelled(lam, mu, c, x):
    model = RiskModel(lam=lam, claim=Exponential(mu), c1=c[0], c2=c[1])
    value, err = omega(model, *x, tol=1e-8)
    assert abs(value - mp_omega(model, *x, dps=60)) <= err


def exact_ruin(model, x1, x2):
    """``(ruin, bound)`` of exact ``ruin`` at the CLI's default ``--tol``; None where it exits 4."""
    try:
        res = survival(model, x1, x2)
    except ToleranceNotMet:
        return None
    return res.ruin, res.quadrature_error


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# Ruin does not change when time (lam, c -> k lam, k c), money (c, u -> m c, m u and
# mu -> mu/m) or one company's share (c_i, delta_i, u_i -> k_i c_i, k_i delta_i, k_i u_i)
# is rescaled, but the cut integral's prefactor (p2 - rho)/pi scales by k m.  Where it
# exceeded 1, quad's target was that much too loose, and 4 of 200 random models exited
# 4 in their own units but answered once rescaled.  The canonical units, k = 1/(mu p2)
# and m = mu, set mu = p2 = 1 and leave lam = 1/(1 + e2), p1 = 1 + e1 and u = mu u.
@given(lam=log_uniform(0.01, 100.0), mu=log_uniform(0.01, 100.0), e1=log_uniform(1e-3, 30.0),
       e2=log_uniform(1e-3, 30.0), y1=log_uniform(0.01, 32.0), dy=log_uniform(1e-3, 50.0),
       k=log_uniform(0.01, 100.0), m=log_uniform(0.01, 100.0),
       k1=log_uniform(0.01, 100.0), k2=log_uniform(0.01, 100.0))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_exact_ruin_does_not_depend_on_the_units(lam, mu, e1, e2, y1, dy, k, m, k1, k2):
    p2 = (lam / mu) * (1.0 + e2)
    p1 = p2 * (1.0 + e1)
    x1, x2 = y1 / mu, (y1 + dy) / mu  # mu x1 and mu (x2 - x1) are unit-free
    drawn = RiskModel(lam=lam, claim=Exponential(mu), c1=p1, c2=p2)
    rescaled = RiskModel(lam=k * lam, claim=Exponential(mu / m), c1=k1 * k * m * p1,
                         c2=k2 * k * m * p2, delta1=k1, delta2=k2)
    canonical = RiskModel(lam=lam / (mu * p2), claim=Exponential(1.0), c1=p1 / p2, c2=1.0)
    a = exact_ruin(drawn, x1, x2)
    for b in (exact_ruin(rescaled, *normalize(rescaled, k1 * m * x1, k2 * m * x2)),
              exact_ruin(canonical, mu * x1, mu * x2)):
        assert (a is None) == (b is None), (a, b)
        if a is not None:
            assert abs(a[0] - b[0]) <= a[1] + b[1] + 1e-14


@st.composite
def valid_models(draw):
    """An exponential model from one of three regions of the valid space.

    ``wide`` has margins ``e1 = (p1 - p2)/p2`` and ``e2 = (p2 - rho)/rho`` in
    [1e-3, 30]; ``margins`` takes them down to twice ``validate``'s floor of
    1e-12, so that rounding cannot cross it; ``seam`` puts ``p1`` at
    ``(p2^2/rho)(1 +- delta)`` with ``delta`` in [1e-10, 1e-2].
    """
    lam, mu = draw(log_uniform(0.01, 100.0)), draw(log_uniform(0.01, 100.0))
    region = draw(st.sampled_from(["wide", "margins", "seam"]))
    rho = lam / mu
    if region == "seam":
        # e2 >= 0.02 keeps p1 > p2 on the minus side of the band
        p2 = rho * (1.0 + draw(log_uniform(0.02, 30.0)))
        delta = draw(st.sampled_from([1.0, -1.0])) * draw(log_uniform(1e-10, 1e-2))
        p1 = (p2 * p2 / rho) * (1.0 + delta)
    else:
        lo = 1e-3 if region == "wide" else 2e-12
        p2 = rho * (1.0 + draw(log_uniform(lo, 30.0)))
        p1 = p2 * (1.0 + draw(log_uniform(lo, 30.0)))
    return RiskModel(lam=lam, claim=Exponential(mu), c1=p1, c2=p2)


@given(model=valid_models(), y1=log_uniform(0.01, 32.0), dy=log_uniform(1e-3, 50.0))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_exact_ruin_lies_between_the_one_company_ruins(model, y1, dy):
    # either company's ruin is joint ruin, so max(psi1, psi2) <= ruin <= psi1 + psi2
    dc = derive(model)
    x1, x2 = y1 / dc.mu, (y1 + dy) / dc.mu
    res = survival(model, x1, x2)  # ToleranceNotMet, the CLI's exit 4, fails the test
    psi1, psi2 = dc.C1 * math.exp(-dc.gamma1 * x1), dc.C2 * math.exp(-dc.gamma2 * x2)
    slack = res.quadrature_error + 1e-14
    assert max(psi1, psi2) - slack <= res.ruin <= psi1 + psi2 + slack


@pytest.fixture()
def quad_panels(monkeypatch):
    """Each ``scipy.integrate.quad`` call's ``(left, right)``; ``omega`` imports it per call."""
    import scipy.integrate

    panels, quad = [], scipy.integrate.quad

    def counted(func, left, right, **kwargs):
        panels.append((left, right))
        return quad(func, left, right, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    return panels


def test_omega_panels_follow_the_oscillation_not_the_cut_length(quad_panels):
    # ND's cut is 4004 long; panels in proportion to it made about 3 800 quad calls here
    model = INTEGRAND_MODELS["ND"]
    value, err = omega(model, 3.0, 3.5, tol=1e-8)
    assert 1 <= len(quad_panels) <= 20
    assert abs(value - mp_omega(model, 3.0, 3.5)) <= err


def test_omega_panel_layout_on_p0(quad_panels):
    model, x1, x2 = INTEGRAND_MODELS["P0"], 29.0, 31.0
    dc = derive(model)
    span = dc.q_minus_end - dc.q_plus_end
    # panels in d = q_minus_end - q; x1 b makes about x1 b_max / pi half-periods
    # across the cut, whatever its length
    uniform = np.linspace(0.0, span, math.ceil(x1 * dc.b_max / math.pi) + 1)
    # the first panel is graded up from d = 0 from the damping length of exp(x1 a + x2 q)
    damping = 1.0 / (x2 - x1 * (dc.p1 + dc.p2) / (2.0 * dc.p1))
    graded = [damping * 10.0**j for j in range(20) if damping * 10.0**j < uniform[1]]
    omega(model, x1, x2, tol=1e-8)
    edges = [left for left, _ in quad_panels] + [quad_panels[-1][1]]
    assert len(graded) == 1
    assert edges == pytest.approx([0.0, *graded, *uniform[1:]], rel=0, abs=1e-12)


# A random model of a sweep whose integrand's mass sits next to q_minus_end: its
# damping length (1.5 and 22) is well below the last uniform panel (6.6 and 124 wide)
SWEEP_LAM, SWEEP_MU = 4.996830867309996, 0.31756002662663857


@pytest.mark.parametrize("c", [(30.595398059265126, 28.491770845589073),
                               (24.941498715225585, 24.839863927198156)])
def test_omega_grades_towards_the_damped_cut_end(c):
    model = RiskModel(lam=SWEEP_LAM, claim=Exponential(SWEEP_MU), c1=c[0], c2=c[1])
    x1, x2 = 18.829498055826782, 18.836062594545183
    value, err = omega(model, x1, x2, tol=1e-8)
    assert abs(value - mp_omega(model, x1, x2)) <= err


def test_omega_within_its_bound_or_refuses():
    # the same model at a point where the cut integral misses tol=1e-8
    model = RiskModel(lam=SWEEP_LAM, claim=Exponential(SWEEP_MU),
                      c1=30.595398059265126, c2=28.491770845589073)
    x1, x2 = 2.065367789520867, 2.1551873387647458
    try:
        value, err = omega(model, x1, x2, tol=1e-8)
    except ToleranceNotMet:
        return
    assert abs(value - mp_omega(model, x1, x2)) <= err


# omega is held to an absolute target only (and at (30, 60) the early exit skips it),
# so the residue terms' relative digits are lost at small ruin
TO_RELATIVE = pytest.mark.xfail(strict=True, reason="Relative accuracy for small ruin "
                                "probabilities: omega's target is absolute")


@pytest.mark.parametrize("name, x1, x2", [
    ("p1", 20.0, 60.0),
    pytest.param("p0", 30.0, 60.0, marks=TO_RELATIVE),
    pytest.param("p0", 40.0, 41.0, marks=TO_RELATIVE),
    pytest.param("p0", 15.0, 30.0, marks=TO_RELATIVE),
    pytest.param("p0", 60.0, 120.0, marks=TO_RELATIVE),
])
def test_small_ruin_holds_its_relative_digits(request, name, x1, x2):
    # the ruin assembled from the residue terms and a 40-digit cut integral
    model = request.getfixturevalue(name)
    terms = residue_terms(model, x1, x2)
    reference = -(terms["company1"] + terms["company2"] + terms["cross"]) - mp_omega(
        model, x1, x2, dps=40)
    res = survival(model, x1, x2)
    assert abs(res.ruin - reference) <= res.quadrature_error <= 1e-8 * res.ruin
