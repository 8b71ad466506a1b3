import math
import warnings

import numpy as np
import pytest

from ruin2d import closedform
from ruin2d.closedform import omega, ruin, survival
from ruin2d.errors import DomainError, UnsupportedClaimLaw
from ruin2d.mc import conditional_survival
from ruin2d.model import Exponential, RiskModel, derive
from ruin2d.transform import ab, invert_2d

from conftest import z_score
from oracles import g, residue_terms


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
    assert terms["cross"] == pytest.approx(expected_cross, rel=1e-12)
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
    assert ruin(p0, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_small_ruin_keeps_its_digits(p0):
    # 1 - survival loses the digits below 1e-16; in case 1 at x2 = 2 x1 the psi1 term leads
    dc = derive(p0)
    assert ruin(p0, 60.0, 120.0) == pytest.approx(dc.C1 * math.exp(-dc.gamma1 * 60.0), rel=1e-12)
    assert ruin(p0, 60.0, 50.0) == pytest.approx(dc.C2 * math.exp(-dc.gamma2 * 50.0), rel=1e-12)


def test_ruin_monotone_in_reserves(p0):
    assert ruin(p0, 1.0, 3.0) >= ruin(p0, 2.0, 3.0) >= ruin(p0, 2.0, 4.0)
    assert ruin(p0, 30.0, 40.0) < 1e-8


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
@pytest.mark.parametrize("call", [survival, ruin, omega], ids=lambda f: f.__name__)
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
    assert ruin(p0, math.inf, math.inf) == 0.0
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


def test_ruin_clips_with_warning(p0, monkeypatch):
    import ruin2d.closedform as cf

    class FakeRes:
        ruin = -5e-9
        regime = "case1"

    monkeypatch.setattr(cf, "survival", lambda *a, **k: FakeRes())
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        val = cf.ruin(p0, 1.0, 2.0)
    assert val == 0.0
    assert rec and "outside" in str(rec[0].message)


def reference_integrand(model, dc, x1, x2):
    """The ``ab``-based cut integrand that ``closedform._cut_integrand`` must match bit for bit."""
    mu, lam, p2 = dc.mu, model.lam, dc.p2

    def integrand(q):
        a, b, f = ab(model, q, dc)
        damp = math.exp(x1 * a + x2 * q)
        return damp * (f * math.sin(b * x1) + b * math.cos(b * x1)) / (
            q * (q * p2 + mu * p2 - lam)
        )

    return integrand


# ND is near-degenerate (p1 -> p2 -> rho); E1 has margin e1 = (p1 - p2)/p2 = 1e-5
INTEGRAND_MODELS = {
    "P0": RiskModel(lam=1.0, claim=Exponential(1.0), c1=3.0, c2=2.0),
    "P1": RiskModel(lam=2.0, claim=Exponential(1.0), c1=5.0, c2=2.2),
    "ND": RiskModel(lam=1.0, claim=Exponential(1.0), c1=1.002, c2=1.001),
    "E1": RiskModel(lam=1.0, claim=Exponential(1.0), c1=1.01 * (1.0 + 1e-5), c2=1.01),
}
INTEGRAND_RESERVES = [(0.0, 0.5), (0.7, 1.3), (2.5, 2.5), (4.0, 9.5), (25.0, 26.0)]


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("scalar", [float, np.float64], ids=["float", "float64"])
@pytest.mark.parametrize("name", INTEGRAND_MODELS)
def test_cut_integrand_matches_reference_bits(name, scalar):
    model = INTEGRAND_MODELS[name]
    dc = derive(model)
    lo, hi = dc.q_plus_end, dc.q_minus_end
    # both cut ends (where the radicand is clamped), a uniform grid, points crowding
    # towards each end (where the damping is weakest near q_minus_end) and random points
    crowd = (hi - lo) * np.logspace(-14, 0, 2000)
    qs = np.linspace(lo, hi, 4001).tolist()
    qs += (hi - crowd).tolist() + (lo + crowd[:1000]).tolist()
    qs += np.random.default_rng(7).uniform(lo, hi, 3000).tolist()
    for x1, x2 in INTEGRAND_RESERVES:
        x1, x2 = scalar(x1), scalar(x2)
        got = closedform._cut_integrand(model, dc, x1, x2)
        want = reference_integrand(model, dc, x1, x2)
        assert np.array_equal(bits([got(q) for q in qs]), bits([want(q) for q in qs])), (x1, x2)


def counting(factory, nodes):
    def make(*args):
        integrand = factory(*args)

        def counted(q):
            nodes.append(q)
            return integrand(q)

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
        warnings.simplefilter("ignore")  # scipy's IntegrationWarning on ND
        monkeypatch.setattr(closedform, "_cut_integrand",
                            counting(closedform._cut_integrand, got_nodes))
        got = omega(model, np.float64(x1), np.float64(x2), tol=tol)
        monkeypatch.setattr(closedform, "_cut_integrand", counting(reference_integrand, want_nodes))
        want = omega(model, np.float64(x1), np.float64(x2), tol=tol)
    assert got == want
    assert len(got_nodes) == len(want_nodes) > 0
    assert got_nodes == want_nodes


def mp_omega(model, x1, x2, dps=30):
    """``omega`` from an mpmath integral in ``q = c + h cos(theta)`` over the cut.

    The substitution removes the square-root behaviour of ``b`` at the cut
    ends; the panels crowd towards ``theta = 0`` (``q_minus_end``), next to
    which a near-degenerate model puts the pole ``-gamma2``.
    """
    import mpmath as mp

    with mp.workdps(dps):
        lam, mu = mp.mpf(model.lam), mp.mpf(model.claim.mu)
        p1, p2 = mp.mpf(model.p1), mp.mpf(model.p2)
        x1, x2 = mp.mpf(x1), mp.mpf(x2)
        # the radicand a2 q^2 + a1 q + a0 of b(q) vanishes at both cut ends
        a2 = 4 * p1 * p2 - (p1 + p2) ** 2
        a1 = 4 * p1 * (p2 * mu - lam) - 2 * (p1 + p2) * (p1 * mu - lam)
        a0 = -((p1 * mu - lam) ** 2)
        c = -a1 / (2 * a2)
        h = mp.sqrt(a1 * a1 - 4 * a2 * a0) / (2 * abs(a2))
        # q_minus_end + gamma2, which is zero on the regime seam rho = p2^2/p1
        end_gap = -((p2 * mp.sqrt(mu) - mp.sqrt(lam * p1)) ** 2) / ((p1 - p2) * p2)

        def integrand(theta):
            q = c + h * mp.cos(theta)
            a = -(p1 * mu - lam + (p1 + p2) * q) / (2 * p1)
            b = mp.sqrt(max(a2 * q * q + a1 * q + a0, 0)) / (2 * p1)
            osc = (mu + q + a) * mp.sin(b * x1) + b * mp.cos(b * x1)
            # q + gamma2 without the cancellation of q_minus_end against -gamma2
            q_gamma2 = end_gap - 2 * h * mp.sin(theta / 2) ** 2
            return mp.exp(x1 * a + x2 * q) * osc / (q * p2 * q_gamma2) * h * mp.sin(theta)

        edges = [0] + [mp.mpf(10) ** -k for k in range(8, 0, -1)] + [mp.pi]
        return float(-(p2 - lam / mu) / mp.pi * mp.quad(integrand, edges))


def test_mp_omega_reference_matches_omega_on_p0(p0):
    assert mp_omega(p0, 1.0, 2.0) == pytest.approx(omega(p0, 1.0, 2.0, tol=1e-12)[0], abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="quad's error estimate misses the pole -gamma2 just past the cut end",
)
def test_omega_error_bound_near_degenerate():
    model = RiskModel(lam=1.0, claim=Exponential(1.0), c1=1.002, c2=1.001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy's IntegrationWarning: roundoff
        value, err = omega(model, 0.5, 1.0, tol=1e-8)
    assert abs(value - mp_omega(model, 0.5, 1.0)) <= err


# On the regime seam rho = p2^2/p1 the pole -gamma2 meets q_minus_end: exactly at
# c = (4, 2), and 1.1e-16 inside the cut after rounding at c = (9, 3).
SEAM_MODELS = {
    "c=(4,2)": RiskModel(lam=1.0, claim=Exponential(1.0), c1=4.0, c2=2.0),
    "c=(9,3)": RiskModel(lam=1.0, claim=Exponential(1.0), c1=9.0, c2=3.0),
}


@pytest.mark.parametrize("x1, x2", [(0.0, 0.5), (1.0, 3.0), (2.0, 2.5), (12.0, 14.0)])
@pytest.mark.parametrize("name", SEAM_MODELS)
def test_omega_on_regime_seam(name, x1, x2):
    model = SEAM_MODELS[name]
    dc = derive(model)
    assert dc.q_minus_end + dc.gamma2 == {"c=(4,2)": 0.0, "c=(9,3)": 2.0**-53}[name]
    value, err = omega(model, x1, x2, tol=1e-8)
    assert abs(value - mp_omega(model, x1, x2)) <= err <= 1e-8


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="quad's error estimate misses the pole -gamma2 just past the cut end next to the seam",
)
def test_omega_error_bound_next_to_regime_seam():
    # c1 = 3.999 is 1e-3 from the seam c1 = 4; omega is off by 4.8e-5 and reports 5.6e-9
    model = RiskModel(lam=1.0, claim=Exponential(1.0), c1=3.999, c2=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy's IntegrationWarning: roundoff
        value, err = omega(model, 0.3, 0.8, tol=1e-8)
    assert abs(value - mp_omega(model, 0.3, 0.8)) <= err
