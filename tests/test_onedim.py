import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ruin2d.errors import DomainError, UnsupportedClaimLaw
from ruin2d.mc import ruin_time_lt, simulate_joint_ruin
from ruin2d.model import Exponential, PhaseType, RiskModel, derive
from ruin2d.onedim import _phi, ruin_prob_exp, ruin_transform_exp, survival_one_company

from oracles import (
    DegenerateRoots,
    ScaleFunction,
    kappa,
    q_plus,
    resolvent_density,
    ruin_prob_phasetype,
    scale_w,
    survival_lt_check,
)



def test_ruin_prob_exp_p0(p0):
    assert ruin_prob_exp(p0, 0.0, company=2) == pytest.approx(0.5, abs=1e-14)
    assert ruin_prob_exp(p0, 1.0, company=2) == pytest.approx(0.5 * math.exp(-0.5), abs=1e-12)
    assert ruin_prob_exp(p0, 1.0, company=2) == pytest.approx(0.303265, abs=1e-6)


def test_ruin_prob_exp_decay(p0):
    xs = np.linspace(0, 50, 40)
    vals = [ruin_prob_exp(p0, x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-10


@given(x=st.floats(0.0, 40.0), h=st.floats(1e-6, 10.0))
@settings(max_examples=100, deadline=None)
def test_ruin_prob_exp_log_linear(x, h):
    m = RiskModel(lam=1.0, claim=Exponential(1.0), c1=3.0, c2=2.0)
    gamma2 = 0.5
    lhs = math.log(ruin_prob_exp(m, x + h)) - math.log(ruin_prob_exp(m, x))
    assert lhs == pytest.approx(-gamma2 * h, rel=1e-9, abs=1e-12)


# the discriminant overflows above about s = 1e154
@pytest.mark.parametrize("s", [0.0, 0.25, 2.0, 40.0, 1e3, 1e8, 1e15, 1e154, 1e200, 1.7e308])
def test_theta_minus_is_company_2s_negative_root(p1, s):
    # kappa_2(phi - mu) at 60 digits from the float phi: a float theta = phi - mu
    # would lose the digits of phi as s grows
    phi = _phi(p1, s)
    assert 0.0 < phi <= p1.lam / p1.p2  # theta in (-mu, -gamma2]
    with mp.workdps(60):
        theta = mp.mpf(phi) - derive(p1).mu
        got = p1.p2 * theta - p1.lam * theta / mp.mpf(phi)
    assert float(got) == pytest.approx(s, rel=1e-14, abs=1e-15)
    if s == 0.0:
        assert phi == pytest.approx(p1.lam / p1.p2, rel=1e-15, abs=0.0)  # -gamma2 = lam/p2 - mu


def mp_ruin_transform(model, x: float, s: float) -> float:
    """``(phi/mu) e^{(phi - mu) x}`` at 60 digits, from the quadratic formula's small root."""
    with mp.workdps(60):
        mu, lam, p2 = (mp.mpf(v) for v in (derive(model).mu, model.lam, model.p2))
        b = p2 * mu + lam + s
        phi = (b - mp.sqrt(b * b - 4 * p2 * lam * mu)) / (2 * p2)
        return float(phi / mu * mp.exp((phi - mu) * x))


TRANSFORM_S = [0.0, 1e-12, 1e-6, 0.01, 0.5, 3.0, 1e3, 1e6, 1e9, 1e12, 1e15]
TRANSFORM_X = [0.0, 0.3, 1.0, 3.0, 10.0]


@pytest.mark.parametrize("s", TRANSFORM_S)
@pytest.mark.parametrize("name", ["p0", "p1", "nd"])
def test_ruin_transform_matches_mpmath(request, name, s):
    # at large s the quadratic formula for theta, (-b - sqrt(b^2 + 4 p2 s mu)) / (2 p2)
    # with b = p2 mu - lam - s, cancels: 12% off at s = 1e8 on P0
    model = request.getfixturevalue(name)
    row = ruin_transform_exp(model, np.array(TRANSFORM_X), s)
    want = [mp_ruin_transform(model, x, s) for x in TRANSFORM_X]
    assert row.tolist() == pytest.approx(want, rel=4e-15, abs=0.0)
    # a scalar rounds as the same element of a row
    assert [ruin_transform_exp(model, x, s) for x in TRANSFORM_X] == row.tolist()


def test_ruin_transform_reduces_at_s0(p0):
    assert ruin_transform_exp(p0, 1.0, 0.0) == pytest.approx(
        ruin_prob_exp(p0, 1.0), abs=1e-14
    )
    assert ruin_transform_exp(p0, 0.0, 0.0) == pytest.approx(0.5, abs=1e-14)


def test_ruin_transform_monotone(p0):
    for x in (0.0, 0.5, 1.0, 2.0):
        vals = [ruin_transform_exp(p0, x, s) for s in (0.0, 0.25, 0.5, 1.0, 2.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    for s in (0.0, 0.5, 1.0):
        vals = [ruin_transform_exp(p0, x, s) for x in (0.0, 0.5, 1.0, 2.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_ruin_transform_pinned_by_mc(p0):
    # cone point (1,1): the joint ruin time is company 2's; horizon keeps the
    # truncation bias below the Monte Carlo resolution
    s, horizon = 0.5, 30.0
    est = ruin_time_lt(p0, 1.0, 1.0, s, horizon, 300_000, seed=101)
    target = ruin_transform_exp(p0, 1.0, s)
    assert target < ruin_prob_exp(p0, 1.0)  # strictly discounted
    assert abs(target - est.mean) <= 3.5 * est.std_error + math.exp(-s * horizon)


def test_phasetype_one_state_collapses_to_exponential(p0):
    claim = PhaseType(beta=[1.0], B=[[-1.0]])
    m = RiskModel(lam=1.0, claim=claim, c1=3.0, c2=2.0)
    for u2 in (0.0, 0.5, 1.0, 2.0):
        assert ruin_prob_phasetype(m, u2) == pytest.approx(
            ruin_prob_exp(p0, u2), abs=1e-12
        )


def test_phasetype_at_zero_is_loading_ratio(erlang2_model):
    # eta 1 = rho / p2
    assert ruin_prob_phasetype(erlang2_model, 0.0) == pytest.approx(
        erlang2_model.rho / erlang2_model.p2, abs=1e-12
    )


def test_phasetype_pinned_by_finite_horizon_mc(erlang2_model):
    # company 2 alone: park company 1 far away so only U2 can fail; horizon
    # chosen so the post-horizon (Lundberg-type) remainder is negligible
    u2, horizon, n = 1.0, 60.0, 200_000
    est = simulate_joint_ruin(erlang2_model, 1e9, u2, horizon, n, seed=77)
    target = ruin_prob_phasetype(erlang2_model, u2)
    # finite-horizon frequency undershoots the ultimate probability
    decay = 0.719  # slowest mode of B + b eta for this claim law
    tail = math.exp(-decay * (u2 + (erlang2_model.p2 - erlang2_model.rho) * horizon))
    assert est.mean <= target + 3.5 * est.std_error
    assert target - est.mean <= 3.5 * est.std_error + tail


def test_phasetype_vectorized_survival_matches_scalar(erlang2_model):
    zs = np.array([0.0, 0.3, 1.0, 2.5])
    vec = survival_one_company(erlang2_model, zs)
    for z, v in zip(zs, vec):
        assert v == pytest.approx(1.0 - ruin_prob_phasetype(erlang2_model, z), abs=1e-10)


@pytest.mark.parametrize("z", [0.7, [0.0, 0.3, 1.0, 2.5], [[0.5, 1.5], [3.0, 6.0]]])
def test_phasetype_expm_fallback_matches_eigen_path(erlang2_model, monkeypatch, z):
    eigen = survival_one_company(erlang2_model, z)
    # an ill-conditioned eigenbasis sends the solver to per-value matrix exponentials
    monkeypatch.setattr(np.linalg, "cond", lambda a: 1e20)
    fallback = survival_one_company(erlang2_model, z)
    assert fallback.shape == eigen.shape == np.shape(z)
    np.testing.assert_allclose(fallback, eigen, rtol=0, atol=1e-12)


def test_scale_function_at_zero(p0):
    assert scale_w(p0, 0.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert scale_w(p0, 0.7, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_scale_function_q0_closed_form(p0):
    # q=0: theta_plus=0, theta_minus=-gamma1; two-exponential value at x=1
    w = ScaleFunction.build(p0, 0.0)
    assert w.theta_plus == pytest.approx(0.0, abs=1e-14)
    assert w.theta_minus == pytest.approx(-2.0 / 3.0, abs=1e-14)
    expected = (1.0 - (1.0 / 3.0) * math.exp(-2.0 / 3.0)) / 2.0
    assert scale_w(p0, 0.0, 1.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.414431, abs=1e-6)


def test_scale_function_monotone_nonnegative(p0):
    for q in (0.0, 0.5, 1.0):
        w = ScaleFunction.build(p0, q)
        xs = np.linspace(0.0, 10.0, 200)
        vals = w(xs)
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) >= -1e-14)


def test_scale_laplace_identity_by_quadrature(p0):
    for q in (0.0, 0.5, 1.0):
        w = ScaleFunction.build(p0, q)
        for alpha in (1.0, 2.0, 5.0):
            assert alpha > q_plus(p0, q)
            val, err = quad(lambda x: math.exp(-alpha * x) * w(x), 0, 200, limit=300)
            assert val == pytest.approx(1.0 / (kappa(p0, 1, alpha) - q), abs=1e-6)


def test_degenerate_scale_roots_rejected(p0):
    # branch point of kappa_1: discriminant (p mu - lam - q)^2 + 4 p q mu = 0
    p, mu, lam = 3.0, 1.0, 1.0
    qs = np.roots([1.0, -2.0 * (p * mu + lam) + 4 * p * mu, (p * mu - lam) ** 2])
    q_branch = float(min(qs))
    with pytest.raises((DegenerateRoots, Exception)):
        ScaleFunction.build(p0, q_branch)


def test_resolvent_density_first_term_only(p0):
    q = 0.5
    w = ScaleFunction.build(p0, q)
    for z in (0.5, 1.0, 3.0):
        val = resolvent_density(p0, q, 0.0, z)
        assert val == pytest.approx(math.exp(-w.theta_plus * z) / 3.0, abs=1e-14)


def test_resolvent_density_nonnegative_and_submass(p0):
    q = 0.5
    for x1 in (0.0, 0.5, 1.0, 2.0):
        zs = np.linspace(0.0, 40.0, 400)
        vals = [resolvent_density(p0, q, x1, z) for z in zs]
        assert min(vals) >= -1e-12
        mass, _ = quad(lambda z: resolvent_density(p0, q, x1, z), 0, 200,
                       points=[x1], limit=400)
        assert q * mass <= 1.0 + 1e-9


def test_survival_lt_value_p0(p0):
    assert survival_lt_check(p0, 1.0, company=2) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_survival_lt_matches_quadrature(p0):
    for theta in (0.5, 1.0, 2.0):
        val, err = quad(
            lambda x: math.exp(-theta * x) * (1.0 - ruin_prob_exp(p0, x, company=2)),
            0,
            300,
            limit=400,
        )
        assert survival_lt_check(p0, theta, company=2) == pytest.approx(val, abs=1e-8)


def test_survival_lt_company_ordering(p0):
    # company 1 is the safer one (C1 < C2, gamma1 > gamma2), so its survival
    # dominates pointwise and so does its transform; confirmed by quadrature
    for theta in (0.5, 1.0, 2.0):
        assert survival_lt_check(p0, theta, 1) > survival_lt_check(p0, theta, 2)
        direct = quad(
            lambda x: math.exp(-theta * x)
            * (ruin_prob_exp(p0, x, 2) - ruin_prob_exp(p0, x, 1)),
            0,
            300,
            limit=400,
        )[0]
        assert direct > 0
        # kappa_2(theta) = kappa_1(theta) + (p2 - p1) theta
        assert kappa(p0, 1, theta) - kappa(p0, 2, theta) == pytest.approx(
            (p0.p1 - p0.p2) * theta, rel=1e-12
        )


@pytest.mark.parametrize("call", [
    lambda m: ruin_prob_exp(m, math.nan),
    lambda m: ruin_transform_exp(m, math.nan, 0.5),
    lambda m: ruin_transform_exp(m, np.array([1.0, -1.0]), 0.5),
    lambda m: ruin_transform_exp(m, 1.0, math.nan),
    lambda m: ruin_transform_exp(m, 1.0, math.inf),
], ids=["prob-x=nan", "transform-x=nan", "transform-row-negative", "transform-s=nan", "transform-s=inf"])
def test_out_of_domain_arguments_refused(p0, call):
    with pytest.raises(DomainError):
        call(p0)


@pytest.mark.parametrize("z", [-1.0, [1.0, math.nan]], ids=["negative", "nan"])
def test_survival_one_company_refuses_bad_reserves(p0, erlang2_model, z):
    for model in (p0, erlang2_model):
        with pytest.raises(DomainError):
            survival_one_company(model, z)


def test_domain_errors(p0, erlang2_model):
    with pytest.raises(DomainError):
        ruin_prob_exp(p0, -1.0)
    with pytest.raises(UnsupportedClaimLaw):
        ruin_prob_exp(erlang2_model, 1.0)
    with pytest.raises(UnsupportedClaimLaw):
        ruin_prob_phasetype(p0, 1.0)
    with pytest.raises(DomainError):
        resolvent_density(p0, 0.0, 1.0, 1.0)
