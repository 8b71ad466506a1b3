import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruin2d import transform
from ruin2d.closedform import survival
from ruin2d.errors import ConvergenceWarning, DomainError
from ruin2d.model import Exponential, RiskModel, derive
from ruin2d.transform import _bromwich, ab, invert_2d, psi_tilde, z_roots

from oracles import CutError, PoleError, g, kappa, q_plus

# near-degenerate model: p1 -> p2 -> rho
ND = RiskModel(lam=1.0, claim=Exponential(1.0), c1=1.002, c2=1.001)


@dataclass(frozen=True)
class LaplaceExponent:
    """Abstract Laplace exponent with its derivative at the origin.

    The general transform path accepts any spectrally negative exponent, but
    only the compound-Poisson-exponential case is tested; treat other inputs
    as experimental.
    """

    kappa: Callable[[complex], complex]
    derivative_origin: float
    params: dict | None = None

    @classmethod
    def compound_poisson_exponential(cls, model: RiskModel, i: int = 1) -> "LaplaceExponent":
        mu = model.claim.mu
        p = model.p1 if i == 1 else model.p2
        return cls(
            kappa=lambda theta: p * theta - model.lam * theta / (mu + theta),
            derivative_origin=p - model.rho,
            params={"p": p, "lam": model.lam, "mu": mu},
        )


def psi_tilde_general(
    exponent1: LaplaceExponent,
    p1: float,
    p2: float,
    p: float,
    q: float,
    q_plus_fn: Callable[[float], float],
    form: str = "simplified",
):
    """General-exponent double transform on real ``p, q > 0`` (experimental).

    ``form="simplified"`` evaluates
    ``kappa_2'(0+) / (p (kappa_1(p+q) - q(p1-p2))) * [1 + p/(q - q_plus(q(p1-p2)))]``
    with ``kappa_2'(0+) = kappa_1'(0+) + (p2 - p1)``; ``form="first"`` keeps the
    unsimplified arrangement of the same quantity for cross-checking.
    """
    s = p + q
    r = (p1 - p2) * q
    k1s = exponent1.kappa(s)
    qp = q_plus_fn(r)
    k2_prime0 = exponent1.derivative_origin + (p2 - p1)
    if form == "simplified":
        return k2_prime0 / (p * (k1s - r)) * (1.0 + p / (q - qp))
    if form == "first":
        num = k2_prime0 * (r + (p1 - p2) * (p - qp))
        den = p * (r + (p2 - p1) * qp) * (k1s - r)
        return num / den
    raise ValueError("form must be 'simplified' or 'first'")


def euler_weights(m):
    w = np.array([math.comb(m, k) for k in range(m + 1)], dtype=float)
    return w / 2.0 ** m


def reference_invert_real(fhat, t, m, a):
    """Euler summation of the partial sums ``s_m .. s_2m`` of a real target.

    The alternating series of the Bromwich integral at abscissa ``a/(2t)``,
    halved by conjugate symmetry, averaged with binomial weights.
    """
    base = a / (2.0 * t)
    step = math.pi / t
    k = np.arange(2 * m + 1)
    values = fhat(base + 1j * k * step)
    seq = np.real(values) * (-1.0) ** k
    seq[0] *= 0.5
    partial = np.cumsum(seq)
    est = float(np.dot(euler_weights(m), partial[m:]))
    return math.exp(a / 2.0) / t * est


def reference_invert_complex(fhat, t, m, a):
    """Euler summation of the symmetric partial sums of a complex target, one by one."""
    base = a / (2.0 * t)
    step = math.pi / t
    k = np.arange(-2 * m, 2 * m + 1)
    values = fhat(base + 1j * k * step)
    signed = values * (-1.0) ** np.abs(k)
    center = 2 * m
    partial = np.empty(2 * m + 1, dtype=complex)
    partial[0] = signed[center]
    acc = partial[0]
    for n in range(1, 2 * m + 1):
        acc += signed[center - n] + signed[center + n]
        partial[n] = acc
    est = complex(np.dot(euler_weights(m), partial[m:]))
    return cmath.exp(a / 2.0) / (2.0 * t) * est


def reference_invert_2d_once(model, dc, x1, x2, m, a_inner, a_outer):
    """One inner inversion per outer abscissa ``q``, each on its own ``p`` vector."""
    def inner(q_vec):
        out = np.empty(len(q_vec), dtype=complex)
        for idx, qv in enumerate(q_vec):
            out[idx] = reference_invert_complex(
                lambda p_vec: psi_tilde(model, p_vec, qv, dc), x1, m, a_inner
            )
        return out

    return reference_invert_real(inner, x2, m, a_outer)


def test_kappa_values(p0):
    assert kappa(p0, 1, 0.0) == 0.0
    assert kappa(p0, 2, 0.0) == 0.0
    assert kappa(p0, 1, 1.0) == pytest.approx(2.5, abs=1e-14)
    assert kappa(p0, 2, -0.5) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DomainError):
        kappa(p0, 1, -1.0)
    with pytest.raises(DomainError):
        kappa(p0, 1, -1.5)


def test_z_roots_at_zero(p0):
    r = z_roots(p0, 0.0)
    assert r.z1 == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert r.z2 == pytest.approx(0.0, abs=1e-12)


def test_z_roots_at_minus_gamma2(p0, p1):
    dc0 = derive(p0)
    r = z_roots(p0, -dc0.gamma2)
    # (mu/p2)(p2^2/p1 - rho)^-/+ = (1/2)(1/3)^-/+ under P0
    assert r.z1 == pytest.approx(0.0, abs=1e-12)
    assert r.z2 == pytest.approx(1.0 / 6.0, abs=1e-12)
    dc1 = derive(p1)
    r1 = z_roots(p1, -dc1.gamma2)
    assert r1.z1 == pytest.approx(-dc1.gamma3, abs=1e-12)
    assert r1.z2 == pytest.approx(0.0, abs=1e-12)


def test_z_roots_defining_identity(p0):
    r = z_roots(p0, -0.4)
    assert r.z1 == pytest.approx(-0.163299, abs=1e-6)
    assert r.z2 == pytest.approx(+0.163299, abs=1e-6)
    assert kappa(p0, 1, r.z2 + (-0.4)) == pytest.approx(-0.4 * (p0.p1 - p0.p2), abs=1e-6)


@pytest.mark.parametrize("model_name", ["p0", "p1"])
def test_root_identity_fifty_points(model_name, request):
    m = request.getfixturevalue(model_name)
    dc = derive(m)
    qs = np.linspace(dc.q_minus_end + 0.05, 5.0, 50)
    for q in qs:
        pair = z_roots(m, float(q))
        for z in (pair.z1, pair.z2):
            theta = z + q
            val = m.p1 * theta - m.lam * theta / (dc.mu + theta)
            assert abs(val - q * (m.p1 - m.p2)) < 1e-10 * max(1.0, abs(q))


@given(qr=st.floats(-20.0, 20.0), qi=st.floats(-20.0, 20.0))
@settings(max_examples=100, deadline=None)
def test_vieta_sum_matches_extended_a(qr, qi):
    from ruin2d.model import Exponential, RiskModel

    m = RiskModel(lam=1.0, claim=Exponential(1.0), c1=3.0, c2=2.0)
    dc = derive(m)
    q = complex(qr, qi)
    pair = z_roots(m, q)
    a_ext = -(dc.p1 * dc.mu - m.lam + (dc.p1 + dc.p2) * q) / (2 * dc.p1)
    total = pair.z1 + pair.z2
    assert abs(total - 2 * a_ext) < 1e-12 * max(1.0, abs(total))


def test_q_plus_values(p0):
    assert q_plus(p0, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert q_plus(p0, 1.0) == pytest.approx((-1.0 + math.sqrt(13.0)) / 6.0, abs=1e-12)
    assert q_plus(p0, 1.0) == pytest.approx(0.434259, abs=1e-6)
    with pytest.raises(DomainError, match="has no real root"):
        q_plus(p0, -1.0)  # inside the forbidden band


def test_q_plus_identification(p0):
    dc = derive(p0)
    val = q_plus(p0, -0.4 * (p0.p1 - p0.p2)) - (-0.4)
    assert val == pytest.approx(z_roots(p0, -0.4).z2, abs=1e-10)
    # p1 - p2 = 1 under P0, so q_plus(-0.4) is itself z2(-0.4) - 0.4
    assert q_plus(p0, -0.4) == pytest.approx(-0.236701, abs=1e-6)
    assert kappa(p0, 1, q_plus(p0, -0.4)) == pytest.approx(-0.4, abs=1e-8)
    for q in np.linspace(dc.q_minus_end + 0.02, 4.0, 25):
        lhs = q_plus(p0, (p0.p1 - p0.p2) * float(q))
        rhs = z_roots(p0, float(q)).z2 + q
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_g_value_and_poles(p0):
    assert g(p0, -0.4) == pytest.approx(-5.458763, abs=1e-4)
    # sharper pin computed from the root itself
    z1 = z_roots(p0, -0.4).z1
    expected = (p0.p2 - p0.rho) * (1.0 + z1 - 0.4) / (-0.4 * (2.0 - 1.0 + 2.0 * -0.4))
    assert g(p0, -0.4) == pytest.approx(expected, rel=1e-12, abs=0)
    with pytest.raises(PoleError):
        g(p0, 0.0)
    with pytest.raises(PoleError):
        g(p0, -0.5)
    with pytest.raises(CutError):
        g(p0, -1.0)
    with pytest.raises(CutError):
        g(p0, -0.5358983848622453 + 1e-12)


def test_qg_bounded_at_infinity(p0):
    vals = [abs(q * g(p0, q)) for q in (1e2, 1e3, 1e4, -1e2, -1e3, -1e4)]
    assert max(vals) < 10.0
    # the ratio stabilizes along the negative axis, where the limit is
    # (p2 - rho)(p1 - p2)/(p1 p2); on the positive axis q g(q) decays to 0
    limit = (p0.p2 - p0.rho) * (p0.p1 - p0.p2) / (p0.p1 * p0.p2)
    assert -1e4 * g(p0, -1e4) == pytest.approx(limit, rel=1e-3)
    assert abs(1e4 * g(p0, 1e4)) < abs(1e3 * g(p0, 1e3))


@pytest.mark.parametrize("model_name", ["p0", "p1"])
def test_g_residue_limits(model_name, request):
    """Richardson limits of q g(q) at 0 and (q+gamma2) g(q) at -gamma2."""
    m = request.getfixturevalue(model_name)
    dc = derive(m)

    def richardson(f, center, eps=1e-5):
        f1, f2 = f(center + eps), f(center + eps / 2.0)
        return 2.0 * f2 - f1

    lim0 = richardson(lambda q: q * g(m, q), 0.0)
    assert lim0 == pytest.approx(dc.C1, abs=1e-6)
    c2_tilde = dc.C2 + z_roots(m, -dc.gamma2).z1 / dc.mu
    limg2 = richardson(lambda q: (q + dc.gamma2) * g(m, q), -dc.gamma2)
    assert limg2 == pytest.approx(-c2_tilde, abs=1e-6)
    if dc.regime == "case2":
        assert c2_tilde == pytest.approx(dc.p2 / dc.p1, abs=1e-12)
    else:
        assert c2_tilde == pytest.approx(dc.C2, abs=1e-12)


def test_ab_values(p0):
    dc = derive(p0)
    assert ab(p0, dc.q_plus_end).b == pytest.approx(0.0, abs=1e-10)
    assert ab(p0, dc.q_minus_end).b == pytest.approx(0.0, abs=1e-10)
    pt = ab(p0, -1.0)
    assert pt.a == pytest.approx(0.5, abs=1e-14)
    assert pt.b == pytest.approx(math.sqrt(3.0) / 6.0, abs=1e-14)
    assert pt.f == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(DomainError):
        ab(p0, 0.5)


def test_branch_limits_onto_cut(p0):
    """z1(q +- i eps) -> a(q) -/+ i b(q) with O(eps) error."""
    pt = ab(p0, -1.0)
    errs = {}
    for eps in (1e-4, 1e-6):
        above = z_roots(p0, complex(-1.0, eps)).z1
        below = z_roots(p0, complex(-1.0, -eps)).z1
        errs[eps] = max(
            abs(above - complex(pt.a, -pt.b)), abs(below - complex(pt.a, pt.b))
        )
    slope = errs[1e-4] / 1e-4
    assert errs[1e-6] <= 1.1 * slope * 1e-6 + 1e-13
    assert errs[1e-4] <= 100 * 1e-4


def test_radicand_roots_are_cut_endpoints(p0):
    dc = derive(p0)
    p1v, p2v, mu, lam = dc.p1, dc.p2, dc.mu, p0.lam
    # radicand(q) as a quadratic in q
    a2 = 4.0 * p1v * p2v - (p1v + p2v) ** 2
    a1 = 4.0 * p1v * (p2v * mu - lam) - 2.0 * (p1v + p2v) * (p1v * mu - lam)
    a0 = -((p1v * mu - lam) ** 2)
    roots = sorted(np.roots([a2, a1, a0]))
    assert roots[0] == pytest.approx(dc.q_plus_end, abs=1e-10)
    assert roots[1] == pytest.approx(dc.q_minus_end, abs=1e-10)


def test_psi_tilde_p0(p0):
    assert psi_tilde(p0, 1.0, 1.0) == pytest.approx(0.638675, abs=1e-6)
    # direct re-evaluation through the root identities
    pair = z_roots(p0, 1.0)
    expected = (1.0 + 2.0) * (p0.p2 - p0.rho) / (1.0 * p0.p1 * (pair.z1 - 1.0) * pair.z2)
    assert psi_tilde(p0, 1.0, 1.0) == pytest.approx(expected, rel=1e-13, abs=0)


@pytest.mark.parametrize("model_name", ["p0", "p1"])
def test_psi_tilde_positivity_bound(model_name, request):
    m = request.getfixturevalue(model_name)
    rng = np.random.default_rng(5)
    for _ in range(50):
        p, q = rng.uniform(0.05, 6.0, size=2)
        val = psi_tilde(m, p, q)
        assert 0.0 < val < 1.0 / (p * q)


@pytest.mark.parametrize("model_name", ["p0", "p1"])
def test_general_transform_agrees_with_exponential_form(model_name, request):
    m = request.getfixturevalue(model_name)
    exponent = LaplaceExponent.compound_poisson_exponential(m, 1)
    rng = np.random.default_rng(11)
    for _ in range(20):
        p, q = rng.uniform(0.1, 5.0, size=2)
        special = psi_tilde(m, p, q)
        general = psi_tilde_general(
            exponent, m.p1, m.p2, p, q, q_plus_fn=lambda r: q_plus(m, r)
        )
        first = psi_tilde_general(
            exponent, m.p1, m.p2, p, q, q_plus_fn=lambda r: q_plus(m, r), form="first"
        )
        assert general == pytest.approx(special, abs=1e-10 * max(1.0, abs(special)))
        assert first == pytest.approx(general, rel=1e-10)


def test_euler_inversion_on_known_transform():
    # unit test of the Bromwich rule alone: L^-1[1/(p+1)^2] = x e^-x
    k = np.arange(-50, 51)
    for t in (0.5, 1.0, 3.0):
        p, w = _bromwich(t, 25, 18.4, k)
        got = float(np.real(w @ (1.0 / (p + 1.0) ** 2)))
        assert got == pytest.approx(t * math.exp(-t), abs=1e-7)


@pytest.mark.parametrize("m", [1, 2, 7, 25, 30])
def test_bromwich_weights_are_the_euler_average_of_partial_sums(m):
    # the weighted sum over k = -2m-3 .. 2m+3 (zero weight past 2m) reproduces
    # the Euler average of the partial sums s_m .. s_2m, on a transform that
    # tends to 1 rather than decaying, so that every weight shows
    k = np.arange(-2 * m - 3, 2 * m + 4)
    p, w = _bromwich(2.0, m, 18.4, k)
    assert np.all(w[np.abs(k) > 2 * m] == 0.0)
    assert np.all(np.abs(w[np.abs(k) <= m]) == math.exp(9.2) / 4.0)
    fhat = lambda s: s / (s + 0.5)
    got = float(np.real(w @ fhat(p)))
    want = reference_invert_real(fhat, 2.0, m, 18.4)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * math.exp(9.2))


def test_invert_2d_matches_closed_form(p0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = invert_2d(p0, 1.0, 2.0)
    assert got == pytest.approx(survival(p0, 1.0, 2.0).value, abs=1e-3)


def test_invert_2d_near_boundary(p0):
    got = invert_2d(p0, 1.0, 1.0001)
    target = 1.0 - 0.5 * math.exp(-0.5)
    assert target == pytest.approx(0.696735, abs=1e-6)
    assert got == pytest.approx(target, abs=2e-3)


def test_invert_2d_deep_safety(p0):
    assert invert_2d(p0, 10.0, 20.0) == pytest.approx(1.0, abs=1e-3)


def test_invert_2d_domain(p0):
    with pytest.raises(DomainError):
        invert_2d(p0, 2.0, 1.0)
    with pytest.raises(DomainError):
        invert_2d(p0, 0.0, 1.0)
    # p abscissas near 1e301 overflow psi_tilde: refused rather than nan
    with pytest.raises(DomainError, match="finite double"):
        invert_2d(p0, 1e-300, 1.0)
    # q abscissas near 1e-299 give z2(q) from Vieta's rule, with no cancellation;
    # survival(1, x2) tends to 1 - C1 e^{-gamma1} as x2 grows
    dc = derive(p0)
    assert invert_2d(p0, 1.0, 1e300) == pytest.approx(1.0 - dc.C1 * math.exp(-dc.gamma1), abs=1e-3)


@pytest.mark.parametrize("model_name", ["p0", "p1", "nd"])
def test_invert_2d_matches_scalar_reference(model_name, request):
    m = ND if model_name == "nd" else request.getfixturevalue(model_name)
    dc = derive(m)
    rng = np.random.default_rng(17)
    x1s = rng.uniform(0.1, 3.0, size=4)
    for x1, x2 in zip(x1s, x1s + rng.uniform(0.05, 4.0, size=4)):
        got = invert_2d(m, x1, x2)
        ref = reference_invert_2d_once(m, dc, x1, x2, 25, 30.0, 18.4)
        assert got == pytest.approx(ref, abs=1e-6)


@pytest.mark.parametrize("m", [25, 10, 2])
def test_invert_2d_evaluates_one_psi_tilde_grid(p0, monkeypatch, m):
    shapes = []

    def counted(model, p, q, dc=None):
        shapes.append(np.broadcast(p, q).shape)
        return psi_tilde(model, p, q, dc)

    monkeypatch.setattr(transform, "psi_tilde", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)  # m = 2 truncates
        invert_2d(p0, 1.0, 2.0, m=m)
    assert shapes == [(2 * m + 11, 4 * m + 21)]


@pytest.mark.parametrize("p, q", [(1e-300, 1e-300), (1e300, 1e300)])
def test_psi_tilde_refuses_a_value_that_is_not_a_finite_double(p0, p, q):
    with pytest.raises(DomainError, match="finite double"):
        psi_tilde(p0, p, q)
    with pytest.raises(DomainError, match="finite double"):
        psi_tilde(p0, np.array([1.0, p], dtype=complex), np.array([1.0, q], dtype=complex))


@pytest.mark.parametrize("model_name", ["p0", "p1", "nd"])
def test_psi_tilde_grid_matches_scalar_calls(model_name, request):
    m = ND if model_name == "nd" else request.getfixturevalue(model_name)
    dc = derive(m)
    q = 9.2 / 2.0 + 1j * np.arange(11) * 1.7
    p = 15.0 + 1j * np.arange(-10, 11) * 2.3
    grid = psi_tilde(m, p[None, :], q[:, None], dc)
    assert grid.shape == (q.size, p.size)
    # On ND the discriminant beta^2 - 4 p1 p2 q (q + gamma2) cancels by
    # |beta|^2 / |disc| (up to ~2e4 here), which would magnify any last-bit
    # difference between a grid's products and a scalar's; a scalar runs the
    # same array loops, so none shows.
    beta = dc.p2 * q + dc.p1 * (q + dc.gamma1)
    disc = beta * beta - 4.0 * dc.p1 * q * dc.p2 * (q + dc.gamma2)
    cancel = np.abs(beta) ** 2 / np.abs(disc) if m is ND else np.ones(q.size)
    for i, qv in enumerate(q):
        for j, pv in enumerate(p):
            scalar = psi_tilde(m, complex(pv), complex(qv), dc)
            assert abs(grid[i, j] - scalar) <= 1e-15 * cancel[i] * abs(scalar)


@pytest.mark.parametrize(
    "z",
    [4.0, -4.0, 0.0, complex(-4.0, 0.0), complex(-4.0, -0.0), complex(-0.0, -0.0),
     np.complex128(complex(-2.5, -0.0)), complex(3.0, -1e-300), complex(-1e-12, 7.0)],
)
def test_z_roots_scalar_is_the_grid_element(p0, z):
    # a scalar runs as a 1-element array: it rounds as the same q in a longer
    # array does, signs of zero included, and comes back a numpy scalar
    qs = np.concatenate([[z], np.linspace(1.0, 9.0, 20)]).astype(np.asarray(z).dtype)
    grid = z_roots(p0, qs)
    pair = z_roots(p0, z)
    for got, want in ((pair.z1, grid.z1[0]), (pair.z2, grid.z2[0])):
        assert np.ndim(got) == 0 and type(got) is type(want)
        for part in ("real", "imag"):
            g, w = getattr(complex(got), part), getattr(complex(want), part)
            assert (g, math.copysign(1.0, g)) == (w, math.copysign(1.0, w))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_z_roots_on_the_cut_follow_the_sign_of_a_zero_imaginary_part(p0, sign):
    # z1(-1 +- i0) is a -+ i b, the limit of z1(-1 +- i eps)
    pt = ab(p0, -1.0)
    z1 = z_roots(p0, complex(-1.0, sign * 0.0)).z1
    assert abs(z1 - complex(pt.a, -sign * pt.b)) <= 1e-14


def mp_z_roots(model, q):
    """``(z1, z2)`` from the quadratic formula at 400 digits, enough down to q = 1e-300."""
    dc = derive(model)
    q, p1, p2 = mp.mpf(q), mp.mpf(dc.p1), mp.mpf(dc.p2)
    beta = p2 * q + p1 * (q + mp.mpf(dc.gamma1))
    root = mp.sqrt(beta ** 2 - 4 * p1 * p2 * q * (q + mp.mpf(dc.gamma2)))
    return (-beta - root) / (2 * p1), (-beta + root) / (2 * p1)


@pytest.mark.parametrize("p, q", [(3.0, 1e-14), (1.0, 1e-10), (1.0, 1e-300), (2.0, 1e-5)])
def test_psi_tilde_near_q_zero_matches_mpmath(p0, p, q):
    # z2(q) -> 0 as q -> 0; the quadratic formula's plus branch cancels there
    # (0.66% off at (3, 1e-14)), Vieta's rule does not
    dc = derive(p0)
    with mp.workdps(400):
        z1, z2 = mp_z_roots(p0, q)
        pm = mp.mpf(p)
        want = (dc.mu + pm + q) * (dc.p2 - dc.rho) / (pm * dc.p1 * (z1 - pm) * z2)
    assert psi_tilde(p0, p, q) == pytest.approx(float(want), rel=1e-13, abs=0)


@pytest.mark.parametrize("model_name", ["p0", "p1", "nd"])
def test_z_roots_near_q_zero_match_mpmath(model_name, request):
    m = ND if model_name == "nd" else request.getfixturevalue(model_name)
    for q in (1e-3, 1e-8, 1e-14, 1e-200):
        with mp.workdps(400):
            want = [float(z) for z in mp_z_roots(m, q)]
        pair = z_roots(m, q)
        assert [float(pair.z1), float(pair.z2)] == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("kwargs", [{"m": 2}, {"a_inner": 80.0}])
def test_invert_2d_warns_when_terms_disagree(p0, kwargs, monkeypatch):
    # m = 2 truncates the Euler sums; an inner abscissa of 80 scales rounding by e^40
    monkeypatch.setattr(transform, "_A_INNER", kwargs.get("a_inner", transform._A_INNER))
    with pytest.warns(ConvergenceWarning, match="double inversion at"):
        invert_2d(p0, 1.0, 2.0, m=kwargs.get("m", 25))
