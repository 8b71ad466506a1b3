"""Reference implementations that only the tests call.

Each oracle checks a shipped result from another side: the fluid embedding
of a sampled path, the company-1 scale function and killed resolvent, the
Laplace exponents and the residual factor ``g`` of the transform, the residue
terms of the closed form and its cut integral to 30 digits (``mp_omega``), and
the model's JSON and coordinate round trips.
The oracles call the shipped kernels they check (``mc.stream``,
``mc.sample_claims``, ``transform.z_roots``, ...) rather than copies of them,
so a test through an oracle still tests the code that users run.  Company 1's
roots of ``kappa_1(theta) = q``, which no shipped code needs, are computed
here.  The exceptions are the stream-6 MC chunk kernels, written path by
path from the stream's definition (``reference_epoch_panel`` and the
sweeps after it): the shipped kernels must reproduce them bit for bit.
``killed_position_frequencies`` runs on the company-1 reference sweep with
per-path horizons, as the discounted chunk's company-2 window does.
``ruin_prob_phasetype`` also forms ``eta`` and ``B + b eta`` itself, with
``b = -B 1``, and takes a matrix exponential where the shipped formula
diagonalizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ruin2d import mc, transform
from ruin2d.errors import DomainError, Ruin2dError, UnsupportedClaimLaw
from ruin2d.model import DerivedConstants, Exponential, PhaseType, RiskModel, derive


class PoleError(DomainError):
    """Evaluation requested at a pole."""


class CutError(DomainError):
    """Evaluation requested on (or too close to) the branch cut."""


class DegenerateRoots(Ruin2dError):
    """Double root at a branch point; the two-exponential form is invalid."""


# ---------------------------------------------------------------------------
# Model: coordinates and the JSON representation.
# ---------------------------------------------------------------------------

def denormalize(model: RiskModel, x1: float, x2: float) -> tuple[float, float]:
    """Inverse of :func:`ruin2d.model.normalize`."""
    return x1 * model.delta1, x2 * model.delta2


def model_to_dict(model: RiskModel) -> dict:
    """The JSON form that :func:`ruin2d.model.model_from_dict` reads back."""
    if isinstance(model.claim, Exponential):
        claim: dict = {"type": "exponential", "mu": model.claim.mu}
    else:
        claim = {
            "type": "phase-type",
            "beta": model.claim.beta.tolist(),
            "B": model.claim.B.tolist(),
        }
    return {
        "lambda": model.lam,
        "claim": claim,
        "c": [model.c1, model.c2],
        "delta": [model.delta1, model.delta2],
    }


# ---------------------------------------------------------------------------
# Transform layer: Laplace exponents and the residual factor g.
# ---------------------------------------------------------------------------

_CUT_MARGIN = 1e-9


def _p(model: RiskModel, i: int) -> float:
    if i == 1:
        return model.p1
    if i == 2:
        return model.p2
    raise DomainError("company index must be 1 or 2")


def kappa1_roots(model: RiskModel, q: float) -> tuple[float, float]:
    """Real roots ``theta_minus <= theta_plus`` of ``kappa_1(theta) = q``.

    Clearing ``mu + theta`` turns the equation into
    ``p1 theta^2 + (p1 mu - lam - q) theta - q mu = 0``.
    Raises :class:`DomainError` when the discriminant is negative.
    """
    mu, p1 = derive(model).mu, model.p1
    b = p1 * mu - model.lam - q
    disc = b * b + 4.0 * p1 * q * mu
    if disc < 0.0:
        raise DomainError(f"kappa_1(theta) = {q} has no real root")
    root = math.sqrt(disc)
    return (-b - root) / (2.0 * p1), (-b + root) / (2.0 * p1)


def kappa(model: RiskModel, i: int, theta):
    """Laplace exponent ``kappa_i(theta) = p_i theta - lam theta/(mu+theta)``.

    Real arguments must satisfy ``theta > -mu``; complex arguments are
    evaluated by analytic continuation away from the pole.
    """
    mu = derive(model).mu
    p = _p(model, i)
    if isinstance(theta, complex) or np.iscomplexobj(theta):
        if theta == -mu:
            raise DomainError("kappa has a pole at theta = -mu")
        return p * theta - model.lam * theta / (mu + theta)
    theta = float(theta)
    if theta <= -mu:
        raise DomainError(f"kappa_{i} requires theta > -mu = {-mu}")
    return p * theta - model.lam * theta / (mu + theta)


def kappa_derivative_origin(model: RiskModel, i: int) -> float:
    """``kappa_i'(0+) = p_i - rho``."""
    return _p(model, i) - model.rho


def q_plus(model: RiskModel, r: float) -> float:
    """Largest real root of ``kappa_1(alpha) = r``.

    Satisfies the identification ``q_plus((p1 - p2) q) = z2(q) + q`` for real
    ``q`` to the right of the cut.
    """
    _, theta_plus = kappa1_roots(model, r)
    return theta_plus


def g(model: RiskModel, q, dc: DerivedConstants | None = None):
    """Residual factor of the partially inverted transform.

    ``g(q) = (p2 - rho)(mu + z1(q) + q) / (q (mu p2 - lam + p2 q))`` with
    simple poles at ``0`` and ``-gamma2``; rejected on (and within
    ``_CUT_MARGIN`` of) the cut, where :func:`ruin2d.transform.ab` applies
    instead.
    """
    dc = dc or derive(model)
    mu = dc.mu
    qc = complex(q)
    if abs(qc) < 1e-14 or abs(qc + dc.gamma2) < 1e-14:
        raise PoleError("g has simple poles at q = 0 and q = -gamma2")
    if abs(qc.imag) <= _CUT_MARGIN and (
        dc.q_plus_end - _CUT_MARGIN <= qc.real <= dc.q_minus_end + _CUT_MARGIN
    ):
        raise CutError("g is not defined on the cut; use ab(q) there")
    z1 = transform.z_roots(model, q, dc).z1
    val = (dc.p2 - dc.rho) * (mu + z1 + qc) / (qc * (mu * dc.p2 - model.lam + dc.p2 * qc))
    if not (isinstance(q, complex) or np.iscomplexobj(q)):
        return val.real if abs(val.imag) < 1e-13 * max(1.0, abs(val.real)) else val
    return val


# ---------------------------------------------------------------------------
# Closed form: the exponential residue terms.
# ---------------------------------------------------------------------------

def residue_terms(model: RiskModel, x1: float, x2: float) -> dict[str, float]:
    """Exponential terms of the assembled survival probability.

    Keys: ``constant`` (1), ``company1`` (pole at zero), ``company2`` (the
    one-dimensional transform part) and ``cross`` (pole at ``-gamma2``, with
    coefficient ``C2 + z1(-gamma2)/mu``).  In case 1 ``cross`` cancels
    ``company2`` exactly; in case 2 it equals ``(p2/p1) e^{-gamma3 x1 - gamma2 x2}``.
    """
    dc = derive(model)
    # z1(-gamma2): zero in case 1, -gamma3 in case 2
    z1g2 = (dc.mu / dc.p2) * min(dc.p2 ** 2 / dc.p1 - dc.rho, 0.0)
    c2t = dc.C2 + z1g2 / dc.mu
    return {
        "constant": 1.0,
        "company1": -dc.C1 * math.exp(-dc.gamma1 * x1),
        "company2": -dc.C2 * math.exp(-dc.gamma2 * x2),
        "cross": c2t * math.exp(z1g2 * x1 - dc.gamma2 * x2),
    }


def mp_omega(model, x1, x2, dps=30):
    """``omega`` from an mpmath integral in ``q = c + h cos(theta)`` over the cut.

    The substitution removes the square-root behaviour of ``b`` at the cut
    ends; the panels crowd towards ``theta = 0`` (``q_minus_end``), next to
    which a near-degenerate model puts the pole ``-gamma2``.  The cut ends,
    ``q_minus_end`` and ``q + gamma2`` come from closed forms free of
    cancellation, so the working precision holds at any margin ``e1``.
    """
    import mpmath as mp

    with mp.workdps(dps):
        lam, mu = mp.mpf(model.lam), mp.mpf(model.claim.mu)
        p1, p2 = mp.mpf(model.p1), mp.mpf(model.p2)
        x1, x2 = mp.mpf(x1), mp.mpf(x2)
        # the cut ends -(sqrt(lam) +- sqrt(p1 mu))^2 / (p1 - p2), the upper one
        # with its difference of square roots rationalized
        dp = p1 - p2
        lo = -((mp.sqrt(lam) + mp.sqrt(p1 * mu)) ** 2) / dp
        hi = -(((lam - p1 * mu) / (mp.sqrt(lam) + mp.sqrt(p1 * mu))) ** 2) / dp
        h = (hi - lo) / 2
        # q_minus_end + gamma2, which is zero on the regime seam rho = p2^2/p1
        seam = (p2 * p2 * mu - lam * p1) / (p2 * mp.sqrt(mu) + mp.sqrt(lam * p1))
        end_gap = -(seam**2) / (dp * p2)

        def integrand(theta):
            # q = c + h cos(theta), c the mid-cut, is hi - d: d is the distance from the cut end
            d = 2 * h * mp.sin(theta / 2) ** 2
            q = hi - d
            a = -(p1 * mu - lam + (p1 + p2) * q) / (2 * p1)
            # b = (p1 - p2)/(2 p1) sqrt((q - lo)(hi - q)), and (q - lo)(hi - q) = (h sin(theta))^2
            b = dp / (2 * p1) * h * mp.sin(theta)
            osc = (mu + q + a) * mp.sin(b * x1) + b * mp.cos(b * x1)
            return mp.exp(x1 * a + x2 * q) * osc / (q * p2 * (end_gap - d)) * h * mp.sin(theta)

        edges = [0] + [mp.mpf(10) ** -k for k in range(8, 0, -1)] + [mp.pi]
        return float(-(p2 - lam / mu) / mp.pi * mp.quad(integrand, edges))


# ---------------------------------------------------------------------------
# One company: phase-type ruin, the scale function and the killed resolvent.
# ---------------------------------------------------------------------------

def ruin_prob_phasetype(model: RiskModel, u2: float) -> float:
    """Ruin probability ``eta exp((B + b eta) u2 / delta2) 1`` for company 2.

    ``b = -B 1`` is the exit-rate vector, which makes the one-state case
    collapse exactly onto the exponential formula.
    """
    if u2 < 0:
        raise DomainError("reserve must be nonnegative")
    claim = model.claim
    if not isinstance(claim, PhaseType):
        raise UnsupportedClaimLaw("phase-type formula needs phase-type claims")
    # eta = (lam / p2) beta (-B)^{-1}: the defective law of the first ladder height's phase
    eta = (model.lam / model.p2) * claim.beta @ np.linalg.inv(-claim.B)
    gen = claim.B - np.outer(claim.B.sum(axis=1), eta)
    return float(eta @ scipy.linalg.expm(gen * (u2 / model.delta2)) @ np.ones(len(eta)))


@dataclass(frozen=True)
class ScaleFunction:
    """Two-exponential representation of the scale function of company 1.

    ``W_q(x) = [(mu + theta_plus) e^{theta_plus x} - (mu + theta_minus)
    e^{theta_minus x}] / (p1 (theta_plus - theta_minus))`` obtained by partial
    fractions of ``1 / (kappa_1 - q)``; ``W_q(0) = 1/p1``.
    """

    q: float
    theta_plus: float
    theta_minus: float
    coeff_plus: float
    coeff_minus: float

    @classmethod
    def build(cls, model: RiskModel, q: float) -> "ScaleFunction":
        if q < 0:
            raise DomainError("killing rate q must be nonnegative")
        mu = model.claim.mu
        theta_minus, theta_plus = kappa1_roots(model, q)
        spread = theta_plus - theta_minus
        if spread < 1e-13 * max(1.0, abs(theta_plus)):
            raise DegenerateRoots("q at the branch point: theta_plus == theta_minus")
        denom = model.p1 * spread
        return cls(
            q=q,
            theta_plus=theta_plus,
            theta_minus=theta_minus,
            coeff_plus=(mu + theta_plus) / denom,
            coeff_minus=(mu + theta_minus) / denom,
        )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self.coeff_plus * np.exp(self.theta_plus * x) - self.coeff_minus * np.exp(
            self.theta_minus * x
        )
        return float(out) if out.ndim == 0 else out


def scale_w(model: RiskModel, q: float, x: float) -> float:
    """Scale function ``W_q(x)`` of company 1 (exponential claims)."""
    if x < 0:
        raise DomainError("scale function argument must be nonnegative")
    return ScaleFunction.build(model, q)(x)


def resolvent_density(model: RiskModel, q: float, x1: float, z: float) -> float:
    """Density of the killed resolvent of company 1.

    ``exp(-q_plus(q) z) W_q(x1) - 1{x1 >= z} W_q(x1 - z)``: the expected
    q-discounted occupation density at ``z`` before first passage below zero,
    starting from ``x1``.
    """
    if q <= 0:
        raise DomainError("resolvent killing rate q must be positive")
    if x1 < 0 or z < 0:
        raise DomainError("resolvent arguments must be nonnegative")
    w = ScaleFunction.build(model, q)
    val = math.exp(-w.theta_plus * z) * w(x1)
    if x1 >= z:
        val -= w(x1 - z)
    return val


def survival_lt_check(model: RiskModel, theta: float, company: int = 2) -> float:
    """Laplace transform in the starting point of the survival probability.

    ``kappa_i'(0+) / kappa_i(theta)`` for ``theta > 0``, which backs the
    quadrature identity against ``1 - ruin_prob_exp``.
    """
    if theta <= 0:
        raise DomainError("transform argument theta must be positive")
    return kappa_derivative_origin(model, company) / kappa(model, company, theta)


# ---------------------------------------------------------------------------
# Monte Carlo: single paths, the fluid embedding and the killed sweep.
# ---------------------------------------------------------------------------

def reserves_at_epochs(model: RiskModel, u1: float, u2: float,
                       cum_up: np.ndarray, cum_claims: np.ndarray):
    """Post-jump reserves of both companies at the claim epochs.

    Shared by the single-path oracles and the fluid embedding, so that their
    ruin times agree bit for bit.
    """
    U1 = model.c1 * cum_up
    U1 += u1
    U1 -= model.delta1 * cum_claims
    U2 = model.c2 * cum_up
    U2 += u2
    U2 -= model.delta2 * cum_claims
    return U1, U2


def _reference_exponentials(rng: np.random.Generator, scale: float, size: int) -> np.ndarray:
    """Exponential variates of mean ``scale`` as stream 6 defines them: ``-scale log1p(-U)``."""
    return -scale * np.log1p(-rng.random(size))


def _reference_claims(claim, rng: np.random.Generator, size: int) -> np.ndarray:
    """Claim sizes as stream 6 draws them; phase-type laws through ``mc.sample_claims``."""
    if isinstance(claim, Exponential):
        return _reference_exponentials(rng, 1.0 / claim.mu, size)
    return mc.sample_claims(claim, rng, size)


def reference_epoch_panel(model: RiskModel, horizons, rng: np.random.Generator, n: int,
                          carried=None):
    """One block's per-path ``(t, s)`` and its per-path claim totals, as stream 6 defines them.

    The block's paths lie end to end on one Poisson process: one count
    ``K ~ Poisson(lam H n)``, ``K + 1`` spacings ``E`` and ``K`` claim sizes
    are drawn in that order.  With partial sums ``P_i = E_0 + ... + E_i``,
    epoch ``i < K`` lies at ``v_i = P_i (n / P_K)`` in units of ``H``, on path
    ``j = min(floor(v_i), n - 1)`` at time ``min((v_i - j) H, H)``.  Its
    running claim total ``s`` is the block's running total of sizes less its
    value where the path starts, less ``-carried[j]`` if given: the claims
    path ``j`` carries into the window.

    Per-path ``horizons`` (the discounted chunk's killed window) place the
    paths on ``[0, sum h)`` in time units instead: path ``j`` starts at
    ``h_0 + ... + h_{j-1}``.
    """
    h = np.broadcast_to(np.asarray(horizons, dtype=float), (n,))
    if np.ndim(horizons) == 0:
        mean, span, unit, starts = model.lam * horizons * n, n, horizons, np.arange(n, dtype=float)
    else:
        mean, span, unit, starts = model.lam * h.sum(), h.sum(), 1.0, np.cumsum(h) - h
    K = int(rng.poisson(mean))
    P = np.cumsum(_reference_exponentials(rng, 1.0, K + 1))
    C = np.concatenate([[0.0], np.cumsum(_reference_claims(model.claim, rng, K))])
    v = P[:K] * (span / P[K])
    owner = np.searchsorted(starts, v, side="right") - 1  # the last start at or before v
    ends = np.cumsum(np.bincount(owner, minlength=n))
    paths, totals, lo = [], np.empty(n), 0
    for j, hi in enumerate(ends):
        t = np.minimum((v[lo:hi] - starts[j]) * unit, h[j])
        base = C[lo] if carried is None else C[lo] - carried[j]
        paths.append((t, C[lo + 1:hi + 1] - base))
        totals[j] = C[hi] - base
        lo = hi
    return paths, totals


def _reference_sweep(model, p, x, horizon, rng, n, carried=None):
    """Per path, the first epoch in ``horizon`` where ``x + p t - s < 0`` (inf if none), and its total.

    ``horizon`` is scalar or per-path, and the paths run in ``mc._path_blocks``.
    """
    tau, totals = np.full(n, np.inf), np.empty(n)
    for block in mc._path_blocks(model, horizon, n):
        paths, totals[block] = reference_epoch_panel(
            model, horizon[block] if np.ndim(horizon) else horizon, rng,
            block.stop - block.start, None if carried is None else carried[block])
        for j, (t, s) in enumerate(paths):
            # the sign of x + p t - s, which IEEE subtraction keeps
            hit = p * t + x < s
            if hit.any():
                tau[block.start + j] = t[np.argmax(hit)]
    return tau, totals


def reference_joint_tau_chunk(model, u1, u2, horizon, rng, n):
    """First joint-ruin time within ``horizon`` per path (inf if none), per stream 6.

    In normalized coordinates the lower reserve is company 1's before the
    crossing time ``T* = (x2 - x1)/(p1 - p2)`` and company 2's from it on.
    A lower-cone start (``T* <= 0``) sweeps company 2 over ``[0, H)``.
    Otherwise company 1 is swept over ``[0, min(T*, H))``; if ``T* < H``,
    the paths alive at ``T*`` then draw, in path order and from the same
    stream, their claims over ``[T*, H)`` in blocks sized for ``H - T*``,
    each carrying its claim total at ``T*``, and company 2 is swept from
    its reserve ``x2 + p2 T*``.
    """
    x1, x2 = u1 / model.delta1, u2 / model.delta2
    p1, p2 = model.p1, model.p2
    cross = (x2 - x1) / (p1 - p2)
    if cross <= 0.0:
        return _reference_sweep(model, p2, x2, horizon, rng, n)[0]
    tau, totals = _reference_sweep(model, p1, x1, min(cross, horizon), rng, n)
    if cross < horizon:
        alive = np.flatnonzero(np.isinf(tau))
        later, _ = _reference_sweep(model, p2, x2 + p2 * cross, horizon - cross, rng,
                                    alive.size, totals[alive])
        tau[alive] = later + cross
    return tau


def reference_discounted_chunk(model, u1, u2, s, horizon, rng, n):
    """Per-path values of the discounted estimator at ``s > 0``, per stream 6.

    With ``T* = max((x2 - x1)/(p1 - p2), 0)``, company 1 is swept over
    ``[0, min(T*, H))`` as in :func:`reference_joint_tau_chunk`, and a ruin
    there at ``tau`` scores ``e^{-s tau}``.  If ``T* < H``, each path alive at
    ``T*`` then draws from the same stream, in path order, a killing clock
    ``zeta = -log1p(-U) / s``, and company 2 is swept from ``x2 + p2 T*`` over
    ``[T*, T* + min(zeta, H - T*))``, each path carrying its claim total at
    ``T*`` (none in the lower cone); a ruin there scores ``e^{-s T*}``.
    """
    x1, x2 = u1 / model.delta1, u2 / model.delta2
    p1, p2 = model.p1, model.p2
    cross = max((x2 - x1) / (p1 - p2), 0.0)
    scored = np.full(n, np.inf)  # the time at which each path's ruin is discounted
    if cross > 0.0:
        scored, totals = _reference_sweep(model, p1, x1, min(cross, horizon), rng, n)
    if cross < horizon:
        alive = np.flatnonzero(np.isinf(scored))
        kill = _reference_exponentials(rng, 1.0 / s, alive.size)
        later, _ = _reference_sweep(model, p2, x2 + p2 * cross, np.minimum(kill, horizon - cross),
                                    rng, alive.size, totals[alive] if cross > 0.0 else None)
        scored[alive[np.isfinite(later)]] = cross
    return np.exp(-s * scored)


def reference_company1_chunk(model, x1, horizons, rng, n):
    """Normalized company-1 sweep ``(alive flags, terminal values X1(T))``, per stream 6.

    ``horizons`` is scalar or per-path, blocked as the discounted chunk's killed window.
    """
    tau, totals = _reference_sweep(model, model.p1, x1, horizons, rng, n)
    return np.isinf(tau), x1 + model.p1 * np.broadcast_to(horizons, (n,)) - totals


@dataclass(frozen=True)
class PathRecord:
    """A realized compound-Poisson path on ``[0, horizon]``."""

    interarrivals: np.ndarray
    claim_sizes: np.ndarray
    horizon: float

    @property
    def epochs(self) -> np.ndarray:
        return np.cumsum(self.interarrivals)


def sample_path(model: RiskModel, horizon: float, rng: np.random.Generator) -> PathRecord:
    """Sample one claims path on ``[0, horizon]`` (sequential draws)."""
    inter = []
    t = 0.0
    while True:
        tau = rng.exponential(1.0 / model.lam)
        t += tau
        if t > horizon:
            break
        inter.append(tau)
    sizes = mc.sample_claims(model.claim, rng, len(inter))
    return PathRecord(np.asarray(inter), sizes, horizon)


def path_ruin_time(path: PathRecord, u1: float, u2: float, model: RiskModel) -> float:
    """Joint ruin time of the original path, checked at claim epochs."""
    cum_tau = np.cumsum(path.interarrivals)
    cum_sig = np.cumsum(path.claim_sizes)
    U1, U2 = reserves_at_epochs(model, u1, u2, cum_tau, cum_sig)
    low = np.minimum(U1, U2) < 0.0
    if not low.any():
        return math.inf
    return float(cum_tau[int(np.argmax(low))])


def killed_position_frequencies(
    model: RiskModel,
    q: float,
    x1: float,
    bin_edges: np.ndarray,
    n: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies of company 1's position at an independent Exp(q) kill time.

    Runs the normalized company-1 process from ``x1`` to ``e_q ~ Exp(q)`` and
    bins the terminal position of paths that never went below zero.  Returns
    ``(freq, std_err)`` per bin; the matching prediction is ``q`` times the
    killed-resolvent mass of the bin.
    """
    edges = np.asarray(bin_edges, dtype=float)
    hits = np.zeros(len(edges) - 1, dtype=np.int64)
    for k in range(math.ceil(n / mc.CHUNK)):
        size = min(mc.CHUNK, n - k * mc.CHUNK)
        rng = mc.stream(seed, k)
        kill = rng.exponential(1.0 / q, size=size)
        alive, x_T = reference_company1_chunk(model, x1, kill, rng, size)
        hist, _ = np.histogram(x_T[alive], bins=edges)
        hits += hist
    freq = hits / n
    return freq, np.sqrt(freq * (1.0 - freq) / n)


@dataclass(frozen=True)
class FluidPath:
    """Alternating-phase embedding of a claims path.

    Jumps are unfolded into linear descent in direction
    ``(-delta1, -delta2)`` of duration equal to the claim size, so the
    embedded reserves are continuous and share the original path's extrema.
    Phase ``+1`` (up) intervals reproduce the premium drift; ``up_clock``
    holds the accumulated up time at each switch epoch.
    """

    switch_times: np.ndarray      # S_0 = 0 < S_1 < ... (up phase first)
    phases: np.ndarray            # phase value on [S_k, S_{k+1})
    up_clock: np.ndarray          # I(S_k)
    claim_clock: np.ndarray       # unfolded claim amount at S_k
    u1: float
    u2: float
    model: RiskModel

    def up_time(self, t: float) -> float:
        """Accumulated up time ``I(t)``: 1-Lipschitz, flat on down phases."""
        k = int(np.searchsorted(self.switch_times, t, side="right")) - 1
        k = max(0, min(k, len(self.phases) - 1))
        base = self.up_clock[k]
        if self.phases[k] == 1:
            return base + (t - self.switch_times[k])
        return base

    def reserves(self, t: float) -> tuple[float, float]:
        up = self.up_time(t)
        down = t - up
        m = self.model
        return (
            self.u1 + m.c1 * up - m.delta1 * down,
            self.u2 + m.c2 * up - m.delta2 * down,
        )

    def _claim_cums(self) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative (up time, claim amount) at each down-phase end.

        Stored directly rather than reconstructed from switch times, so the
        values are the very cumsums the direct simulation uses.
        """
        return self.up_clock[2::2], self.claim_clock[2::2]

    def minimum_reserves(self) -> tuple[float, float]:
        """Running minima over the whole embedding, one per company."""
        up, claims = self._claim_cums()
        U1, U2 = reserves_at_epochs(self.model, self.u1, self.u2, up, claims)
        m1 = float(np.min(U1)) if U1.size else self.u1
        m2 = float(np.min(U2)) if U2.size else self.u2
        return min(m1, self.u1), min(m2, self.u2)

    def ruin_time_embedded(self) -> float:
        """First time the embedded pair leaves the positive quadrant (inf if never)."""
        up, claims = self._claim_cums()
        U1, U2 = reserves_at_epochs(self.model, self.u1, self.u2, up, claims)
        low = np.minimum(U1, U2) < 0.0
        if not low.any():
            return math.inf
        k = int(np.argmax(low))
        m = self.model
        # reserves at the start of down phase k (pre-jump values)
        pre1 = U1[k] + m.delta1 * (claims[k] - (claims[k - 1] if k else 0.0))
        pre2 = U2[k] + m.delta2 * (claims[k] - (claims[k - 1] if k else 0.0))
        cross = math.inf
        if U1[k] < 0:
            cross = min(cross, pre1 / m.delta1)
        if U2[k] < 0:
            cross = min(cross, pre2 / m.delta2)
        return float(self.switch_times[2 * k + 1] + cross)

    def ruin_time_original(self) -> float:
        """``I(tau~)``: the original joint ruin time recovered from the embedding."""
        up, claims = self._claim_cums()
        U1, U2 = reserves_at_epochs(self.model, self.u1, self.u2, up, claims)
        low = np.minimum(U1, U2) < 0.0
        if not low.any():
            return math.inf
        return float(up[int(np.argmax(low))])


def fluid_embed(path: PathRecord, u1: float, u2: float, model: RiskModel) -> FluidPath:
    """Build the alternating up/down embedding of a realized claims path."""
    taus = np.asarray(path.interarrivals, dtype=float)
    sigmas = np.asarray(path.claim_sizes, dtype=float)
    n = len(taus)
    switch = np.empty(2 * n + 1)
    phases = np.empty(2 * n + 1, dtype=np.int8)
    up_clock = np.empty(2 * n + 1)
    claim_clock = np.empty(2 * n + 1)
    switch[0] = 0.0
    up_clock[0] = 0.0
    claim_clock[0] = 0.0
    phases[0] = 1
    cum_tau = np.cumsum(taus)
    cum_sig = np.cumsum(sigmas)
    if n:
        prev_sig = np.concatenate(([0.0], cum_sig[:-1]))
        switch[1::2] = cum_tau + prev_sig
        switch[2::2] = cum_tau + cum_sig
        up_clock[1::2] = cum_tau
        up_clock[2::2] = cum_tau
        claim_clock[1::2] = prev_sig
        claim_clock[2::2] = cum_sig
        phases[1::2] = -1
        phases[2::2] = 1
    return FluidPath(
        switch_times=switch,
        phases=phases,
        up_clock=up_clock,
        claim_clock=claim_clock,
        u1=u1,
        u2=u2,
        model=model,
    )
