"""Reference implementations that only the tests call.

Each oracle checks a shipped result from another side: the fluid embedding
of a sampled path, the company-1 scale function and killed resolvent, the
Laplace exponents and the residual factor ``g`` of the transform, the residue
terms of the closed form, and the model's JSON and coordinate round trips.
The oracles call the shipped kernels they check (``mc.stream``,
``mc.reserves_at_epochs``, ``mc._company1_chunk``, ``transform.kappa_roots``,
...) rather than copies of them, so a test through an oracle still tests the
code that users run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ruin2d import mc, onedim, transform
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
    elif isinstance(model.claim, PhaseType):
        claim = {
            "type": "phase-type",
            "beta": model.claim.beta.tolist(),
            "B": model.claim.B.tolist(),
        }
    else:
        raise UnsupportedClaimLaw("empirical claim laws have no file representation")
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


def kappa(model: RiskModel, i: int, theta):
    """Laplace exponent ``kappa_i(theta) = p_i theta - lam theta/(mu+theta)``.

    Real arguments must satisfy ``theta > -mu``; complex arguments are
    evaluated by analytic continuation away from the pole.
    """
    mu = derive(model).mu
    p = transform._p(model, i)
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
    return transform._p(model, i) - model.rho


def q_plus(model: RiskModel, r: float) -> float:
    """Largest real root of ``kappa_1(alpha) = r``.

    Satisfies the identification ``q_plus((p1 - p2) q) = z2(q) + q`` for real
    ``q`` to the right of the cut.
    """
    _, theta_plus = transform.kappa_roots(model, r, i=1)
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
    eta, gen, ones = onedim._phasetype_generator(model)
    return float(eta @ scipy.linalg.expm(gen * (u2 / model.delta2)) @ ones)


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
        theta_minus, theta_plus = transform.kappa_roots(model, q, i=1)
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
    U1, U2 = mc.reserves_at_epochs(model, u1, u2, cum_tau, cum_sig)
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
    for k, size in mc._chunk_sizes(n):
        rng = mc.stream(seed, k)
        kill = rng.exponential(1.0 / q, size=size)
        alive, x_T = mc._company1_chunk(model, x1, kill, rng, size)
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
        U1, U2 = mc.reserves_at_epochs(self.model, self.u1, self.u2, up, claims)
        m1 = float(np.min(U1)) if U1.size else self.u1
        m2 = float(np.min(U2)) if U2.size else self.u2
        return min(m1, self.u1), min(m2, self.u2)

    def ruin_time_embedded(self) -> float:
        """First time the embedded pair leaves the positive quadrant (inf if never)."""
        up, claims = self._claim_cums()
        U1, U2 = mc.reserves_at_epochs(self.model, self.u1, self.u2, up, claims)
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
        U1, U2 = mc.reserves_at_epochs(self.model, self.u1, self.u2, up, claims)
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
