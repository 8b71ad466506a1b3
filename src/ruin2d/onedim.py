"""One-dimensional ruin quantities for a single company.

All exponential-claims formulas below are stated in normalized coordinates
``x = u / delta`` where the reserve process is ``x + p t - S(t)``: the ruin
probability is ``C_i exp(-gamma_i x)`` with ``gamma_i = mu - lam/p_i`` and
``C_i = lam/(mu p_i)``.  The phase-type formula takes the raw reserve and
carries the ``1/delta2`` scaling itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateRoots,
    DomainError,
    RootNotFound,
    SingularMatrix,
    UnsupportedClaimLaw,
)
from .model import Exponential, PhaseType, RiskModel, derive
from .transform import kappa_roots

__all__ = [
    "ruin_prob_exp",
    "ruin_transform_exp",
    "ruin_prob_phasetype",
    "ScaleFunction",
    "scale_w",
    "resolvent_density",
    "survival_lt_check",
    "survival_one_company",
]


def _gamma_C(model: RiskModel, company: int) -> tuple[float, float]:
    dc = derive(model)
    return (dc.gamma1, dc.C1) if company == 1 else (dc.gamma2, dc.C2)


def ruin_prob_exp(model: RiskModel, x: float, company: int = 2) -> float:
    """Ultimate ruin probability ``C_i exp(-gamma_i x)`` at normalized reserve ``x``."""
    if x < 0:
        raise DomainError("reserve must be nonnegative")
    gamma, C = _gamma_C(model, company)
    return C * math.exp(-gamma * x)


def ruin_transform_exp(model: RiskModel, x: float, s: float) -> float:
    """Discounted ruin-time transform ``E[e^{-s tau} 1{tau < inf}]`` for company 2.

    Equals ``((mu + theta_minus(s))/mu) exp(theta_minus(s) x)`` where
    ``theta_minus(s)`` is the negative root of ``kappa_2(theta) = s``; reduces
    to :func:`ruin_prob_exp` at ``s = 0``.
    """
    if x < 0:
        raise DomainError("reserve must be nonnegative")
    if s < 0:
        raise DomainError("discount rate must be nonnegative")
    mu = model.mu
    theta_minus, _ = kappa_roots(model, s, i=2)
    if theta_minus > 0 or theta_minus <= -mu:
        raise RootNotFound("negative root of kappa_2 outside (-mu, 0]")
    return (mu + theta_minus) / mu * math.exp(theta_minus * x)


def _phasetype_generator(model: RiskModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(eta, B + b eta)`` for the normalized company-2 process."""
    claim = model.claim
    if not isinstance(claim, PhaseType):
        raise UnsupportedClaimLaw("phase-type formula needs phase-type claims")
    B, beta = claim.B, claim.beta
    ones = np.ones(len(beta))
    try:
        eta = (model.lam / model.p2) * np.linalg.solve(-B.T, beta).T
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("phase-type subgenerator B is singular") from exc
    return eta, B + np.outer(claim.exit_rates, eta), ones


def ruin_prob_phasetype(model: RiskModel, u2: float) -> float:
    """Ruin probability ``eta exp((B + b eta) u2 / delta2) 1`` for company 2.

    ``b = -B 1`` is the exit-rate vector, which makes the one-state case
    collapse exactly onto the exponential formula.
    """
    if u2 < 0:
        raise DomainError("reserve must be nonnegative")
    eta, gen, ones = _phasetype_generator(model)
    return float(eta @ scipy.linalg.expm(gen * (u2 / model.delta2)) @ ones)


def _phasetype_ruin_normalized(model: RiskModel, z: np.ndarray) -> np.ndarray:
    """Vectorized ``eta exp((B + b eta) z) 1`` over normalized reserves ``z``.

    Diagonalizes the defective generator once; falls back to per-value matrix
    exponentials when the eigenbasis is ill-conditioned.
    """
    eta, gen, ones = _phasetype_generator(model)
    z = np.asarray(z, dtype=float)
    vals, vecs = np.linalg.eig(gen)
    try:
        left = np.linalg.solve(vecs, ones.astype(complex))
    except np.linalg.LinAlgError:
        left = None
    if left is not None and np.linalg.cond(vecs) < 1e10:
        coeff = (eta @ vecs) * left
        out = np.real(np.exp(np.outer(z, vals)) @ coeff).reshape(z.shape)
        return np.clip(out, 0.0, 1.0)
    flat = np.array(
        [eta @ scipy.linalg.expm(gen * zz) @ ones for zz in np.ravel(z)]
    )
    return np.clip(flat.reshape(z.shape), 0.0, 1.0)


def survival_one_company(model: RiskModel, z) -> np.ndarray:
    """Exact survival ``1 - psi_2`` of company 2 at normalized reserves ``z``."""
    z = np.asarray(z, dtype=float)
    if isinstance(model.claim, Exponential):
        gamma, C = _gamma_C(model, 2)
        return 1.0 - C * np.exp(-gamma * z)
    if isinstance(model.claim, PhaseType):
        return 1.0 - _phasetype_ruin_normalized(model, z)
    raise UnsupportedClaimLaw("exact one-dimensional survival needs exponential or phase-type claims")


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
        mu = model.mu
        theta_minus, theta_plus = kappa_roots(model, q, i=1)
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

    ``kappa_i'(0+) / kappa_i(theta)`` for ``theta > 0``; test helper backing
    the quadrature identity against ``1 - ruin_prob_exp``.
    """
    if theta <= 0:
        raise DomainError("transform argument theta must be positive")
    from .transform import kappa, kappa_derivative_origin

    return kappa_derivative_origin(model, company) / kappa(model, company, theta)
