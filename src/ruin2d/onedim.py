"""One-dimensional ruin quantities for a single company.

All formulas below are stated in normalized coordinates ``x = u / delta``
where the reserve process is ``x + p t - S(t)``: for exponential claims the
ruin probability is ``C_i exp(-gamma_i x)`` with ``gamma_i = mu - lam/p_i``
and ``C_i = lam/(mu p_i)``; for phase-type claims company 2's is
``eta exp((B + b eta) x) 1``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UnsupportedClaimLaw
from .model import Exponential, PhaseType, RiskModel, derive

__all__ = ["ruin_prob_exp", "theta_minus", "ruin_transform_exp", "survival_one_company"]


def _gamma_C(model: RiskModel, company: int) -> tuple[float, float]:
    dc = derive(model)
    return (dc.gamma1, dc.C1) if company == 1 else (dc.gamma2, dc.C2)


def ruin_prob_exp(model: RiskModel, x: float, company: int = 2) -> float:
    """Ultimate ruin probability ``C_i exp(-gamma_i x)`` at normalized reserve ``x``."""
    if not x >= 0:  # NaN fails too
        raise DomainError("reserve must be nonnegative")
    gamma, C = _gamma_C(model, company)
    return C * math.exp(-gamma * x)


def theta_minus(model: RiskModel, s: float) -> float:
    """The negative root of company 2's ``kappa_2(theta) = s``, for ``s >= 0``.

    It solves ``p2 theta^2 + (p2 mu - lam - s) theta - s mu = 0``, whose
    discriminant ``b^2 + 4 p2 s mu`` is nonnegative for ``s >= 0``.
    """
    mu, p2 = derive(model).mu, model.p2
    b = p2 * mu - model.lam - s
    return (-b - math.sqrt(b * b + 4.0 * p2 * s * mu)) / (2.0 * p2)


def ruin_transform_exp(model: RiskModel, x: float, s: float) -> float:
    """Discounted ruin-time transform ``E[e^{-s tau} 1{tau < inf}]`` for company 2.

    Equals ``((mu + theta)/mu) exp(theta x)`` with ``theta`` from
    :func:`theta_minus`; reduces to :func:`ruin_prob_exp` at ``s = 0``.
    """
    if not x >= 0:  # NaN fails too
        raise DomainError("reserve must be nonnegative")
    if not 0 <= s < math.inf:
        raise DomainError("discount rate must be finite and nonnegative")
    mu = derive(model).mu
    theta = theta_minus(model, s)
    if theta > 0 or theta <= -mu:
        raise DomainError("negative root of kappa_2 outside (-mu, 0]")
    return (mu + theta) / mu * math.exp(theta * x)


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
        raise DomainError("phase-type subgenerator B is singular") from exc
    return eta, B + np.outer(claim.exit_rates, eta), ones


def _phasetype_ruin_normalized(model: RiskModel, z: np.ndarray) -> np.ndarray:
    """Vectorized ``eta exp((B + b eta) z) 1`` over normalized reserves ``z``.

    Diagonalizes the generator once when its eigenbasis is well conditioned;
    a defective or near-defective one falls back to per-value matrix exponentials.
    """
    eta, gen, ones = _phasetype_generator(model)
    z = np.asarray(z, dtype=float)
    vals, vecs = np.linalg.eig(gen)
    # a singular basis gets a huge or infinite condition number, not an error
    if np.linalg.cond(vecs) < 1e10:
        coeff = (eta @ vecs) * np.linalg.solve(vecs, ones.astype(complex))
        out = np.real(np.exp(np.outer(z, vals)) @ coeff).reshape(z.shape)
        return np.clip(out, 0.0, 1.0)
    import scipy.linalg  # here, not at module level: scipy's import dominates a cold start

    flat = np.array(
        [eta @ scipy.linalg.expm(gen * zz) @ ones for zz in np.ravel(z)]
    )
    return np.clip(flat.reshape(z.shape), 0.0, 1.0)


def survival_one_company(model: RiskModel, z) -> np.ndarray:
    """Exact survival ``1 - psi_2`` of company 2 at normalized reserves ``z``."""
    z = np.asarray(z, dtype=float)
    if not np.all(z >= 0):  # NaN fails too
        raise DomainError("reserve must be nonnegative")
    if isinstance(model.claim, Exponential):
        gamma, C = _gamma_C(model, 2)
        return 1.0 - C * np.exp(-gamma * z)
    if isinstance(model.claim, PhaseType):
        return 1.0 - _phasetype_ruin_normalized(model, z)
    raise UnsupportedClaimLaw("exact one-dimensional survival needs exponential or phase-type claims")
