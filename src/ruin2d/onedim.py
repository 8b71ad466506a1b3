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
from .transform import kappa_roots

__all__ = ["ruin_prob_exp", "ruin_transform_exp", "survival_one_company"]


def _gamma_C(model: RiskModel, company: int) -> tuple[float, float]:
    dc = derive(model)
    return (dc.gamma1, dc.C1) if company == 1 else (dc.gamma2, dc.C2)


def ruin_prob_exp(model: RiskModel, x: float, company: int = 2) -> float:
    """Ultimate ruin probability ``C_i exp(-gamma_i x)`` at normalized reserve ``x``."""
    if not x >= 0:  # NaN fails too
        raise DomainError("reserve must be nonnegative")
    gamma, C = _gamma_C(model, company)
    return C * math.exp(-gamma * x)


def ruin_transform_exp(model: RiskModel, x: float, s: float) -> float:
    """Discounted ruin-time transform ``E[e^{-s tau} 1{tau < inf}]`` for company 2.

    Equals ``((mu + theta_minus(s))/mu) exp(theta_minus(s) x)`` where
    ``theta_minus(s)`` is the negative root of ``kappa_2(theta) = s``; reduces
    to :func:`ruin_prob_exp` at ``s = 0``.
    """
    if not x >= 0:  # NaN fails too
        raise DomainError("reserve must be nonnegative")
    if not 0 <= s < math.inf:
        raise DomainError("discount rate must be finite and nonnegative")
    mu = derive(model).mu
    theta_minus, _ = kappa_roots(model, s, i=2)
    if theta_minus > 0 or theta_minus <= -mu:
        raise DomainError("negative root of kappa_2 outside (-mu, 0]")
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
        raise DomainError("phase-type subgenerator B is singular") from exc
    return eta, B + np.outer(claim.exit_rates, eta), ones


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
