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

__all__ = ["ruin_prob_exp", "ruin_transform_exp", "survival_one_company"]


def ruin_prob_exp(model: RiskModel, x: float, company: int = 2) -> float:
    """Ultimate ruin probability ``C_i exp(-gamma_i x)`` at normalized reserve ``x``."""
    if not x >= 0:  # NaN fails too
        raise DomainError("reserve must be nonnegative")
    dc = derive(model)
    gamma, C = (dc.gamma1, dc.C1) if company == 1 else (dc.gamma2, dc.C2)
    return C * math.exp(-gamma * x)


def _phi(model: RiskModel, s: float) -> float:
    """``mu + theta`` for company 2's negative root ``theta`` of ``kappa_2(theta) = s``.

    It is the small root of ``p2 phi^2 - (p2 mu + lam + s) phi + lam mu = 0``,
    taken from Vieta's rule so that no like-signed terms are subtracted; it
    lies in ``(0, lam/p2]`` for ``s >= 0``.  Above about ``s = 1e154`` the
    discriminant overflows, and both it and the denominator are taken over
    ``s``, which leaves ``phi`` close to ``lam mu / s``.
    """
    mu, lam, p2 = derive(model).mu, model.lam, model.p2
    total = p2 * mu + lam
    disc = (p2 * mu - lam) ** 2 + s * (s + 2.0 * total)
    if disc < math.inf:
        return 2.0 * lam * mu / (total + s + math.sqrt(disc))
    root = math.sqrt(1.0 + (2.0 * total + (p2 * mu - lam) ** 2 / s) / s)  # sqrt(disc) / s
    return 2.0 * lam * mu / s / (total / s + 1.0 + root)


def ruin_transform_exp(model: RiskModel, x, s: float):
    """Discounted ruin-time transform ``E[e^{-s tau} 1{tau < inf}]`` for company 2.

    Equals ``(phi/mu) exp((phi - mu) x)`` with ``phi = mu + theta`` from
    :func:`_phi`, elementwise over ``x``; reduces to :func:`ruin_prob_exp` at
    ``s = 0``.  A scalar ``x`` runs as a 1-element array, so that it rounds as
    the same element of a row does.
    """
    xa = np.array(x, dtype=float, ndmin=1)
    if not np.all(xa >= 0):  # NaN fails too
        raise DomainError("reserve must be nonnegative")
    if not 0 <= s < math.inf:
        raise DomainError("discount rate must be finite and nonnegative")
    mu = derive(model).mu
    phi = _phi(model, s)
    return (phi / mu * np.exp((phi - mu) * xa)).reshape(np.shape(x))[()]


def _phasetype_ruin_normalized(model: RiskModel, z: np.ndarray) -> np.ndarray:
    """Vectorized ``eta exp((B + b eta) z) 1`` over normalized reserves ``z``.

    Diagonalizes the generator once when its eigenbasis is well conditioned;
    a defective or near-defective one falls back to per-value matrix exponentials.
    """
    claim, ones = model.claim, np.ones(len(model.claim.beta))
    try:
        eta = (model.lam / model.p2) * np.linalg.solve(-claim.B.T, claim.beta).T
    except np.linalg.LinAlgError as exc:
        raise DomainError("phase-type subgenerator B is singular") from exc
    gen = claim.B + np.outer(claim.exit_rates, eta)
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
        dc = derive(model)
        return 1.0 - dc.C2 * np.exp(-dc.gamma2 * z)
    if isinstance(model.claim, PhaseType):
        return 1.0 - _phasetype_ruin_normalized(model, z)
    raise UnsupportedClaimLaw("exact one-dimensional survival needs exponential or phase-type claims")
