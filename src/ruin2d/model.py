"""Risk-model parameters, standing assumptions, and derived constants.

Two companies pay fixed proportions ``delta1``, ``delta2`` of every claim of a
shared compound-Poisson claims process and collect premia at rates ``c1``,
``c2``.  The reserve of company ``i`` is ``U_i(t) = u_i + c_i t - delta_i S(t)``.
Everything downstream is expressed through the normalized drift rates
``p_i = c_i / delta_i`` and the loading ``rho = lambda * E[claim]``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, UnsupportedClaimLaw

__all__ = [
    "Exponential",
    "PhaseType",
    "RiskModel",
    "ValidationReport",
    "DerivedConstants",
    "ExponentialConstants",
    "validate",
    "derive",
    "normalize",
    "model_from_dict",
    "load_model",
    "UNNORMALIZED_DELTA_WARNING",
]

UNNORMALIZED_DELTA_WARNING = "delta1 + delta2 != 1; proportions are used unnormalized"


@dataclass(frozen=True)
class Exponential:
    """Exponential claim sizes with intensity ``mu`` (mean ``1/mu``)."""

    mu: float

    @property
    def mean(self) -> float:
        return 1.0 / self.mu


@dataclass(frozen=True)
class PhaseType:
    """Phase-type claim sizes (initial row ``beta``, subgenerator ``B``)."""

    beta: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, dtype=float)))
        object.__setattr__(self, "B", np.atleast_2d(np.asarray(self.B, dtype=float)))

    @property
    def exit_rates(self) -> np.ndarray:
        """Absorption-rate vector ``b = -B 1``."""
        return -self.B.sum(axis=1)

    @property
    def mean(self) -> float:
        return float(self.beta @ np.linalg.solve(-self.B, np.ones(len(self.beta))))


ClaimLaw = Exponential | PhaseType


@dataclass(frozen=True)
class RiskModel:
    """Claim arrival rate, claim law, premium rates and claim proportions."""

    lam: float
    claim: ClaimLaw
    c1: float
    c2: float
    delta1: float = 1.0
    delta2: float = 1.0

    @property
    def p1(self) -> float:
        return self.c1 / self.delta1

    @property
    def p2(self) -> float:
        return self.c2 / self.delta2

    @property
    def rho(self) -> float:
        return self.lam * self.claim.mean


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


def _claim_law_violations(claim: ClaimLaw) -> list[str]:
    out: list[str] = []
    if isinstance(claim, Exponential):
        if not math.isfinite(claim.mu):
            out.append("mu must be finite")
        elif not claim.mu > 0:
            out.append("exponential claim intensity mu must be positive")
    elif isinstance(claim, PhaseType):
        beta, B = claim.beta, claim.B
        for name, entries in (("beta", beta), ("B", B)):
            if not np.all(np.isfinite(entries)):
                out.append(f"{name} must be finite")
        if out:
            return out
        if B.shape[0] != B.shape[1] or beta.shape[0] != B.shape[0]:
            out.append("phase-type beta and B dimensions disagree")
            return out
        if np.any(beta < 0) or beta.sum() > 1 + 1e-12:
            out.append("phase-type beta entries must be nonnegative and sum to <= 1")
        if np.any(np.diag(B) >= 0):
            out.append("phase-type B must have negative diagonal")
        off = B - np.diag(np.diag(B))
        if np.any(off < 0):
            out.append("phase-type B must have nonnegative off-diagonal entries")
        if np.any(B.sum(axis=1) > 1e-12):
            out.append("phase-type B row sums must be <= 0")
        try:
            np.linalg.inv(B)
        except np.linalg.LinAlgError:
            out.append("phase-type B must be invertible")
    else:
        out.append(f"unknown claim law {type(claim).__name__}")
    return out


def validate(model: RiskModel) -> ValidationReport:
    """Check the standing assumptions; violations are reported, not thrown."""
    violations: list[str] = []
    warnings: list[str] = []

    for name in ("lam", "c1", "c2", "delta1", "delta2"):
        value = getattr(model, name)
        if not math.isfinite(value):
            violations.append(f"{name} must be finite")
        elif not value > 0:
            violations.append(f"{name} must be positive")
    violations.extend(_claim_law_violations(model.claim))
    if violations:
        return ValidationReport(False, tuple(violations), tuple(warnings))

    # boundary-degenerate models (p1 = p2 or p2 = rho, up to working
    # precision) are rejected outright rather than handled as limits
    if not model.p1 - model.p2 > 1e-12 * model.p1:
        violations.append(
            "net-profit ordering violated: requires p1 = c1/delta1 > p2 = c2/delta2"
        )
    if not model.p2 - model.rho > 1e-12 * model.p2:
        violations.append(
            "positive safety loading violated: requires p2 > rho = lambda * E[claim]"
        )
    if abs(model.delta1 + model.delta2 - 1.0) > 1e-12:
        warnings.append(UNNORMALIZED_DELTA_WARNING)
    return ValidationReport(not violations, tuple(violations), tuple(warnings))


@dataclass(frozen=True)
class DerivedConstants:
    """Every named constant used downstream of a valid model.

    For exponential claims :func:`derive` returns :class:`ExponentialConstants`.
    For any other claim law, reading one of that subclass's own fields raises
    :class:`UnsupportedClaimLaw`: this is the library's one refusal of a claim
    law that the spectral, transform and PDE layers do not cover.
    """

    p1: float
    p2: float
    rho: float
    d: float
    regime: str  # "case1" if rho < p2^2/p1 else "case2"

    def __getattr__(self, name):
        # reached only when normal lookup fails; any other name stays an
        # AttributeError, which copy and pickle rely on
        if name in _EXPONENTIAL_ONLY:
            raise UnsupportedClaimLaw("exponential claims only")
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


@dataclass(frozen=True)
class ExponentialConstants(DerivedConstants):
    """The constants of a model with exponential claims of intensity ``mu``."""

    mu: float
    gamma1: float
    gamma2: float
    gamma3: float
    C1: float
    C2: float
    q_plus_end: float
    q_minus_end: float
    b_max: float  # the peak of b(q) on the cut [q_plus_end, q_minus_end]
    end_gap: float  # q_minus_end + gamma2 <= 0, zero on the regime seam rho = p2^2/p1


_EXPONENTIAL_ONLY = {f.name for f in fields(ExponentialConstants)} - {
    f.name for f in fields(DerivedConstants)
}


def _two_product(a: float, b: float) -> tuple[float, float]:
    """``(h, l)`` with ``h`` the rounded ``a b`` and ``a b = h + l`` exactly (Dekker)."""
    h = a * b
    t, u = 134217729.0 * a, 134217729.0 * b  # 2^27 + 1 splits each into 26-bit halves
    ah, bh = t - (t - a), u - (u - b)
    al, bl = a - ah, b - bh
    return h, ((ah * bh - h) + ah * bl + al * bh) + al * bl


def derive(model: RiskModel) -> DerivedConstants:
    """Populate all derived constants of a valid model.

    Raises :class:`DomainError` when :func:`validate` fails.  Exponential
    claims get :class:`ExponentialConstants`; the regime flag compares ``rho``
    with ``p2^2/p1``.
    """
    report = validate(model)
    if not report.ok:
        raise DomainError("invalid model: " + "; ".join(report.violations))

    p1, p2, rho = model.p1, model.p2, model.rho
    d = model.delta1 * model.c2 - model.delta2 * model.c1
    regime = "case1" if rho < p2 * p2 / p1 else "case2"

    if not isinstance(model.claim, Exponential):
        return DerivedConstants(p1=p1, p2=p2, rho=rho, d=d, regime=regime)
    mu, lam = model.claim.mu, model.lam
    span = p1 - p2
    # lam - p1 mu and p2^2 mu - lam p1 vanish at q_minus_end = 0 and on the seam: form them exactly
    p1mu, p1mu_err = _two_product(p1, mu)
    p2mu, p2mu_err = _two_product(p2, mu)
    p22mu, p22mu_err = _two_product(p2, p2mu)
    lp1, lp1_err = _two_product(lam, p1)
    cut_margin = (lam - p1mu) - p1mu_err
    seam_margin = (p22mu - lp1) + (p22mu_err + p2 * p2mu_err - lp1_err)
    return ExponentialConstants(
        p1=p1, p2=p2, rho=rho, d=d, regime=regime,
        mu=mu,
        gamma1=mu - lam / p1,
        gamma2=mu - lam / p2,
        gamma3=(mu / p2) * (rho - p2 * p2 / p1),
        C1=lam / (mu * p1),
        C2=lam / (mu * p2),
        q_plus_end=-((math.sqrt(lam) + math.sqrt(p1 * mu)) ** 2) / span,
        q_minus_end=-((cut_margin / (math.sqrt(lam) + math.sqrt(p1 * mu))) ** 2) / span,
        # b = (p1 - p2)/(2 p1) sqrt((q - q_plus_end)(q_minus_end - q)) peaks at mid-cut
        b_max=math.sqrt(lam * mu / p1),
        # in closed form: the sum q_minus_end + gamma2 cancels near the seam
        end_gap=-((seam_margin / (p2 * math.sqrt(mu) + math.sqrt(lam * p1))) ** 2) / (span * p2),
    )


def normalize(model: RiskModel, u1: float, u2: float) -> tuple[float, float]:
    """Map raw reserves to normalized coordinates ``(u1/delta1, u2/delta2)``."""
    return u1 / model.delta1, u2 / model.delta2


# JSON model files: {"lambda": ..., "claim": {"type": "exponential", "mu": ...},
#                    "c": [c1, c2], "delta": [d1, d2]}
# The phase-type variant carries "beta": [...] and "B": [[...]].

def model_from_dict(data: dict) -> RiskModel:
    claim_spec = data["claim"]
    kind = claim_spec["type"].lower().replace("_", "-")
    if kind == "exponential":
        claim: ClaimLaw = Exponential(mu=float(claim_spec["mu"]))
    elif kind in ("phase-type", "phasetype"):
        claim = PhaseType(beta=claim_spec["beta"], B=claim_spec["B"])
    else:
        raise UnsupportedClaimLaw(f"cannot build claim law of type {claim_spec['type']!r}")
    c = data["c"]
    delta = data.get("delta", [1.0, 1.0])
    return RiskModel(
        lam=float(data["lambda"]),
        claim=claim,
        c1=float(c[0]),
        c2=float(c[1]),
        delta1=float(delta[0]),
        delta2=float(delta[1]),
    )


def load_model(path) -> RiskModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
