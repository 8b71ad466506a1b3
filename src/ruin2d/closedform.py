"""Exact joint survival probability for exponential claims.

In normalized coordinates ``x_i = u_i / delta_i`` the survival probability on
the lower cone ``x2 <= x1`` equals the one-dimensional ``1 - C2 exp(-gamma2 x2)``.
On the upper cone ``x2 > x1`` it is assembled from exponential residue terms
plus an oscillatory integral over the cut ``[q_plus_end, q_minus_end]``:

    survival = 1 - C1 e^{-gamma1 x1} - C2 e^{-gamma2 x2}
               + C2t e^{z1(-gamma2) x1 - gamma2 x2} + omega(x1, x2)

with ``C2t = C2 + z1(-gamma2)/mu``.  When ``rho < p2^2/p1`` (case 1) the last
two residue terms cancel exactly; otherwise (case 2) ``C2t = p2/p1`` and
``z1(-gamma2) = -gamma3``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceNotMet
from .model import DerivedConstants, RiskModel, derive
from .transform import ab

__all__ = ["SurvivalResult", "omega", "survival", "ruin"]

# e^x underflows to subnormals around x = -745; beyond this the cut integral
# is exactly zero at double precision.
_LOG_TINY = -700.0
_PANEL_BUDGET = 10_000


@dataclass(frozen=True)
class SurvivalResult:
    value: float
    ruin: float
    regime: str
    omega: float
    quadrature_error: float = 0.0


def _cut_integrand(model: RiskModel, dc: DerivedConstants, x1: float, x2: float):
    """The integrand of :func:`omega` at fixed reserves, with the model constants bound once.

    It does :func:`ruin2d.transform.ab`'s arithmetic inline, operation for operation
    and in the same order, so each value is bit-identical to going through ``ab``.
    Only leading subexpressions, which Python evaluates first anyway, are hoisted:
    ``q * p2 + mu * p2 - lam`` must stay as written.  ``quad`` evaluates strictly
    inside the cut, so ``ab``'s domain check is left out.
    """
    mu, lam, p1, p2 = dc.mu, model.lam, dc.p1, dc.p2
    two_p1, four_p1, lin0 = 2.0 * p1, 4.0 * p1, p1 * mu - lam
    exp, sin, cos, sqrt = math.exp, math.sin, math.cos, math.sqrt

    def integrand(q: float) -> float:
        lin = lin0 + p2 * q + p1 * q
        a = -lin / two_p1
        radicand = four_p1 * (p2 * q * mu + p2 * q * q - lam * q) - lin * lin
        if radicand < 0.0:
            if radicand < -1e-9 * max(1.0, lin * lin):
                raise DomainError("negative radicand on the cut; inconsistent model constants")
            radicand = 0.0
        b = sqrt(radicand) / two_p1
        f = mu + q + a
        damp = exp(x1 * a + x2 * q)
        return damp * (f * sin(b * x1) + b * cos(b * x1)) / (q * (q * p2 + mu * p2 - lam))

    return integrand


def omega(
    model: RiskModel,
    x1: float,
    x2: float,
    tol: float = 1e-10,
    dc: DerivedConstants | None = None,
) -> tuple[float, float]:
    """Oscillatory cut integral of the spectral representation.

    Returns ``(value, error_estimate)``.  :func:`ruin2d.transform.ab` runs once
    at each cut end, ``q_plus_end`` and ``q_minus_end``: ``a`` and ``|f|`` are
    affine in ``q``, so those two values give the peak damping exponent
    ``x1 a + x2 q`` and the sup-times-length bound, both of which can skip
    the integral.  The radicand of ``b`` is
    ``-(p1-p2)^2 (q-q_plus_end)(q-q_minus_end)``, whose mid-cut peak
    ``4 lam p1 mu`` gives ``max b = sqrt(lam mu / p1)``.

    Adaptive Gauss-Kronrod panels over ``[q_plus_end, q_minus_end]``; the
    interval is pre-split at the oscillation scale ``pi / (x1 * max b)``
    since ``sin(b(q) x1)`` oscillates for large ``x1``.  The integrand is
    finite at the endpoints because ``b`` vanishes there, except on the
    regime seam ``rho = p2^2/p1``: there the pole ``-gamma2`` meets
    ``q_minus_end`` and the integrand grows like ``(q_minus_end - q)^(-1/2)``,
    which is integrable.  The integrand is one closure per call, built by
    :func:`_cut_integrand`: it does the same operations as ``ab``, so its
    values and the output are bit-identical to the ``ab``-based form.
    Orientation note: the sign is fixed by the requirement that the assembled
    survival be continuous across the cone boundary; it is the opposite of
    the raw left-to-right endpoint integral.
    """
    if not (x1 >= 0 and x2 >= 0):  # NaN fails both comparisons
        raise DomainError("reserves must be nonnegative")
    if x1 == math.inf:
        raise DomainError("the cut integral needs a finite x1")
    if x2 < x1:
        raise DomainError("the cut integral is the upper-cone term: it needs x2 >= x1")
    if not tol > 0:
        raise DomainError("tol must be positive")
    dc = dc or derive(model)
    p1, p2 = dc.p1, dc.p2
    lo, hi = dc.q_plus_end, dc.q_minus_end
    end_lo, end_hi = ab(model, lo, dc), ab(model, hi, dc)
    # a is affine in q, so the exponent peaks at a cut end; x2 >= x1 makes it
    # nonpositive, which rules out overflow
    exponent = max(x1 * end_lo.a + x2 * lo, x1 * end_hi.a + x2 * hi)
    if exponent < _LOG_TINY:
        return 0.0, 0.0
    # -(p1 - p2)^2 rounds to zero once p1 and p2 agree to about 8 digits
    if not 4.0 * p1 * p2 - (p1 + p2) ** 2 < 0.0:
        raise ToleranceNotMet(
            f"p1 - p2 = {p1 - p2:.3g} is below the resolution of the cut integral's bound"
        )
    b_max = math.sqrt(model.lam * dc.mu / p1)
    span = hi - lo
    prefactor = (p2 - dc.rho) / math.pi
    # q (p2 q + mu p2 - lam) = p2 q (q + gamma2) is smallest at the cut end nearest -gamma2
    denom_min = p2 * min(abs(lo) * abs(lo + dc.gamma2), abs(hi) * abs(hi + dc.gamma2))
    if denom_min > 0.0:
        f_max = max(abs(end_lo.f), abs(end_hi.f))
        sup = math.exp(exponent) * ((f_max + b_max) / denom_min)
        bound = abs(prefactor) * span * sup
        if bound < 0.1 * tol:
            return 0.0, bound
    # imported here so that a process that never integrates starts without scipy;
    # the fixed-node rule of ROADMAP direction 2 removes quad altogether
    from scipy.integrate import quad

    n_panels = max(1, min(math.ceil(span * x1 * b_max / math.pi), _PANEL_BUDGET))
    edges = np.linspace(lo, hi, n_panels + 1)
    total = 0.0
    err = 0.0
    integrand = _cut_integrand(model, dc, x1, x2)
    for left, right in zip(edges[:-1], edges[1:]):
        val, abserr = quad(
            integrand,
            left,
            right,
            epsabs=tol / n_panels,
            epsrel=1e-12,
            limit=max(50, _PANEL_BUDGET // n_panels),
        )
        total += val
        err += abserr
    if err * abs(prefactor) > tol:
        raise ToleranceNotMet(
            f"cut integral error {err * abs(prefactor):.2e} exceeds tol {tol:.2e}"
        )
    return -prefactor * total, abs(prefactor) * err


def survival(model: RiskModel, x1: float, x2: float, tol: float = 1e-8) -> SurvivalResult:
    """Joint survival probability at normalized reserves ``(x1, x2)``.

    Lower cone ``x2 <= x1``: the one-dimensional reduction
    ``1 - C2 exp(-gamma2 x2)``.  Upper cone: residue terms plus the cut
    integral, assembled per regime.
    """
    if not (x1 >= 0 and x2 >= 0):  # NaN fails both comparisons
        raise DomainError("reserves must be nonnegative")
    dc = derive(model)

    if x2 <= x1:
        psi2 = dc.C2 * math.exp(-dc.gamma2 * x2)
        return SurvivalResult(value=1.0 - psi2, ruin=psi2, regime=dc.regime, omega=0.0)

    om, om_err = omega(model, x1, x2, tol=tol, dc=dc)
    psi1 = dc.C1 * math.exp(-dc.gamma1 * x1)
    value, psi = 1.0 - psi1, psi1
    if dc.regime == "case2":
        psi2 = dc.C2 * math.exp(-dc.gamma2 * x2)
        cross = (dc.p2 / dc.p1) * math.exp(-dc.gamma3 * x1 - dc.gamma2 * x2)
        value = value - psi2 + cross
        psi = psi + psi2 - cross
    return SurvivalResult(
        value=value + om, ruin=psi - om, regime=dc.regime, omega=om, quadrature_error=om_err
    )


def ruin(model: RiskModel, x1: float, x2: float) -> float:
    """Joint ruin probability, clipped to ``[0, 1]``.

    :attr:`SurvivalResult.ruin` sums the ruin terms directly instead of taking
    ``1 - survival``, which rounds away every digit below about 1e-16.  It
    integrates at :func:`survival`'s default tolerance; ``survival(...).ruin``
    takes another.
    """
    value = survival(model, x1, x2).ruin
    if value < -1e-9 or value > 1.0 + 1e-9:
        warnings.warn(
            f"ruin probability {value!r} outside [0, 1] beyond quadrature noise; clipping"
        )
    return min(max(value, 0.0), 1.0)
