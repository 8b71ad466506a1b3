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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceNotMet
from .model import DerivedConstants, RiskModel, derive
from .transform import ab

__all__ = ["SurvivalResult", "omega", "survival"]

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
    """The integrand of :func:`omega` at fixed reserves, in ``d = q_minus_end - q``.

    Every quantity that cancels next to the cut end comes from :func:`derive`:
    ``b = (p1 - p2)/(2 p1) sqrt(d (span - d))`` with
    ``span = q_minus_end - q_plus_end``, and the pole factor
    ``q + gamma2 = end_gap - d``.  ``f = mu + q + a`` and the damping
    exponent ``x1 a + x2 q`` are read from ``s = a + q``, which is
    ``((p1 - p2) q - (p1 mu - lam)) / (2 p1)``, a sum of two negative terms:
    ``f = mu + s`` and the exponent is ``x1 s + (x2 - x1) q``, whose terms,
    unlike ``x1 a`` and ``x2 q``, do not cancel.  Rounding can put
    ``d (span - d)`` at or below zero only at ``d = span``, where ``b`` is 0.
    """
    mu, p1, p2, hi, end_gap = dc.mu, dc.p1, dc.p2, dc.q_minus_end, dc.end_gap
    span, half_b = hi - dc.q_plus_end, (p1 - p2) / (2.0 * p1)
    s0, x21 = (p1 * mu - model.lam) / (2.0 * p1), x2 - x1
    exp, sin, cos, sqrt = math.exp, math.sin, math.cos, math.sqrt

    def integrand(d: float) -> float:
        q = hi - d
        s = half_b * q - s0
        w = d * (span - d)
        b = half_b * sqrt(w) if w > 0.0 else 0.0
        osc = (mu + s) * sin(b * x1) + b * cos(b * x1)
        return exp(x1 * s + x21 * q) * osc / (p2 * q * (end_gap - d))

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
    the integral.

    Adaptive Gauss-Kronrod panels over the distance ``d = q_minus_end - q``
    from the cut end, ``d`` in ``[0, span]`` (see :func:`_cut_integrand`):
    ``ceil(x1 b_max / pi)`` equal ones, since ``x1 b`` rises from 0 to
    ``x1 b_max`` and back, that many half-periods of ``sin(b x1)`` whatever
    the cut's length.  The integrand is finite at both ends because ``b``
    vanishes there, except on the regime seam ``rho = p2^2/p1``: there the
    pole ``-gamma2`` meets ``q_minus_end`` and the integrand grows like
    ``d^(-1/2)``, which is integrable.  Three lengths can be far below the
    first panel's width.  ``exp(x1 a + x2 q)`` decays away from ``d = 0``
    over ``1 / (x2 - x1 (p1 + p2) / (2 p1))``; the pole ``-gamma2`` sits
    ``-end_gap`` past the cut end and the pole ``q = 0`` sits
    ``-q_minus_end`` past it, and each makes a peak about that wide, which
    the 21-point Kronrod rule (outer nodes 2e-3 of a panel from its ends)
    misses below 1e-3 of the panel.  The first panel is split at
    ``d = scale 10^j``, ``j = 0, 1, ...``, while the edge stays inside it,
    with ``scale`` the shortest of those lengths (a pole's only when below
    1e-3 of the panel).  In ``d`` the edges next to the cut end are exact.
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
    span = hi - lo
    prefactor = (p2 - dc.rho) / math.pi
    # the denominator p2 q (q + gamma2) is smallest at the cut end nearest -gamma2
    denom_min = p2 * min(abs(lo) * abs(lo + dc.gamma2), abs(hi) * abs(dc.end_gap))
    if denom_min > 0.0:
        f_max = max(abs(end_lo.f), abs(end_hi.f))
        sup = math.exp(exponent) * ((f_max + dc.b_max) / denom_min)
        bound = abs(prefactor) * span * sup
        if bound < 0.1 * tol:
            return 0.0, bound
    # imported here so that a process that never integrates starts without scipy;
    # the ROADMAP's scipy-free cut integral on fixed nodes removes quad altogether
    from scipy.integrate import quad

    n_panels = max(1, min(math.ceil(x1 * dc.b_max / math.pi), _PANEL_BUDGET))
    edges = np.linspace(0.0, span, n_panels + 1)
    width = edges[1]
    # exp(x1 a + x2 q) decays at this rate away from d = 0
    rate = x2 - x1 * (p1 + p2) / (2.0 * p1)
    scale = 1.0 / rate if rate > 0.0 else math.inf
    # the poles -gamma2 and 0 sit these distances past the cut end
    for gap in (-dc.end_gap, -hi):
        if 0.0 < gap < 1e-3 * width:
            scale = min(scale, gap)
    graded = []
    while scale < width:
        graded.append(scale)
        scale *= 10.0
    edges = np.concatenate(([0.0], graded, edges[1:]))
    n_panels = len(edges) - 1
    total = 0.0
    err = 0.0
    integrand = _cut_integrand(model, dc, x1, x2)
    for left, right in zip(edges[:-1], edges[1:]):
        val, abserr = quad(
            integrand,
            left,
            right,
            epsabs=tol / (n_panels * max(1.0, abs(prefactor))),  # err * |prefactor| <= tol
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

