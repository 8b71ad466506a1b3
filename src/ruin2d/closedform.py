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
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidReserve, ToleranceNotMet
from .model import DerivedConstants, RiskModel, derive
from .transform import _require_exponential, ab

__all__ = ["SurvivalResult", "omega", "survival", "ruin"]

# e^x underflows to subnormals around x = -745; beyond this the cut integral
# is exactly zero at double precision.
_LOG_TINY = -700.0
_PANEL_BUDGET = 10_000


@dataclass(frozen=True)
class SurvivalResult:
    value: float
    regime: str
    omega: float
    terms: dict = field(default_factory=dict)
    quadrature_error: float = 0.0
    saturated: bool = False


def _cut_exponent_max(model: RiskModel, dc: DerivedConstants, x1: float, x2: float) -> float:
    """Max over the cut of the damping exponent ``x1 a(q) + x2 q``.

    ``a`` is affine in ``q``, so the maximum sits at a cut endpoint; it is
    nonpositive whenever ``x2 >= x1``, which rules out overflow.
    """
    lo, hi = dc.q_plus_end, dc.q_minus_end
    return max(x1 * ab(model, lo, dc).a + x2 * lo, x1 * ab(model, hi, dc).a + x2 * hi)


def _omega_bound(model: RiskModel, dc: DerivedConstants, x1: float, x2: float) -> float:
    """Cheap upper bound on |omega|: sup of the integrand times the cut length.

    ``|f|`` is affine (endpoint max), ``q (p2 q + mu p2 - lam) = p2 q (q + gamma2)``
    is positive on the cut with its minimum at the endpoint nearest ``-gamma2``.
    """
    lo, hi = dc.q_plus_end, dc.q_minus_end
    span = hi - lo
    f_max = max(abs(ab(model, lo, dc).f), abs(ab(model, hi, dc).f))
    denom_min = dc.p2 * min(abs(lo) * abs(lo + dc.gamma2), abs(hi) * abs(hi + dc.gamma2))
    if denom_min <= 0.0:
        return math.inf
    sup = math.exp(_cut_exponent_max(model, dc, x1, x2))
    sup *= (f_max + _max_b(model, dc)) / denom_min
    return abs(dc.p2 - dc.rho) / math.pi * span * sup


def _max_b(model: RiskModel, dc: DerivedConstants) -> float:
    """Maximum of b over the cut (vertex of the radicand quadratic)."""
    mu, lam, p1, p2 = dc.mu, model.lam, dc.p1, dc.p2
    # radicand(q) = -(p1-p2)^2 q^2 + 2[2 p1 p2 (mu ...)] q ... expand once:
    # 4 p1 (p2 mu + p2 q - lam) q - (p1 mu - lam + (p1+p2) q)^2
    a2 = 4.0 * p1 * p2 - (p1 + p2) ** 2
    a1 = 4.0 * p1 * (p2 * mu - lam) - 2.0 * (p1 + p2) * (p1 * mu - lam)
    a0 = -((p1 * mu - lam) ** 2)
    # a2 = -(p1 - p2)^2, which rounds to zero once p1 and p2 agree to about 8 digits
    if not a2 < 0.0:
        raise ToleranceNotMet(
            f"p1 - p2 = {p1 - p2:.3g} is below the resolution of the cut integral's bound"
        )
    q_vertex = -a1 / (2.0 * a2)
    q_vertex = min(max(q_vertex, dc.q_plus_end), dc.q_minus_end)
    rad = a2 * q_vertex * q_vertex + a1 * q_vertex + a0
    return math.sqrt(max(rad, 0.0)) / (2.0 * p1)


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

    Returns ``(value, error_estimate)``.  Adaptive Gauss-Kronrod panels over
    ``[q_plus_end, q_minus_end]``; the interval is pre-split at the oscillation
    scale ``pi / (x1 * max b)`` since ``sin(b(q) x1)`` oscillates for large
    ``x1``.  The integrand is finite at the endpoints because ``b`` vanishes
    there.  The integrand is one closure per call, built by
    :func:`_cut_integrand`: it does the same operations as
    :func:`ruin2d.transform.ab`, so its values and the output are bit-identical
    to the ``ab``-based form.  Orientation note: the sign is fixed by the
    requirement that the assembled survival be continuous across the cone
    boundary; it is the opposite of the raw left-to-right endpoint integral.
    """
    _require_exponential(model)
    if not (x1 >= 0 and x2 >= 0):  # NaN fails both comparisons
        raise InvalidReserve("reserves must be nonnegative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    dc = dc or derive(model)
    lo, hi = dc.q_plus_end, dc.q_minus_end
    # Pole-freedom on the cut: both integrand poles (0 and -gamma2) lie to the
    # right of q_minus_end.  Guaranteed for valid models; refuse otherwise.
    if not hi < -dc.gamma2:
        raise ToleranceNotMet("cut endpoint ordering violated; refusing to integrate")

    if _cut_exponent_max(model, dc, x1, x2) < _LOG_TINY:
        return 0.0, 0.0
    bound = _omega_bound(model, dc, x1, x2)
    if bound < 0.1 * tol:
        return 0.0, bound
    # imported here so that a process that never integrates starts without scipy;
    # the fixed-node rule of ROADMAP direction 2 removes quad altogether
    from scipy.integrate import quad

    b_max = _max_b(model, dc)
    span = hi - lo
    n_panels = 1
    if x1 > 0 and b_max > 0:
        n_panels = int(math.ceil(span * x1 * b_max / math.pi))
        n_panels = max(1, min(n_panels, _PANEL_BUDGET))
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
    prefactor = (dc.p2 - dc.rho) / math.pi
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
    _require_exponential(model)
    if not (x1 >= 0 and x2 >= 0):  # NaN fails both comparisons
        raise InvalidReserve("reserves must be nonnegative")
    dc = derive(model)

    if x2 <= x1:
        term2 = -dc.C2 * math.exp(-dc.gamma2 * x2)
        return SurvivalResult(
            value=1.0 + term2,
            regime=dc.regime,
            omega=0.0,
            terms={"constant": 1.0, "company2": term2},
            quadrature_error=0.0,
        )

    om, om_err = omega(model, x1, x2, tol=tol, dc=dc)
    saturated = _cut_exponent_max(model, dc, x1, x2) < _LOG_TINY
    terms: dict[str, float] = {
        "constant": 1.0,
        "company1": -dc.C1 * math.exp(-dc.gamma1 * x1),
    }
    if dc.regime == "case2":
        terms["company2"] = -dc.C2 * math.exp(-dc.gamma2 * x2)
        terms["cross"] = (dc.p2 / dc.p1) * math.exp(-dc.gamma3 * x1 - dc.gamma2 * x2)
    value = sum(terms.values()) + om
    return SurvivalResult(
        value=value,
        regime=dc.regime,
        omega=om,
        terms=terms,
        quadrature_error=om_err,
        saturated=saturated,
    )


def ruin(model: RiskModel, x1: float, x2: float, tol: float = 1e-8) -> float:
    """Joint ruin probability ``1 - survival``; clipped to ``[0, 1]``."""
    value = 1.0 - survival(model, x1, x2, tol=tol).value
    if value < -1e-9 or value > 1.0 + 1e-9:
        warnings.warn(
            f"ruin probability {value!r} outside [0, 1] beyond quadrature noise; clipping"
        )
    return min(max(value, 0.0), 1.0)
