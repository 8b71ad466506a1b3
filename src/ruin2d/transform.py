"""Laplace-domain machinery for the joint survival probability.

For compound-Poisson claims with intensity ``lam`` and exponential sizes of
intensity ``mu``, the net process of company ``i`` has Laplace exponent

    kappa_i(theta) = p_i * theta - lam * theta / (mu + theta).

The double space transform of the survival probability factors through the two
roots ``z1(q) <= z2(q)`` of the quadratic ``kappa_1(z + q) = q (p1 - p2)``.
For real ``q`` inside the cut ``[q_plus_end, q_minus_end]`` the roots form a
conjugate pair ``a(q) -+ i b(q)``; that cut is what produces the oscillatory
integral evaluated by :mod:`ruin2d.closedform`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceWarning, DomainError
from .model import DerivedConstants, RiskModel, derive

__all__ = [
    "RootPair",
    "CutPoint",
    "z_roots",
    "ab",
    "psi_tilde",
    "invert_2d",
]

# Bromwich abscissas of the inner (p) and outer (q) inversions of invert_2d,
# and the m against m + 5 disagreement above which it warns
_A_INNER = 30.0
_A_OUTER = 18.4
_CHECK_TOL = 1e-3


@dataclass(frozen=True)
class RootPair:
    """The two branches ``z1`` (minus the square root) and ``z2`` (plus)."""

    z1: complex
    z2: complex


def z_roots(model: RiskModel, q, dc: DerivedConstants | None = None) -> RootPair:
    """Roots of ``kappa_1(z + q) = q (p1 - p2)`` for real or complex ``q``, elementwise.

    They solve ``p1 z^2 + beta z + p2 q (q + gamma2) = 0`` with
    ``beta = p2 q + p1 (q + gamma1)``.  ``z1`` is the minus branch
    ``(-beta - sqrt(disc)) / (2 p1)`` of the principal square root, ``z2`` the
    plus branch.  The branch that adds like signs, as
    ``Re(conj(beta) sqrt(disc)) >= 0`` tells, comes from that formula and the
    other from Vieta's ``p1 z1 z2 = p2 q (q + gamma2)``, so neither cancels
    (the plus branch's formula does as ``q -> 0``).  Real ``q`` off the cut
    yields real ``z1 <= z2``.  A scalar runs as a 1-element array, so that it
    rounds as the same element of a grid does.
    """
    dc = dc or derive(model)
    qa = np.atleast_1d(q)
    beta = dc.p2 * qa + dc.p1 * (qa + dc.gamma1)
    four_p1_prod = 4.0 * dc.p1 * qa * dc.p2 * (qa + dc.gamma2)  # 4 p1^2 z1 z2
    root = np.emath.sqrt(beta * beta - four_p1_prod)
    minus = (np.conj(beta) * root).real >= 0.0  # -beta - root adds like signs
    big = (beta + np.where(minus, root, -root)) / (-2.0 * dc.p1)
    small = four_p1_prod / (4.0 * dc.p1 * dc.p1 * big)
    shape = np.shape(q)
    return RootPair(np.where(minus, big, small).reshape(shape)[()],
                    np.where(minus, small, big).reshape(shape)[()])


class CutPoint(NamedTuple):
    a: float
    b: float
    f: float


def ab(model: RiskModel, q: float, dc: DerivedConstants | None = None) -> CutPoint:
    """Real and imaginary parts ``a(q)``, ``b(q)`` of ``z1`` on the cut.

    Also returns ``f(q) = mu + q + a(q)``.  ``b`` is
    ``(p1 - p2)/(2 p1) sqrt((q - q_plus_end)(q_minus_end - q))``, from the cut
    ends of :func:`ruin2d.model.derive`, so it vanishes at both of them.
    """
    dc = dc or derive(model)
    if not (dc.q_plus_end <= q <= dc.q_minus_end):
        raise DomainError(f"q={q} outside the cut [{dc.q_plus_end}, {dc.q_minus_end}]")
    mu, lam, p1, p2 = dc.mu, model.lam, dc.p1, dc.p2
    a = -(p1 * mu - lam + p2 * q + p1 * q) / (2.0 * p1)
    b = (p1 - p2) / (2.0 * p1) * math.sqrt((q - dc.q_plus_end) * (dc.q_minus_end - q))
    return CutPoint(a=a, b=b, f=mu + q + a)


def psi_tilde(model: RiskModel, p, q, dc: DerivedConstants | None = None):
    """Double Laplace transform of the survival probability, exponential claims.

    ``(mu + p + q)(p2 - rho) / (p p1 (z1(q) - p) z2(q))`` for ``Re p, Re q > 0``.
    Arrays ``p`` and ``q`` broadcast against each other; scalars give a numpy
    scalar, real where ``p`` and ``q`` are real.  Raises :class:`DomainError`
    where the value does not come out a finite double.
    """
    dc = dc or derive(model)
    shape = np.broadcast(p, q).shape
    p, q = np.atleast_1d(p, q)
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned of
        roots = z_roots(model, q, dc)
        val = (dc.mu + q + p) * ((dc.p2 - dc.rho) / (dc.p1 * roots.z2)) / ((roots.z1 - p) * p)
    if not np.isfinite(val).all():
        raise DomainError("psi_tilde(p, q) does not come out a finite double at these p and q")
    return val.reshape(shape)[()]


# ---------------------------------------------------------------------------
# Numeric double inversion (Bromwich discretization with Euler summation).
# ---------------------------------------------------------------------------

def _bromwich(t: float, m: int, a: float, k: np.ndarray):
    """Abscissas and Euler-summed weights of the Bromwich terms ``k`` at ``t``.

    The alternating series at abscissa ``a/(2t)`` (Abate & Whitt 1995) is
    averaged over its partial sums ``s_m .. s_2m`` with binomial weights.
    The average is linear, so term ``k`` weighs ``(-1)^k e^{a/2} / (2t)``
    times 1 up to ``|k| = m``, ``sum_{i >= |k| - m} C(m, i) / 2^m`` up to
    ``2m`` and 0 beyond, and the inversion is ``sum_k weight_k fhat(abscissa_k)``.
    """
    binom = np.array([math.comb(m, i) for i in range(m + 1)] + [0]) / 2.0 ** m
    tail = np.cumsum(binom[::-1])[::-1]  # tail[j] = sum_{i >= j} C(m, i) / 2^m
    n = np.abs(k)
    weights = tail[np.clip(n - m, 0, m + 1)] * (-1.0) ** n * (math.exp(a / 2.0) / (2.0 * t))
    return a / (2.0 * t) + 1j * math.pi / t * k, weights


def invert_2d(model: RiskModel, x1: float, x2: float, m: int = 25) -> float:
    """Numerically invert the double transform at ``(x1, x2)``, ``x2 > x1 > 0``.

    One grid ``Psi`` of :func:`psi_tilde` over the :func:`_bromwich` abscissas
    in ``p`` (at ``x1``) and ``q`` (at ``x2``), reduced to ``Re(w_q^T Psi w_p)``;
    the target is real, so ``q`` runs over ``k >= 0`` with ``k > 0`` counted
    twice.  The abscissas do not depend on ``m``: the grid is built for
    ``m + 5`` terms, ``(2m + 11) x (4m + 21)`` points, and the estimate at
    ``m + 5`` is a second pair of weights on it.  Emits
    :class:`ConvergenceWarning` when it and the estimate at ``m`` disagree by
    more than 1e-3, the accuracy this cross-check targets.
    """
    if not (x2 > x1 > 0):
        raise DomainError("invert method needs upper-cone reserves x2 > x1 > 0")
    kq, kp = np.arange(2 * m + 11), np.arange(-2 * m - 10, 2 * m + 11)
    q, wq_hi = _bromwich(x2, m + 5, _A_OUTER, kq)
    p, wp_hi = _bromwich(x1, m + 5, _A_INNER, kp)
    # the weights are real, and the row of q term k > 0 stands for -k as well
    grid = psi_tilde(model, p[None, :], q[:, None], derive(model)).real
    grid[1:] *= 2.0
    value = float(_bromwich(x2, m, _A_OUTER, kq)[1] @ grid @ _bromwich(x1, m, _A_INNER, kp)[1])
    value_hi = float(wq_hi @ grid @ wp_hi)
    if abs(value - value_hi) > _CHECK_TOL:
        warnings.warn(
            f"double inversion at ({x1}, {x2}) moved by {abs(value - value_hi):.2e} "
            f"between m={m} and m={m + 5}",
            ConvergenceWarning,
        )
    return value
