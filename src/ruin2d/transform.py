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

import cmath
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


def _sqrt_principal(z):
    """Principal square root, cut along the negative half-line.

    Every branch-sensitive computation in the package funnels through here:
    ``cmath.sqrt`` for scalars, ``np.sqrt`` elementwise for arrays.
    """
    if isinstance(z, np.ndarray):
        return np.sqrt(z.astype(complex, copy=False))
    return cmath.sqrt(complex(z))


def _root_quadratic_parts(dc: DerivedConstants, q):
    """Coefficients of the monic-cleared quadratic behind the z-roots."""
    beta = dc.p2 * q + dc.p1 * (q + dc.gamma1)
    disc = beta * beta - 4.0 * dc.p1 * q * dc.p2 * (q + dc.gamma2)
    return beta, disc


def z_roots(model: RiskModel, q, dc: DerivedConstants | None = None) -> RootPair:
    """Roots of ``kappa_1(z + q) = q (p1 - p2)`` for complex or real ``q``.

    Real ``q`` outside the cut yields two real values with ``z1 <= z2``.  A
    complex array ``q`` gives elementwise roots of the same shape.
    """
    dc = dc or derive(model)
    beta, disc = _root_quadratic_parts(dc, q)
    if not (isinstance(q, complex) or np.iscomplexobj(q)) and disc >= 0.0:
        root = math.sqrt(disc)
    else:
        root = _sqrt_principal(disc)
    return RootPair((-beta - root) / (2 * dc.p1), (-beta + root) / (2 * dc.p1))


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
    Complex arrays ``p`` and ``q`` broadcast against each other.
    """
    dc = dc or derive(model)
    roots = z_roots(model, q, dc)
    val = (dc.mu + p + q) * (dc.p2 - dc.rho) / (p * dc.p1 * (roots.z1 - p) * roots.z2)
    if not any(isinstance(v, complex) or np.iscomplexobj(v) for v in (p, q)):
        return val.real if isinstance(val, complex) else val
    return val


# ---------------------------------------------------------------------------
# Numeric double inversion (Bromwich discretization with Euler summation).
# ---------------------------------------------------------------------------

def _euler_weights(m: int) -> np.ndarray:
    w = np.array([math.comb(m, k) for k in range(m + 1)], dtype=float)
    return w / 2.0 ** m


def _invert_real(fhat, t: float, m: int, a: float) -> float:
    """Invert at ``t`` a transform of a real-valued function.

    Alternating-series discretization of the Bromwich integral at abscissa
    ``a/(2t)`` with binomial (Euler) acceleration of the partial sums
    ``s_m .. s_2m``; conjugate symmetry halves the evaluations.  ``fhat`` is
    called once, on the vector of all ``2m + 1`` abscissas, so an ``fhat``
    that is itself an inversion (the outer sum of :func:`invert_2d`) can
    evaluate its whole grid in one call.
    """
    base = a / (2.0 * t)
    step = math.pi / t
    k = np.arange(2 * m + 1)
    values = fhat(base + 1j * k * step)
    seq = np.real(values) * (-1.0) ** k
    seq[0] *= 0.5
    partial = np.cumsum(seq)
    est = float(np.dot(_euler_weights(m), partial[m:]))
    return math.exp(a / 2.0) / t * est


def _invert_complex(fhat, t: float, m: int, a: float):
    """As :func:`_invert_real` but without conjugate symmetry, along the last axis.

    Needed for the inner inversion, whose target (a transform slice in the
    other variable) is complex-valued; sums ``k = -2m .. 2m`` symmetrically,
    adding the pair ``k = -n, n`` to the partial sum in order of ``n``.
    ``fhat`` maps the ``4m + 1`` abscissas to an array whose last axis runs
    over them; every leading index is inverted at once.
    """
    base = a / (2.0 * t)
    step = math.pi / t
    k = np.arange(-2 * m, 2 * m + 1)
    signed = fhat(base + 1j * k * step) * (-1.0) ** np.abs(k)
    center = 2 * m
    pairs = np.empty(signed.shape[:-1] + (center + 1,), dtype=complex)
    pairs[..., 0] = signed[..., center]
    pairs[..., 1:] = signed[..., :center][..., ::-1] + signed[..., center + 1:]
    partial = np.cumsum(pairs, axis=-1)
    return cmath.exp(a / 2.0) / (2.0 * t) * (partial[..., m:] @ _euler_weights(m))


def _invert_2d_once(model, dc, x1, x2, m):
    def inner(q_vec):
        return _invert_complex(
            lambda p_vec: psi_tilde(model, p_vec, q_vec[:, None], dc), x1, m, _A_INNER
        )

    return _invert_real(inner, x2, m, _A_OUTER)


def invert_2d(model: RiskModel, x1: float, x2: float, m: int = 25) -> float:
    """Numerically invert the double transform at ``(x1, x2)``, ``x2 > x1 > 0``.

    Nested one-dimensional inversions (inner in the first variable, outer in
    the second); the abscissas default to alias errors far below the 1e-3
    accuracy this cross-check targets.  Each estimate evaluates
    :func:`psi_tilde` once, on the ``(2m+1) x (4m+1)`` grid of outer
    abscissas ``q`` against inner abscissas ``p``, and reduces it with one
    cumulative sum and one Euler-weighted product per axis.  Emits
    :class:`ConvergenceWarning` when estimates at ``m`` and ``m + 5`` terms
    disagree by more than 1e-3.
    """
    if not (x2 > x1 > 0):
        raise DomainError("invert method needs upper-cone reserves x2 > x1 > 0")
    dc = derive(model)
    value = _invert_2d_once(model, dc, x1, x2, m)
    value_hi = _invert_2d_once(model, dc, x1, x2, m + 5)
    if abs(value - value_hi) > _CHECK_TOL:
        warnings.warn(
            f"double inversion at ({x1}, {x2}) moved by {abs(value - value_hi):.2e} "
            f"between m={m} and m={m + 5}",
            ConvergenceWarning,
        )
    return value
