"""Characteristic-coordinate solver for the ruin-time transform.

In the coordinates ``(r, w)`` defined by ``(u1, u2) = (delta1 r + c1 w,
delta2 r + c2 w)`` the transformed pair ``chi = psi``, ``xi = phi`` satisfies
the constant-coefficient first-order system

    chi_w = (lam + s) chi - lam xi,        xi_r = mu (chi - xi),

on the triangle ``{r >= 0, -delta1 r / c1 <= w <= 0}`` (the upper cone in
reserve space).  ``chi`` is prescribed on ``w = 0`` (the cone boundary, where
the problem is one-dimensional) and ``xi = 1`` on the oblique edge
``w = -delta1 r / c1`` (company 1 at zero reserve while descending).

Choosing ``dw = (delta1/c1) dr`` puts the oblique edge exactly on grid nodes,
so the domain is the lower-triangular index set ``{j <= i}``, the only one
the march serves.  Both update formulas are trapezoidal (second order);
interior nodes couple one unknown of each family and are solved pairwise along
anti-diagonal wavefronts.  Each wavefront is read and written through basic
strided slices of the flat grid arrays, with no index arrays or masks, and the
march reproduces the bits of the index-array reference march in the tests,
which also runs the rectangle checks against the Bessel series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ToleranceNotMet
from .model import RiskModel, derive
from .onedim import ruin_transform_exp, theta_minus

__all__ = [
    "GoursatCoefficients",
    "CharacteristicGrid",
    "march_triangle",
    "solve",
    "evaluate",
]


@dataclass(frozen=True)
class GoursatCoefficients:
    """Linear system ``A_w = alpha A + beta X``, ``X_r = gamma A + delta X``."""

    alpha: float
    beta: float
    gamma: float
    delta: float


def _step_factors(coeffs: GoursatCoefficients, dr: float, dw: float):
    """Trapezoidal update factors; the w-step runs downward (negative)."""
    e = -dw / 2.0
    f = dr / 2.0
    return (
        1.0 - e * coeffs.alpha,   # multiplies the new A
        e * coeffs.beta,          # multiplies the new X (moved to the left side)
        1.0 + e * coeffs.alpha,   # multiplies the old A
        e * coeffs.beta,          # multiplies the old X
        1.0 - f * coeffs.delta,
        f * coeffs.gamma,
        1.0 + f * coeffs.delta,
        f * coeffs.gamma,
    )


def _axpby(a, x, b, y, out, tmp):
    """``a x + b y`` into ``out`` (``tmp`` is scratch), rounded as ``(a x) + (b y)``."""
    return np.add(np.multiply(x, a, out=out), np.multiply(y, b, out=tmp), out=out)


def march_triangle(coeffs, n, dr, dw, top_values):
    """Wavefront march on the triangle ``{0 <= j <= i <= n}``.

    ``top_values[i]`` prescribes ``A`` on row ``j = 0`` and ``X = 1`` holds on
    the oblique edge ``j = i``; nodes above the edge stay NaN.  Node ``(i, j)``
    of wavefront ``i + j = s`` sits at flat offset ``i (n + 1) + j = s + i n``,
    so the wavefront's interior is one strided slice of the flat arrays; its
    left neighbours are that slice shifted by ``-1`` and its upper neighbours
    by ``-(n + 1)``.  Wavefront ``s`` holds the rows ``j <= s // 2``.
    """
    ca_new, cx_new, ca_old, cx_old, xb_new, xa_new, xb_old, xa_old = _step_factors(
        coeffs, dr, dw
    )
    A = np.full((n + 1, n + 1), np.nan)
    X = np.full((n + 1, n + 1), np.nan)
    A[:, 0] = top_values
    np.fill_diagonal(X, 1.0)
    det = ca_new * xb_new - cx_new * xa_new
    Af, Xf = A.reshape(-1), X.reshape(-1)
    W = n + 1
    buffers = np.empty((4, n + 1))
    for s in range(1, 2 * n + 1):
        lo, hi = max(0, s - n), s // 2
        if s % 2 == 0:  # edge node (s/2, s/2): X given, A from the vertical update alone
            k = hi * (n + 2)
            Af[k] = (ca_old * Af[k - 1] + cx_old * Xf[k - 1] + cx_new * Xf[k]) / ca_new
            hi -= 1
        if lo == 0:  # top row: A given, X from the horizontal update alone
            k = s * W
            Xf[k] = (xb_old * Xf[k - W] + xa_old * Af[k - W] + xa_new * Af[k]) / xb_new
            lo = 1
        if hi < lo:
            continue
        # interior: solve the 2x2 pair on rows i = s - hi .. s - lo
        a, b, m = s + (s - hi) * n, s + (s - lo) * n + 1, hi - lo + 1
        here, left, up = slice(a, b, n), slice(a - 1, b - 1, n), slice(a - W, b - W, n)
        r1, r2, t1, t2 = buffers[:, :m]
        _axpby(ca_old, Af[left], cx_old, Xf[left], r1, t1)
        _axpby(xb_old, Xf[up], xa_old, Af[up], r2, t1)
        np.divide(_axpby(xb_new, r1, cx_new, r2, t1, t2), det, out=Af[here])
        np.divide(_axpby(ca_new, r2, xa_new, r1, t2, t1), det, out=Xf[here])
    return A, X


@dataclass(frozen=True)
class CharacteristicGrid:
    """Solved transform values on the triangular ``(r, w)`` grid.

    ``chi[i, j]`` approximates the ruin-time transform at
    ``(r, w) = (i dr, -j dw)``; valid entries have ``j <= i``.
    """

    model: RiskModel
    s: float
    n: int
    r_step: float
    w_step: float
    chi: np.ndarray
    xi: np.ndarray
    error_estimate: Optional[float]

    @property
    def r_max(self) -> float:
        return self.n * self.r_step

    @property
    def r_nodes(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.r_step

    @property
    def w_nodes(self) -> np.ndarray:
        return -np.arange(self.n + 1) * self.w_step

    @property
    def h(self) -> np.ndarray:
        """Exponentially rescaled field whose mixed derivative is ``-mu lam h``."""
        mu, lam = derive(self.model).mu, self.model.lam
        r = self.r_nodes[:, None]
        w = self.w_nodes[None, :]
        return np.exp(mu * r) * np.exp(-(lam + self.s) * w) * self.chi


def _chi_system(model: RiskModel, s: float) -> GoursatCoefficients:
    mu = derive(model).mu
    return GoursatCoefficients(alpha=model.lam + s, beta=-model.lam, gamma=mu, delta=-mu)


def _boundary_row(model: RiskModel, s: float, r: np.ndarray) -> np.ndarray:
    """Cone-boundary datum: the discounted one-dimensional transform.

    At ``s = 0`` this is ``C2 exp(-gamma2 r)``; for ``s > 0`` the discounted
    analogue is used so the datum stays consistent with the ruin-time law on
    the boundary.  The root ``theta_minus(s)`` is solved once for the row, and
    each node evaluates :func:`ruin_transform_exp`'s expression with the same bits.
    """
    factor = ruin_transform_exp(model, 0.0, s)  # (mu + theta) / mu, with its checks
    theta = theta_minus(model, s)
    return np.array([factor * math.exp(theta * rr) for rr in r.tolist()])


def _solve_once(model: RiskModel, s: float, r_max: float, n: int):
    dr = r_max / n
    dw = (model.delta1 / model.c1) * dr
    top = _boundary_row(model, s, np.arange(n + 1) * dr)
    chi, xi = march_triangle(_chi_system(model, s), n, dr, dw, top)
    return chi, xi, dr, dw


def solve(
    model: RiskModel,
    s: float = 0.0,
    r_max: float = 10.0,
    steps: int = 600,
    tol: Optional[float] = None,
) -> CharacteristicGrid:
    """Solve the transform system on ``{r <= r_max}`` with ``steps`` columns.

    Runs the march at ``steps`` and ``2 * steps`` and keeps the fine grid; the
    a-posteriori error estimate is the maximum disagreement at shared nodes
    divided by 3 (second-order Richardson).  Raises :class:`DomainError` for
    an ``s`` or ``r_max`` that is not finite, a negative ``s``, ``r_max <= 0``
    or ``steps < 2``, and :class:`ToleranceNotMet` when ``tol`` is given and
    not met.
    """
    if not 0 <= s < math.inf:  # NaN fails too
        raise DomainError("discount rate s must be finite and nonnegative")
    if not (steps >= 2 and 0 < r_max < math.inf):
        raise DomainError("need a finite positive r_max and at least 2 steps")
    chi_c, _, _, _ = _solve_once(model, s, r_max, steps)
    chi_f, xi_f, dr, dw = _solve_once(model, s, r_max, 2 * steps)
    shared_fine = chi_f[::2, ::2]
    diff = np.abs(shared_fine - chi_c)
    err = float(np.nanmax(diff)) / 3.0
    if tol is not None and err > tol:
        raise ToleranceNotMet(f"step-halving estimate {err:.2e} exceeds tol {tol:.2e}")
    return CharacteristicGrid(
        model=model,
        s=s,
        n=2 * steps,
        r_step=dr,
        w_step=dw,
        chi=chi_f,
        xi=xi_f,
        error_estimate=err,
    )


def to_grid_coords(model: RiskModel, u1: float, u2: float) -> tuple[float, float]:
    """Invert ``(u1, u2) = (delta1 r + c1 w, delta2 r + c2 w)``."""
    d = derive(model).d
    r = (model.c2 * u1 - model.c1 * u2) / d
    w = (-model.delta2 * u1 + model.delta1 * u2) / d
    return r, w


def evaluate(grid: CharacteristicGrid, u1: float, u2: float) -> float:
    """Interpolate the solved transform at raw reserves ``(u1, u2)``.

    Bilinear in ``(r, w)`` on full cells; barycentric on the half cells along
    the oblique edge.  Raises :class:`DomainError` below the cone boundary,
    beyond ``r_max`` or at a non-finite point.
    """
    model = grid.model
    r, w = to_grid_coords(model, u1, u2)
    if not (math.isfinite(r) and math.isfinite(w)):
        raise DomainError(f"(r, w) = ({r}, {w}) is not a finite point")
    tol = 1e-12 * max(1.0, abs(r))
    if w > tol:
        raise DomainError("point below the cone boundary; use the one-dimensional formula")
    if r < -tol or r > grid.r_max + tol:
        raise DomainError(f"r={r} outside [0, {grid.r_max}]")
    fi = min(max(r / grid.r_step, 0.0), float(grid.n))
    fj = min(max(-w / grid.w_step, 0.0), fi)
    i = min(int(fi), grid.n - 1)
    j = min(int(fj), grid.n - 1)
    si, sj = fi - i, fj - j
    chi = grid.chi
    if j < i:
        c00, c10 = chi[i, j], chi[i + 1, j]
        c01, c11 = chi[i, j + 1], chi[i + 1, j + 1]
        return float(
            (1 - si) * (1 - sj) * c00 + si * (1 - sj) * c10
            + (1 - si) * sj * c01 + si * sj * c11
        )
    # diagonal half cell: vertices (i,i), (i+1,i), (i+1,i+1)
    lam1 = 1.0 - si          # weight of (i, i)
    lam3 = sj                # weight of (i+1, i+1)
    lam2 = 1.0 - lam1 - lam3
    return float(lam1 * chi[i, i] + lam2 * chi[i + 1, i] + lam3 * chi[i + 1, i + 1])
