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
from .onedim import ruin_transform_exp

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


def march_triangle(coeffs, n, dr, dw, top_values):
    """Wavefront march on the triangle ``{0 <= j <= i <= n}``.

    ``top_values[i]`` prescribes ``A`` on row ``j = 0`` and ``X = 1`` holds on
    the oblique edge ``j = i``; nodes above the edge stay NaN.  Node ``(i, j)``
    of wavefront ``i + j = s`` sits at flat offset ``i (n + 1) + j = s + i n``,
    so the wavefront's interior is one strided slice of the flat arrays; its
    left neighbours are that slice shifted by ``-1`` and its upper neighbours
    by ``-(n + 1)``.  Wavefront ``s`` holds the rows ``j <= s // 2``.

    The cost is mostly fixed per wavefront: the top row ``X(i, 0)`` is a
    Python-float recurrence before the loop, and the interior's ufuncs take the
    factors as 0-d arrays, which numpy does not convert per call.  Every node
    keeps the reference march's bits.
    """
    factors = _step_factors(coeffs, dr, dw)
    ca_new, cx_new, ca_old, cx_old, xb_new, xa_new, xb_old, xa_old = factors
    det = ca_new * xb_new - cx_new * xa_new
    A = np.full((n + 1, n + 1), np.nan)
    X = np.full((n + 1, n + 1), np.nan)
    A[:, 0] = top_values
    np.fill_diagonal(X, 1.0)
    top = A[:, 0].tolist()
    x = [1.0]
    for i in range(1, n + 1):  # top row: A given, X from the horizontal update alone
        x.append((xb_old * x[-1] + xa_old * top[i - 1] + xa_new * top[i]) / xb_new)
    X[:, 0] = x
    # 0-d copies of the factors for the interior's ufuncs
    Ca_new, Cx_new, Ca_old, Cx_old, Xb_new, Xa_new, Xb_old, Xa_old, Det = (
        np.array(v) for v in (*factors, det)
    )
    Af, Xf = A.reshape(-1), X.reshape(-1)
    W = n + 1
    R1, R2, T1, T2 = np.empty((4, n + 1))
    mul, add, div = np.multiply, np.add, np.divide
    for s in range(2, 2 * n + 1):
        if s % 2 == 0:  # edge node (s/2, s/2): X = 1 given, A from the vertical update alone
            k = s // 2 * (n + 2)
            Af[k] = (ca_old * Af.item(k - 1) + cx_old * Xf.item(k - 1) + cx_new) / ca_new
        lo, hi = 1 if s <= n else s - n, (s - 1) // 2
        if hi < lo:
            continue
        # interior: solve the 2x2 pair on rows i = s - hi .. s - lo
        a, b, m = s + (s - hi) * n, s + (s - lo) * n + 1, hi - lo + 1
        r1, r2, t1, t2 = R1[:m], R2[:m], T1[:m], T2[:m]
        add(mul(Af[a - 1:b - 1:n], Ca_old, r1), mul(Xf[a - 1:b - 1:n], Cx_old, t1), r1)
        add(mul(Xf[a - W:b - W:n], Xb_old, r2), mul(Af[a - W:b - W:n], Xa_old, t1), r2)
        div(add(mul(r1, Xb_new, t1), mul(r2, Cx_new, t2), t1), Det, Af[a:b:n])
        div(add(mul(r2, Ca_new, t1), mul(r1, Xa_new, t2), t1), Det, Xf[a:b:n])
    return A, X


@dataclass(frozen=True)
class CharacteristicGrid:
    """Solved transform values on the triangular ``(r, w)`` grid.

    ``chi[i, j]`` approximates the ruin-time transform at
    ``(r, w) = (i dr, -j dw)``; valid entries have ``j <= i``.  ``chi_gap[k, l]``
    is the fine value minus the coarse one at the shared node ``(2k, 2l)``;
    :func:`evaluate` extrapolates with a third of it at every point.
    """

    model: RiskModel
    s: float
    n: int
    r_step: float
    w_step: float
    chi: np.ndarray
    xi: np.ndarray
    chi_gap: np.ndarray
    error_estimate: float

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
        """``e^{mu r - (lam + s) w} chi``, whose mixed derivative is ``-mu lam h``."""
        mu, lam = derive(self.model).mu, self.model.lam
        r = self.r_nodes[:, None]
        w = self.w_nodes[None, :]
        # in log space, so that h is finite wherever its value is; log 0 = -inf gives h = 0
        with np.errstate(divide="ignore", over="ignore"):
            return np.sign(self.chi) * np.exp(mu * r - (lam + self.s) * w + np.log(np.abs(self.chi)))


def _chi_system(model: RiskModel, s: float) -> GoursatCoefficients:
    mu = derive(model).mu
    return GoursatCoefficients(alpha=model.lam + s, beta=-model.lam, gamma=mu, delta=-mu)


def _solve_once(model: RiskModel, s: float, r_max: float, n: int):
    dr = r_max / n
    dw = (model.delta1 / model.c1) * dr
    top = ruin_transform_exp(model, np.arange(n + 1) * dr, s)
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

    Runs the march at ``steps`` and ``2 * steps`` and keeps the fine grid and
    the disagreement at shared nodes; the a-posteriori error estimate is its
    maximum divided by 3 (second-order Richardson).  Raises
    :class:`DomainError` for an ``s`` or ``r_max`` that is not finite, a
    negative ``s``, ``r_max <= 0``, ``steps < 2`` or a grid with a
    non-finite node, and
    :class:`ToleranceNotMet` when ``tol`` is given and not met.
    """
    if not 0 <= s < math.inf:  # NaN fails too
        raise DomainError("discount rate s must be finite and nonnegative")
    if not (steps >= 2 and 0 < r_max < math.inf):
        raise DomainError("need a finite positive r_max and at least 2 steps")
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned of
        chi_c, _, _, _ = _solve_once(model, s, r_max, steps)
        chi_f, xi_f, dr, dw = _solve_once(model, s, r_max, 2 * steps)
        gap = np.subtract(chi_f[::2, ::2], chi_c, out=chi_c)  # in place: no grid-sized temporaries
    # the nodes j > i are NaN: a grid is finite when it has as many finite values as valid nodes
    if any(np.count_nonzero(np.isfinite(a)) != len(a) * (len(a) + 1) // 2 for a in (chi_f, xi_f, gap)):
        raise DomainError(f"the march overflows double precision at r_max={r_max}, steps={steps}")
    err = max(float(np.nanmax(gap)), -float(np.nanmin(gap))) / 3.0
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
        chi_gap=gap,
        error_estimate=err,
    )


def to_grid_coords(model: RiskModel, u1: float, u2: float) -> tuple[float, float]:
    """Invert ``(u1, u2) = (delta1 r + c1 w, delta2 r + c2 w)``."""
    d = derive(model).d
    r = (model.c2 * u1 - model.c1 * u2) / d
    w = (-model.delta2 * u1 + model.delta1 * u2) / d
    return r, w


def _cubic(node, count: int, f: float, lo: int = 0) -> float:
    """Lagrange interpolant at ``f`` through the four of ``count`` nodes nearest ``f``.

    ``node(k)`` is the value at node ``k``.  The stencil starts no lower than
    node ``lo``; fewer than four nodes are all taken.
    """
    m = min(4, count)
    k0 = min(max(int(f) - 1, lo), count - m)
    total = 0.0
    for k in range(m):
        weight = 1.0
        for l in range(m):
            if l != k:
                weight *= (f - k0 - l) / (k - l)
        total += weight * node(k0 + k)
    return total


def _tensor_cubic(tri: np.ndarray, fi: float, fj: float) -> float:
    """Tensor cubic of the triangular ``tri`` at fractional index ``(fi, fj)``.

    Each of four columns is interpolated in ``w`` through its valid nodes
    ``[:i + 1]``, then the four values in ``r``.  Where the grid allows, the
    first column is 3 or later, so that each column has four nodes: a
    stencil on the shorter columns near the apex extrapolates far outside
    ``error_estimate``.
    """
    return _cubic(lambda i: _cubic(tri[i].item, i + 1, fj), len(tri), fi, lo=3)


def evaluate(grid: CharacteristicGrid, u1: float, u2: float) -> float:
    """The solved transform at raw reserves ``(u1, u2)``.

    Everywhere on the grid the value is the Richardson extrapolation
    ``(4 fine - coarse) / 3``: the tensor cubic of the fine grid plus a third
    of the tensor cubic of ``chi_gap``.  Its error, interpolation included,
    is far below ``error_estimate``, which bounds the fine grid's node error.
    Raises :class:`DomainError` below the cone boundary, beyond ``r_max`` or
    at a non-finite point.
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
    return _tensor_cubic(grid.chi, fi, fj) + _tensor_cubic(grid.chi_gap, fi / 2.0, fj / 2.0) / 3.0
