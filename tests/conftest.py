import numpy as np
import pytest

from ruin2d import pde
from ruin2d.model import Exponential, PhaseType, RiskModel

# Canonical fixtures: P0 sits in the regime rho < p2^2/p1 ("case1"),
# P1 in the opposite regime ("case2").


@pytest.fixture(scope="session")
def p0():
    return RiskModel(lam=1.0, claim=Exponential(mu=1.0), c1=3.0, c2=2.0)


@pytest.fixture(scope="session")
def p1():
    return RiskModel(lam=2.0, claim=Exponential(mu=1.0), c1=5.0, c2=2.2)


@pytest.fixture(scope="session")
def nd():
    """Near-degenerate: p1 and p2 within 0.1% of each other and of rho."""
    return RiskModel(lam=1.0, claim=Exponential(mu=1.0), c1=1.002, c2=1.001)


@pytest.fixture(scope="session")
def erlang2_model():
    """Two-stage Erlang claims with mean 1; p2 = 2, rho = 1."""
    claim = PhaseType(beta=[1.0, 0.0], B=[[-2.0, 2.0], [0.0, -2.0]])
    return RiskModel(lam=1.0, claim=claim, c1=3.0, c2=2.0)


def z_score(value: float, est) -> float:
    if est.std_error == 0.0:
        return 0.0 if value == est.mean else np.inf
    return (value - est.mean) / est.std_error


def reference_march(coeffs, n_r, n_w, dr, dw, top_values, start_index, start_values):
    """Index-array wavefront march; row ``j`` starts at column ``start_index(j)``.

    ``top_values[i]`` prescribes ``A`` on row ``j = 0`` and ``start_values[j]``
    prescribes ``X`` where row ``j`` starts; nodes left of the start stay NaN.
    """
    ca_new, cx, ca_old, xb_new, xa, xb_old = pde._step_factors(coeffs, dr, dw)
    A = np.full((n_r + 1, n_w + 1), np.nan)
    X = np.full((n_r + 1, n_w + 1), np.nan)
    jj_all = np.arange(n_w + 1)
    starts = np.array([start_index(j) for j in jj_all])
    A[:, 0] = top_values
    X[starts, jj_all] = start_values
    det = ca_new * xb_new - cx * xa
    for s in range(1, n_r + n_w + 1):
        i = np.arange(max(0, s - n_w), min(n_r, s) + 1)
        j = s - i
        keep = (j <= n_w) & (i >= starts[j])
        i, j = i[keep], j[keep]
        if not i.size:
            continue
        on_start = i == starts[j]
        top = (j == 0) & ~on_start
        vert = on_start & (j > 0)
        vi, vj = i[vert], j[vert]
        if vi.size:
            A[vi, vj] = (
                ca_old * A[vi, vj - 1] + cx * X[vi, vj - 1] + cx * X[vi, vj]
            ) / ca_new
        ti = i[top]
        if ti.size:
            X[ti, 0] = (
                xb_old * X[ti - 1, 0] + xa * A[ti - 1, 0] + xa * A[ti, 0]
            ) / xb_new
        inner = ~on_start & (j > 0)
        pi, pj = i[inner], j[inner]
        if pi.size:
            r1 = ca_old * A[pi, pj - 1] + cx * X[pi, pj - 1]
            r2 = xb_old * X[pi - 1, pj] + xa * A[pi - 1, pj]
            A[pi, pj] = (r1 * xb_new + cx * r2) / det
            X[pi, pj] = (ca_new * r2 + xa * r1) / det
    return A, X


def triangle_reference(coeffs, n, dr, dw, top_values):
    """The triangle march that ``pde.march_triangle`` must match bit for bit."""
    return reference_march(coeffs, n, n, dr, dw, top_values, lambda j: j, np.ones(n + 1))


def march_rectangle(coeffs, n_r, n_w, dr, dw, top_values, left_values):
    """March on the rectangle with X given on the left edge ``i = 0``."""
    return reference_march(
        coeffs, n_r, n_w, dr, dw, top_values, lambda j: 0, np.asarray(left_values, dtype=float)
    )
