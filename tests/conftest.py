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
def erlang2_model():
    """Two-stage Erlang claims with mean 1; p2 = 2, rho = 1."""
    claim = PhaseType(beta=[1.0, 0.0], B=[[-2.0, 2.0], [0.0, -2.0]])
    return RiskModel(lam=1.0, claim=claim, c1=3.0, c2=2.0)


def z_score(value: float, est) -> float:
    if est.std_error == 0.0:
        return 0.0 if value == est.mean else np.inf
    return (value - est.mean) / est.std_error


def march_rectangle(coeffs, n_r, n_w, dr, dw, top_values, left_values):
    """March on the rectangle with X given on the left edge ``i = 0``."""
    return pde._march(
        coeffs, n_r, n_w, dr, dw, top_values,
        start_index=lambda j: 0,
        start_values=np.asarray(left_values, dtype=float),
    )
