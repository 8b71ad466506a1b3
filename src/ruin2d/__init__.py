"""Joint ruin probabilities for two companies splitting claims and premia.

Layers: :mod:`ruin2d.model` (parameters and derived constants),
:mod:`ruin2d.onedim` (single-company formulas), :mod:`ruin2d.transform`
(Laplace-domain machinery and numeric inversion), :mod:`ruin2d.closedform`
(exact spectral representation), :mod:`ruin2d.mc` (simulation oracles),
:mod:`ruin2d.pde` (characteristic-grid transform solver) and
:mod:`ruin2d.cli` (command-line front end).
"""

from .closedform import SurvivalResult, survival
from .mc import MCEstimate, conditional_survival, ruin_time_lt, simulate_joint_ruin
from .model import (
    DerivedConstants,
    Exponential,
    PhaseType,
    RiskModel,
    derive,
    load_model,
    normalize,
    validate,
)

__all__ = [
    "RiskModel",
    "Exponential",
    "PhaseType",
    "DerivedConstants",
    "derive",
    "validate",
    "normalize",
    "load_model",
    "survival",
    "SurvivalResult",
    "MCEstimate",
    "simulate_joint_ruin",
    "conditional_survival",
    "ruin_time_lt",
]

__version__ = "0.1.0"
