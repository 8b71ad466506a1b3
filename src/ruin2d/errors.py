"""Exception hierarchy shared by all ruin2d modules."""


class Ruin2dError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedClaimLaw(Ruin2dError):
    """Operation requires a claim law it does not support."""


class DomainError(Ruin2dError):
    """Argument outside the mathematical domain of the function."""


class RootNotFound(Ruin2dError):
    """A root bracket failed; indicates an internal inconsistency."""


class NoRealRoot(Ruin2dError):
    """The characteristic equation has no real root for this argument."""


class SingularMatrix(Ruin2dError):
    """A matrix that must be invertible is singular."""


class ToleranceNotMet(Ruin2dError):
    """Adaptive quadrature exhausted its budget above the requested tolerance."""


class GridTooCoarse(Ruin2dError):
    """PDE grid refinement did not reach the requested tolerance."""


class OutOfFootprint(Ruin2dError):
    """Query point lies outside the solved grid footprint."""


class LowerCone(Ruin2dError):
    """Query point lies in the lower cone; use the one-dimensional formula."""


class InvalidReserve(Ruin2dError):
    """Initial reserves must be nonnegative."""


class ConvergenceWarning(UserWarning):
    """Numerical inversion self-check disagreed beyond its tolerance."""
