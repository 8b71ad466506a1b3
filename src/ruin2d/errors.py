"""Exception hierarchy shared by all ruin2d modules: one class per outcome.

The command line maps :class:`UnsupportedClaimLaw` and :class:`DomainError`
to exit code 3 and :class:`ToleranceNotMet` to exit code 4.
"""


class Ruin2dError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedClaimLaw(Ruin2dError):
    """A method cannot serve the claim law, discount or point."""


class DomainError(Ruin2dError, ValueError):
    """An argument lies outside the function's domain; also a :class:`ValueError`."""


class ToleranceNotMet(Ruin2dError):
    """A numerical method missed its tolerance."""


class ConvergenceWarning(UserWarning):
    """Numerical inversion self-check disagreed beyond its tolerance."""
