"""Shared exception types.

Kept in one place so the CLI can map them onto exit codes without
importing half the package.
"""


class InfeasibleError(ValueError):
    """No parameter choice satisfies the requested constraints."""


class DegenerateFadingError(ValueError):
    """The fading law puts too much mass at zero for the requested outage level."""


class QuadratureError(ValueError):
    """Adaptive quadrature failed to reach the requested relative accuracy,
    or misses the mass of the law it integrates over."""


class ValidationFailure(RuntimeError):
    """A statistical validation run found deviations beyond tolerance."""
