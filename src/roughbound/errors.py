"""Domain-specific exceptions, one per failure mode the library can report.

Each maps to a distinct nonzero CLI exit code (see cli.EXIT_CODES).
"""


class RoughboundError(Exception):
    """Base class for all library errors."""


class ConfigError(RoughboundError):
    """Invalid configuration: coefficient signs, exponent ranges, unknown keys."""


class ScaleUnderflow(RoughboundError):
    """A scale index dropped below the extrapolation floor -2."""


class ScaleIndexError(RoughboundError, IndexError):
    """A smooth map was applied to a controlled path at the wrong scale index."""


class SingularLift(RoughboundError):
    """The cosh/sinh boundary system is numerically singular (defensive)."""


class CovarianceNotPD(RoughboundError):
    """The Toeplitz increment covariance is not positive definite (a Schur rotation failed)."""


class GridMismatch(RoughboundError):
    """Two objects were combined over incompatible time grids."""


class ChenViolation(RoughboundError):
    """An explicit second-order process violates Chen's relation."""


class ContractionFailure(RoughboundError):
    """Picard iteration failed to contract within the allowed halvings."""


class RegularityError(RoughboundError):
    """Young integration was requested for a driver with exponent <= 1/2."""


class DirichletRegularityError(ConfigError, RegularityError):
    """Dirichlet boundary noise requires Young regularity above 1 - 1/(2p).

    Both a configuration defect (the scale cannot be built) and a regularity
    defect (the Young integral is not defined), hence the double parentage;
    the CLI maps it to its own exit code.
    """


class AprioriBoundViolation(RoughboundError):
    """The no-blow-up monitor tripped during global concatenation."""


class IoError(RoughboundError):
    """A file operation failed; carries the offending path in args."""
