"""Domain-specific exceptions, one per failure mode the library can report.

Each class carries the distinct nonzero CLI exit code of its failure mode as
`exit_code`; a subclass's own code overrides its parents'.  `is_integer`
is the count check behind the ConfigError and GridMismatch of every module,
`check_positive` the magnitude check behind their ConfigErrors, and
`check_seed` the driver-seed check of the sampler and the multi-seed studies.
`read_only_view` is how the immutable value types store their arrays.
"""

import numbers

import numpy as np


def is_integer(x) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_positive(name: str, x) -> None:
    """ConfigError unless 0 < x < inf, so NaN and inf fail too."""
    if not 0 < x < float("inf"):
        raise ConfigError(f"{name} must be finite and positive, got {x}")


def check_seed(seed) -> None:
    """ConfigError unless the driver seed is an integer >= 0 (not a bool)."""
    if not (is_integer(seed) and seed >= 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")


def read_only_view(a) -> np.ndarray:
    """A read-only view of np.asarray(a, dtype=float).

    The caller's array keeps its own flags.  When it already is a float64
    array the view shares its memory, so a later write to it shows through.
    """
    view = np.asarray(a, dtype=float).view()
    view.setflags(write=False)
    return view


class RoughboundError(Exception):
    """Base class for all library errors."""
    exit_code = 1


class ConfigError(RoughboundError):
    """Invalid configuration: coefficient signs, exponent ranges, unknown keys."""
    exit_code = 2


class ScaleIndexError(RoughboundError, IndexError):
    """A smooth map was applied to a controlled path at the wrong scale index."""
    exit_code = 13


class SingularLift(RoughboundError):
    """The cosh/sinh boundary system is numerically singular (defensive)."""
    exit_code = 7


class CovarianceNotPD(RoughboundError):
    """The Toeplitz increment covariance is not positive definite (a Schur rotation failed)."""
    exit_code = 5


class GridMismatch(RoughboundError):
    """Two objects were combined over incompatible time grids."""
    exit_code = 3


class ChenViolation(RoughboundError):
    """An explicit second-order process violates Chen's relation."""
    exit_code = 4


class ContractionFailure(RoughboundError):
    """Picard iteration failed to contract within the allowed halvings."""
    exit_code = 8


class RegularityError(RoughboundError):
    """Young integration was requested for a driver with exponent <= 1/2."""
    exit_code = 10


class DirichletRegularityError(ConfigError, RegularityError):
    """Dirichlet boundary noise requires Young regularity above 3/4.

    Both a configuration defect (the scale cannot be built) and a regularity
    defect (the Young integral is not defined), hence the double parentage
    and an exit code of its own.
    """
    exit_code = 9


class AprioriBoundViolation(RoughboundError):
    """The no-blow-up monitor tripped during global concatenation."""
    exit_code = 12


class IoError(RoughboundError):
    """A file operation failed; carries the offending path in args."""
    exit_code = 11
