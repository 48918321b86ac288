"""Exception types raised across the package.

Everything inherits from :class:`SpaWitnessError` so callers can catch the
whole family with one clause.  Each concrete class sits under exactly one of
two bases: :class:`InputError` for bad input and broken preconditions, and
:class:`NumericalError` for failures of the arithmetic itself (eigensolver
breakdown, lost realness, a trace too small to normalize by).  The command
line maps the two bases to different exit codes.
"""


class SpaWitnessError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SpaWitnessError):
    """The input or a parameter is invalid; nothing was computed from it."""


class NumericalError(SpaWitnessError):
    """A computation on valid input broke down numerically."""


class DimensionMismatch(InputError):
    """Subsystem or matrix dimensions are inconsistent."""


class NotHermitian(InputError):
    """A matrix failed the Hermiticity check; message reports the worst entry."""


class ConvergenceFailure(NumericalError):
    """An eigensolver did not converge or produced an inconsistent result."""


class NonRealResult(NumericalError):
    """A quantity that must be real carried too large an imaginary part."""


class WeightSumError(InputError):
    """Ensemble weights are not a probability distribution."""


class NotADensity(InputError):
    """An operator failed density validation (unit trace, positivity)."""


class NotAWitness(InputError):
    """The requested construction cannot be an entanglement witness."""


class ExceedsCmax(InputError):
    """The offset c exceeds the estimated product-state infimum of sigma."""


class NotNegative(InputError):
    """The operator has no negative eigenvalue, so it detects nothing."""


class EstimateMissing(InputError):
    """An operation needed a cached c_max estimate that was never computed."""


class DifferentSigma(InputError):
    """Two witnesses do not share the same sigma and cannot be compared."""


class ZeroTrace(NumericalError):
    """Normalization by trace is impossible (trace vanishes)."""


class ParseError(InputError):
    """An operator file is malformed; message points at the first violation."""


class InvalidParams(InputError):
    """Family parameters are outside their allowed range."""


class InvalidGrid(InputError):
    """A scan grid specification could not be interpreted."""
