"""Exception types raised across the package.

Everything inherits from :class:`SpaWitnessError` so callers can catch the
whole family with one clause.  Each concrete class names one rule and sits
under exactly one of two bases: :class:`InputError` for bad input and broken
preconditions, and :class:`NumericalError` for failures of the arithmetic
itself (eigensolver breakdown, lost realness, a trace that cannot be
normalized by).  The command line maps the two bases to different exit codes.
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
    """An eigensolver did not converge or produced an inconsistent result, a
    see-saw estimate did not converge within its sweeps, or a scan's
    closed-form spectra could not be certified (rows `certificate-failed`)."""


class NonRealResult(NumericalError):
    """A quantity that must be real carried too large an imaginary part, or a
    trace tr(a b) is not finite."""


class WeightSumError(InputError):
    """Ensemble weights are not a probability distribution."""


class NotADensity(InputError):
    """An operator failed density validation (unit trace, positivity)."""


class NotAWitness(InputError):
    """The operator is negative on a product state (c exceeds c_max)."""


class NotNegative(InputError):
    """The operator has no negative eigenvalue, so it detects nothing."""


class ZeroTrace(NumericalError):
    """A trace cannot be normalized by: at most 1e-12, nan, or beyond the
    float range (operators.check_trace)."""


class ParseError(InputError):
    """An operator file is malformed or cannot be written; message names the first fault."""


class InvalidParams(InputError):
    """A parameter or grid spec is outside its allowed range, or a call's
    precondition (a unit vector, an attached estimate) does not hold."""
