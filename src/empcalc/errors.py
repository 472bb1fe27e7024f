"""Exception hierarchy shared across the package.

Every error raised by this package derives from :class:`EmpcalcError`,
so callers can catch one type at the boundary.  Subclasses also inherit
from the closest builtin (ValueError or RuntimeError) to stay friendly
to generic handling code.
"""


class EmpcalcError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationError(EmpcalcError, ValueError):
    """A statistic function could not be evaluated on the given data."""


class ExpansionError(EmpcalcError, ValueError):
    """The delta method was applied outside its domain."""


class DegenerateSampleError(EmpcalcError, ValueError):
    """A sample, marginal, or variance carries no usable variation."""


class AffineDependenceError(EmpcalcError, ValueError):
    """One coordinate is (numerically) an affine function of the other.

    At |rho| = 1 the limiting variance of the sample correlation is zero
    and the normal asymptotics stated elsewhere in this package do not
    apply, so operations that rely on them refuse to proceed.
    """


class MomentError(EmpcalcError, ValueError):
    """A required moment does not exist or a moment set is inconsistent."""


class InputFormatError(EmpcalcError, ValueError):
    """An input file could not be parsed; the message carries the line."""


class SimulationError(EmpcalcError, RuntimeError):
    """A Monte Carlo experiment failed while executing a replicate."""
