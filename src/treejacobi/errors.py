"""Exception types shared across the package."""


class TreeJacobiError(Exception):
    """Base class for all errors raised by treejacobi."""


class NonPositiveLambda(TreeJacobiError):
    """An off-diagonal coefficient is zero or negative."""


class CoefficientIndexError(TreeJacobiError, IndexError):
    """An explicit coefficient list was accessed beyond its length."""


class RecurrenceOverflow(TreeJacobiError, OverflowError):
    """A recurrence value left the floating-point range.

    Switch to exact mode or rescale the problem.
    """


class CoefficientOverflow(TreeJacobiError, OverflowError):
    """A coefficient does not fit in a float.

    Switch to exact mode, which evaluates coefficients as rationals.
    """


class PatchTooLarge(TreeJacobiError):
    """An operation would materialize more vertices than the entry budget allows."""


class KindMismatch(TreeJacobiError):
    """Two sparse functions live on different trees."""


class NotInSubtree(TreeJacobiError):
    """A vertex lies outside the subtree an operation is restricted to."""


class RealSpectralParameter(TreeJacobiError):
    """The operation requires a non-real spectral parameter."""


class DivergedSeries(TreeJacobiError):
    """A norm series diverged, so the requested deficiency-space object does not exist."""


class InconclusiveSeries(TreeJacobiError):
    """A series test ran out of terms without reaching a verdict."""


class ConvergenceFailure(TreeJacobiError):
    """An eigenvalue or root solve did not converge."""


class AmbiguousPrefix(TreeJacobiError):
    """A boundary-path prefix is too short to determine the relative position."""


class ExactModeUnavailable(TreeJacobiError):
    """The coefficient family cannot be evaluated in exact rational arithmetic."""
