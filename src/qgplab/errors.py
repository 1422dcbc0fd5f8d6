"""Exception types shared across the package.

Every numerical failure mode that callers are expected to handle has its own
class so that the CLI can map them onto exit codes (config errors -> 2,
numerical errors -> 3) and tests can assert on the precise failure.
"""

from __future__ import annotations


class QgplabError(Exception):
    """Base class for all package errors."""


class NumericalError(QgplabError):
    """Base class for runtime numerical failures (CLI exit code 3)."""


class NotHermitianError(NumericalError):
    """Input matrix violates the Hermiticity tolerance."""


class NoConvergenceError(NumericalError):
    """Eigensolver iteration cap exceeded (pathological input)."""


class InvalidParamsError(QgplabError):
    """Model parameters outside the supported domain."""


class GapClosureError(NumericalError):
    """Spectral gap fell below the floor; adiabatic frame ill-defined."""


class TrackingAmbiguityError(NumericalError):
    """Level tracking lost continuity (grid too coarse)."""


class OutOfRangeError(QgplabError):
    """Level index outside the frame's levels."""


class UndefinedArgError(NumericalError):
    """Coupling gamma vanished where its phase is needed."""


class NotClosedError(NumericalError):
    """Loop quantities requested on a grid that is not a closed loop."""


class DegenerateCouplingError(NumericalError):
    """Reparametrization map is not invertible on the interval."""


class SingularPointError(NumericalError):
    """Sphere curve has (numerically) zero speed at the query point."""


class StepUnderflowError(NumericalError):
    """Adaptive stepper reached its minimum step or substep budget before tol."""


class GridMismatchError(QgplabError):
    """Two per-sample series live on different grids."""


class MatchingAmbiguityError(NumericalError):
    """Pairing of Pi eigenvalues to diagonal entries is ill-defined.

    Carries the margins of both candidate orderings so callers can inspect
    them instead of trusting a silent choice.
    """

    def __init__(self, message: str, sorted_margins=None, overlap_margins=None):
        super().__init__(message)
        self.sorted_margins = sorted_margins
        self.overlap_margins = overlap_margins


class DegenerateAError(QgplabError):
    """Closed-form fidelity parameter A vanished (K=1 and xi=0)."""


class InvariantViolationError(NumericalError):
    """A contract the operation promises to assert failed numerically."""


class ConfigError(QgplabError):
    """Malformed scenario configuration (CLI exit code 2)."""
