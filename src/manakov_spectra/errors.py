"""Exception types shared across the package.

Every numerical failure mode that callers may want to catch gets its own
class.  ``ConfigError`` covers bad user input (CLI flags, malformed potential
files); everything else derives from ``NumericalError`` and signals that a
computation could not be completed reliably.
"""

from __future__ import annotations


class ConfigError(Exception):
    """Invalid configuration: bad flags, malformed input files, bad windows."""


class NumericalError(Exception):
    """Base class for numerical failures that should never pass silently."""


class NonFiniteError(NumericalError):
    """A public operation produced a non-finite matrix or scalar."""


class RangeOverflowError(NumericalError):
    """Requested spectral parameter would overflow double precision (range-overflow)."""


class ContourThroughZeroError(NumericalError):
    """A winding-number contour passes too close to a zero (contour-through-zero)."""


class UndersampledContourError(NumericalError):
    """Phase steps along a contour exceed pi/2 (undersampled)."""


class RootResidualError(NumericalError):
    """Polynomial root residual exceeded its bound even after fallback."""


class SheetConflictError(NumericalError):
    """Sheet-count evidence is contradictory (e.g. flat trace difference but full-rank moments)."""
