"""Exception hierarchy shared by all modules.

Every mathematically meaningful failure gets its own class so callers (and
the command line driver) can name it precisely.
"""


class SkeinError(Exception):
    """Base class for all errors raised by this package."""


class ZeroFunction(SkeinError):
    """Series expansion of an identically-zero numerator was requested."""


class LimitDoesNotExist(SkeinError):
    """The numerator vanishes to lower order than the denominator (a pole)."""


class SizeMismatch(SkeinError):
    """Character evaluation requires |lambda| == |mu|."""


class BoundExceeded(SkeinError):
    """A character table larger than the configured bound was requested."""


class NonCoprime(SkeinError):
    """Torus parameters m and n must be coprime."""


class IntegralityViolation(SkeinError):
    """A quantity that must be an integer is not: a plethysm coefficient, or
    a twist exponent n k_mu / m whose mu has k_mu not divisible by m.

    This signals an internal bug, never an expected outcome on valid input.
    """


class IndexOutOfRange(SkeinError, ValueError):
    """Braid generator index outside 1..n-1: bad input, so also a ValueError."""
