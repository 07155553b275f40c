"""Exception types raised across the package.

Every error is a subclass of ErgochainError so callers can catch the
package's failures with a single except clause. The CLI maps these to
exit code 4 (numeric or model failure) and reserves exit code 2 for
argument errors.
"""

from __future__ import annotations


class ErgochainError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveSequence(ErgochainError):
    """A sequence value a_i or b_i is zero, negative, or not finite."""


class DegenerateTruncation(ErgochainError):
    """The retained mass of a truncated family is zero or not finite."""


class OutOfSupport(ErgochainError):
    """A state or index lies outside the family's support."""


class IndexOutOfRange(ErgochainError):
    """A sequence or statistic index, or a kernel's band offset, is outside
    its valid range."""


class BadScanProbability(ErgochainError):
    """The random-scan probability is not strictly inside (0, 1)."""


class StartNotInSupport(ErgochainError):
    """A requested start state is not a state of the kernel."""


class BadSeed(ErgochainError):
    """A random seed is not a nonnegative integer."""


class NotSymmetricKernel(ErgochainError):
    """An operation requiring a pi-symmetric kernel got a non-symmetric one,
    or a spectral gap was asked of a kernel that is not positive semidefinite."""


class BadZ(ErgochainError):
    """A drift base z is outside the admissible interval."""


class COutOfRange(ErgochainError):
    """A lift constant c is outside the admissible open interval."""


class TooFewSamples(ErgochainError):
    """Not enough data for the requested estimate."""


class UnknownFormat(ErgochainError):
    """An output format name is not recognized, or a spec's JSON is malformed."""


class EmptyReport(ErgochainError):
    """A report was requested for an empty collection of results."""
