"""Exception hierarchy for the dyadic weighted-inequality laboratory.

Every rejected input raises a subclass of :class:`WeightlabError`, so callers
(and the CLI) can distinguish usage problems from failed mathematical checks.
"""

from __future__ import annotations


class WeightlabError(Exception):
    """Base class for all errors raised by this package."""


class LevelOverflowError(WeightlabError):
    """A cube lies below the grid's finest level."""


class WrongLengthError(WeightlabError):
    """A per-cell vector does not have exactly 2**L entries."""


class DivergentMomentError(WeightlabError):
    """A requested moment of a weight does not exist (integral diverges)."""


class EpsilonOutOfRangeError(WeightlabError):
    """A self-improvement exponent increment lies outside the admissible range."""


class SubsetError(WeightlabError):
    """A cell set is not contained in the cube it must be a subset of."""


class SparsityViolationError(WeightlabError):
    """A constructed cube family violates the half-witness sparsity condition."""


class EmptyGoodSetError(WeightlabError):
    """The ambient set G carries zero weight measure, so no good subset exists."""


class ZeroFunctionError(WeightlabError):
    """The test function is identically zero where a nonzero one is required."""


class ConfigError(WeightlabError, ValueError):
    """Invalid run configuration (bad flag combination, malformed input file or
    an exponent outside its window); also a ``ValueError``."""
