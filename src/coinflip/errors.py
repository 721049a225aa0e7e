"""Exception types shared across the package."""


class CoinFlipError(Exception):
    """Base class for all package errors."""


class ProbabilityMismatch(CoinFlipError):
    """Probabilities are negative or do not sum to one within tolerance."""


class DimensionMismatch(CoinFlipError):
    """Operands live in different Hilbert-space dimensions."""


class InvalidLabel(CoinFlipError):
    """A state/basis/commitment label is not defined for the given family."""


class ParallelStates(CoinFlipError):
    """The two states are (numerically) parallel; no unambiguous POVM exists."""


class OutOfRange(CoinFlipError, ValueError):
    """A numeric parameter lies outside its documented domain."""


class IncompatibleProtocol(CoinFlipError):
    """A strategy was requested for a protocol it does not apply to."""


class RestartBudgetExceeded(CoinFlipError):
    """Too many trials of an experiment hit the restart limit (> 0.1%)."""
