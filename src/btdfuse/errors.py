"""Exception hierarchy shared by all btdfuse modules.

The CLI maps these onto process exit codes: UsageError -> 1, file/format
problems -> 2, NumericalError -> 3.
"""

__all__ = ["BtdFuseError", "FormatError", "NumericalError", "UndefinedMetricError", "UsageError"]


class BtdFuseError(Exception):
    """Base class for all btdfuse errors."""


class UsageError(BtdFuseError, ValueError):
    """Invalid arguments: bad dimensions, inconsistent options, broken preconditions."""


class FormatError(BtdFuseError, IOError):
    """A file exists but its contents do not match the expected format."""


class NumericalError(BtdFuseError, RuntimeError):
    """A computation failed numerically (singular system, non-finite objective, ...).

    May carry extra diagnostics, e.g. ``trace`` with the objective history
    recorded up to the failure.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class UndefinedMetricError(NumericalError):
    """A quality metric is undefined for the given inputs (e.g. constant band)."""
