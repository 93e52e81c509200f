"""Exception hierarchy shared by all lamtool modules.

The CLI maps these onto its exit-code contract: parse/usage errors exit 1,
precondition and domain errors exit 2, resource caps exit 3 and
under-enumeration exit 4.
"""


class LamtoolError(Exception):
    """Base class for all errors raised by lamtool."""


class UsageError(LamtoolError):
    """A command-line argument or environment setting is not usable."""


class MalformedInputError(LamtoolError, ValueError):
    """A token, letter or structural field is not well formed."""


class DomainError(LamtoolError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class PreconditionError(LamtoolError):
    """A documented precondition of an operation does not hold."""


class SizeCapExceeded(LamtoolError):
    """A word or table would need more int32 words than the size cap
    (``LAMTOOL_SIZE_CAP``); raised by ``config.check_size`` before allocating."""

    def __init__(self, message, attempted, cap):
        super().__init__(message)
        self.attempted = attempted
        self.cap = cap


class UnderEnumerationError(LamtoolError):
    """A count was requested beyond the enumerated depth of a language."""

    def __init__(self, message, achieved=None, required=None):
        super().__init__(message)
        self.achieved = achieved
        self.required = required


class InsufficientDataError(LamtoolError):
    """Not enough table entries to run an estimator or a scan."""


class NotAnEigenletterError(DomainError):
    """The requested seed letter never returns to itself in first position."""


class ParseError(LamtoolError):
    """Input file rejected; carries 1-based line information."""

    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line
