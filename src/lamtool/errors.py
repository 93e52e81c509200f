"""Exception hierarchy shared by all lamtool modules.

Each class carries the CLI's exit-code contract: the ``exit_code`` a command
that raises it returns, and the ``label`` that starts its stderr line.
Usage and parse errors exit 1, precondition and domain errors exit 2,
resource caps exit 3 and under-enumeration exit 4.
"""


class LamtoolError(Exception):
    """Base class for all errors raised by lamtool."""

    label = "error"
    exit_code = 2


class UsageError(LamtoolError):
    """A command-line argument or environment setting is not usable."""

    label = "usage error"
    exit_code = 1


class MalformedInputError(LamtoolError, ValueError):
    """A token, letter or structural field is not well formed."""

    label = "precondition error"


class DomainError(LamtoolError, ValueError):
    """An argument is outside the mathematical domain of an operation."""

    label = "precondition error"


class PreconditionError(LamtoolError):
    """A documented precondition of an operation does not hold."""

    label = "precondition error"


class SizeCapExceeded(LamtoolError):
    """A word or table would need more int32 words than the size cap
    (``LAMTOOL_SIZE_CAP``); raised by ``config.check_size`` before allocating."""

    label = "size cap exceeded"
    exit_code = 3

    def __init__(self, message, attempted):
        super().__init__(message)
        self.attempted = attempted


class UnderEnumerationError(LamtoolError):
    """A count was requested beyond the enumerated depth of a language."""

    label = "under-enumeration"
    exit_code = 4


class InsufficientDataError(LamtoolError):
    """Not enough table entries to run an estimator or a scan."""

    label = "under-enumeration"
    exit_code = 4


class NotAnEigenletterError(DomainError):
    """The requested seed letter never returns to itself in first position."""


class ParseError(LamtoolError):
    """Input file rejected; carries 1-based line information."""

    label = "parse error"
    exit_code = 1

    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line
