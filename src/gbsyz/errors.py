"""Exception types shared across the package.

Exit-code mapping for the CLI: UsageError and ParseError are caller
mistakes (exit 2), InternalError is a broken invariant on our side
(exit 3). Mathematical "no" answers are not errors.
"""


class UsageError(Exception):
    """The caller violated a precondition (bad ring, mixed ambients, ...)."""


class ParseError(UsageError):
    """Problem-file syntax or validation error, with source position."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class InternalError(Exception):
    """An invariant the library must maintain was observed broken."""


class PackedOverflow(InternalError):
    """A monomial left the packed exponent or position fields."""


class GuardExceeded(Exception):
    """An iteration guard tripped; carries the partial result."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial
