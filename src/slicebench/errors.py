"""Exception taxonomy shared across the package."""


class SliceBenchError(Exception):
    """Base class for all package errors."""


class DomainError(SliceBenchError):
    """Invalid domain parameters, or an operation applied to the wrong domain kind."""


class MembershipError(SliceBenchError):
    """A string is not a member of the domain it was used with."""


class ResourceCapError(SliceBenchError):
    """A documented size or work cap was exceeded."""


class FormatError(SliceBenchError):
    """A file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MatchProtocolError(SliceBenchError):
    """An algorithm player violated the referee protocol (e.g. re-queried a position)."""


class AdversaryInvalidError(SliceBenchError):
    """An adversary emitted an answer consistent with no domain member."""


class AdversaryExhaustedError(SliceBenchError):
    """An adversary strategy was driven past its validity horizon."""


class VerificationError(SliceBenchError):
    """A stored witness failed its re-check against the function."""
