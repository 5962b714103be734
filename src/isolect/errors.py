"""Exception hierarchy for the isolect package."""

from __future__ import annotations


class IsolectError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(IsolectError, ValueError):
    """An argument is outside the mathematical domain of an operation.

    ``field``, when given, names the offending field below the object that
    was checked (``"lateral"``, ``"junctions[2].status"``), so that a
    document reader can point at it.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class InputError(IsolectError):
    """A file or document could not be ingested."""


class ParseError(InputError):
    """A document is malformed; ``location`` points at the offending element."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)


class ConsistencyError(IsolectError):
    """Two dendrograms disagree on their shared structure beyond tolerance.

    Carries the full comparison report in ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
