"""Exception types shared across the toolkit."""

from __future__ import annotations


class AdagateError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AdagateError):
    """An input record or file could not be parsed."""


class ValidationError(AdagateError):
    """Parsed data violates a documented invariant."""


class DuplicateIdError(AdagateError):
    """A batch contained the same chunk id more than once."""

    def __init__(self, duplicates: list[str]):
        super().__init__(f"duplicate chunk ids in one batch: {', '.join(duplicates)}")


class UnknownNamespaceError(AdagateError):
    """A query addressed a namespace that was never populated."""


class SchemaError(AdagateError):
    """A results or snapshot file carries an unexpected schema tag."""


class TransportError(AdagateError):
    """A remote backend call failed; the message says how."""
