"""Exception types shared across the package, and the two bound rules
that most inputs are checked against.

The split matters for the CLI exit-code contract: configuration and
argument problems map to exit 1, problems with the data being analyzed
map to exit 2.  ``require_nonnegative`` and ``require_positive`` state
the finite-and-bounded rule, and its error message, in one place.
"""

from __future__ import annotations

import math


class QtfError(Exception):
    """Base class for all package errors."""


class DomainError(QtfError, ValueError):
    """An argument is outside the mathematical domain of an operation.

    ``name`` is the parameter the error is about (of two, the first its
    message names), or None; the CLI restates a message that has one in
    the keys and flags its caller wrote.
    """

    def __init__(self, message: str, name: str | None = None) -> None:
        super().__init__(message)
        self.name = name


class DataError(QtfError, ValueError):
    """Input data is unusable (undecodable, empty, or malformed)."""


def require_nonnegative(name: str, value: float) -> None:
    """Raise ``DomainError`` unless ``value`` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise DomainError(f"{name} must be finite and >= 0, got {value}", name)


def require_positive(name: str, value: float) -> None:
    """Raise ``DomainError`` unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and > 0, got {value}", name)
