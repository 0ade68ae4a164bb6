"""Exception types shared across the package, and the rules that every
number given to qtf is checked against.

The split matters for the CLI exit-code contract: configuration and
argument problems map to exit 1, problems with the data being analyzed
map to exit 2.  Each rule, and its error message, is stated once here:

* ``require_real``: a real number in the float range;
* ``require_nonnegative`` and ``require_positive``: a real number that
  is finite and >= 0, or finite and > 0;
* ``real_from_text``: the one grammar of a number written as text, a
  radius row or a number flag.

The module imports no numpy, so a light subcommand can check its inputs
without loading it.
"""

from __future__ import annotations

import math
from numbers import Real


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


def is_real(value: object) -> bool:
    """Whether ``value`` is of a real-number type: a ``numbers.Real``
    that is not a bool, so an int, a float or a numpy integer or
    floating scalar, but not ``True``, ``np.bool_``, a string or a
    complex."""
    return isinstance(value, Real) and not isinstance(value, bool)


def require_real(name: str, value: object) -> float:
    """``value`` as a float; a ``DomainError`` naming ``name`` unless it is
    a real number (see ``is_real``) in the float range."""
    if not is_real(value):
        raise DomainError(f"{name} must be a number, got {value!r}", name)
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} is out of the float range, got {value!r}", name) from None


def require_nonnegative(name: str, value: object) -> float:
    """``value`` as a float; a ``DomainError`` unless it is a real number,
    finite and >= 0."""
    number = require_real(name, value)
    if not (math.isfinite(number) and number >= 0):
        raise DomainError(f"{name} must be finite and >= 0, got {value}", name)
    return number


def require_positive(name: str, value: object) -> float:
    """``value`` as a float; a ``DomainError`` unless it is a real number,
    finite and > 0."""
    number = require_real(name, value)
    if not (math.isfinite(number) and number > 0):
        raise DomainError(f"{name} must be finite and > 0, got {value}", name)
    return number


def real_from_text(text: str) -> float:
    """The number ``text`` spells: what ``float()`` reads from ASCII text
    without an underscore, so a decimal number (``12``, ``-1.5``,
    ``.5``, ``7.42e-3``) or a signed spelling of nan or inf.  Digit-group
    underscores (``1_000``) and non-ASCII digits (``١٢``), which
    ``float()`` also reads, raise ``ValueError``, as any other text does."""
    if text.isascii() and "_" not in text:
        return float(text)
    raise ValueError(f"could not convert string to float: {text!r}")
