"""One set of methods shared by qtf's frozen value classes.

``@dataclass(frozen=True)`` writes the source of six methods for every
class it decorates and compiles it: about 0.85 ms per class (2 vCPUs,
Python 3.11), paid at every import of the class.  ``value_class``
has ``dataclass`` register the fields only (``init``, ``repr`` and
``eq`` off, which compiles nothing) and gives every class the same
methods, written once below: ``__init__``, ``__repr__``, ``__eq__`` and
``__hash__`` over the field tuple, and a ``__setattr__`` and
``__delattr__`` that raise ``FrozenInstanceError``.  Signature, repr,
equality, hashing and ``__post_init__`` behave as under
``dataclass(frozen=True)``, and ``dataclasses.fields``, ``asdict`` and
``replace`` accept the classes; ``tests/test_values.py`` checks each
class against the stdlib decorator.
"""

from __future__ import annotations

import inspect
import reprlib
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields


def value_class(cls=None, /, *, eq=True):
    """Make ``cls`` a frozen dataclass with the shared methods; with
    ``eq=False`` it keeps its own (or object's) ``__eq__`` and
    ``__hash__``.  Fields take a plain default or none."""

    def wrap(cls):
        cls = dataclass(cls, init=False, repr=False, eq=False)
        params = []
        for f in fields(cls):
            if f.default_factory is not MISSING or f.kw_only or not (
                f.init and f.repr and f.compare and f.hash is None
            ):
                raise TypeError(f"{cls.__name__}.{f.name}: value_class takes plain fields")
            default = inspect.Parameter.empty if f.default is MISSING else f.default
            params.append(inspect.Parameter(
                f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                default=default, annotation=f.type))
        cls.__signature__ = inspect.Signature(params, return_annotation=None)
        # field names in order, as the keys of a dict (an ordered set)
        cls._value_names = dict.fromkeys(p.name for p in params)
        cls._value_defaults = {p.name: p.default for p in params if p.default is not p.empty}
        methods = dict(_METHODS, **(_EQ_METHODS if eq else {}))
        for name, method in methods.items():
            if name in cls.__dict__:
                raise TypeError(f"{cls.__name__} defines {name}, which value_class sets")
            setattr(cls, name, method)
        return cls

    return wrap if cls is None else wrap(cls)


def _init(self, /, *args, **kwargs):
    cls = type(self)
    names = cls._value_names
    positional = dict(zip(names, args))
    values = {**cls._value_defaults, **positional, **kwargs}
    if (len(args) > len(names) or values.keys() != names.keys()
            or not positional.keys().isdisjoint(kwargs)):
        # the call does not bind; the signature says why
        try:
            cls.__signature__.bind(*args, **kwargs)
        except TypeError as exc:
            raise TypeError(f"{cls.__qualname__}() {exc}") from None
    for name in names:
        object.__setattr__(self, name, values[name])
    if hasattr(self, "__post_init__"):
        self.__post_init__()


def set_fields(obj, /, **values) -> None:
    """Set fields of the frozen ``obj``, from its ``__post_init__``: each
    value as the check of its field returned it, such as a float."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


@reprlib.recursive_repr()
def _repr(self):
    items = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._value_names)
    return f"{type(self).__qualname__}({items})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _key(self):
    return tuple([getattr(self, n) for n in self._value_names])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _key(self) == _key(other)
    return NotImplemented


def _hash(self):
    return hash(_key(self))


_METHODS = {"__init__": _init, "__repr__": _repr,
            "__setattr__": _setattr, "__delattr__": _delattr}
_EQ_METHODS = {"__eq__": _eq, "__hash__": _hash}
