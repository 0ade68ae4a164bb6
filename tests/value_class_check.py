"""``value_class`` against ``dataclass(frozen=True)``, standard library only.

Run as ``python tests/value_class_check.py``: it prints one ``ok`` line
and exits 0 when every check holds, and fails with a traceback
otherwise.  It loads ``src/qtf/_value.py`` by path, not through the
``qtf`` package, whose ``__init__`` imports numpy, so it runs under any
Python >= 3.10, numpy or not.  ``tests/test_values.py`` runs it under
each ``python3.10``, ``python3.12`` and ``python3.13`` it finds.

The same class sources are made by both decorators, and the two classes
must agree on signature, ``repr``, ``==``, ``hash``, ``fields``,
``asdict``, ``replace``, ``__post_init__``, a call that does not bind,
and ``FrozenInstanceError``.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from dataclasses import FrozenInstanceError, asdict, dataclass, fields, replace
from pathlib import Path

VALUE_PY = Path(__file__).resolve().parents[1] / "src" / "qtf" / "_value.py"


def load_value_class():
    spec = importlib.util.spec_from_file_location("qtf_value", VALUE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.value_class


def classes(decorate) -> dict:
    """Each class source, made by ``decorate``, with a value for each of
    its fields."""

    @decorate
    class Empty:
        pass

    @decorate
    class Point:
        x: float
        y: float = 2.0

    @decorate
    class Checked:
        low: float
        high: float

        def __post_init__(self):
            if not self.low < self.high:
                raise ValueError("low must be below high")

        def width(self) -> float:
            return self.high - self.low

    @decorate
    class Nested:
        inner: object
        label: str = "n"

    return {Empty: (), Point: (1.0, -0.0), Checked: (1.0, 3.0), Nested: (Point(1.0), "m")}


def outcome(call) -> tuple[type, str] | None:
    """The type and message of the exception ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)
    return None


def check_pair(ours: type, ref: type, args: tuple, eq: bool) -> None:
    name = ours.__name__
    assert inspect.signature(ours) == inspect.signature(ref), name
    assert str(inspect.signature(ours)) == str(inspect.signature(ref)), name
    assert [(f.name, f.type, f.default) for f in fields(ours)] == [
        (f.name, f.type, f.default) for f in fields(ref)
    ], name

    a, b = ours(*args), ref(*args)
    assert repr(a) == repr(b), (repr(a), repr(b))
    names = [f.name for f in fields(ours)]
    assert repr(ours(**dict(zip(names, args)))) == repr(a), name
    assert repr(asdict(a)) == repr(asdict(b)), name
    assert repr(replace(a)) == repr(replace(b)), name
    if names:
        first = names[0]
        changed = {first: getattr(a, first)}
        assert repr(replace(a, **changed)) == repr(replace(b, **changed)), name

    if eq:
        assert a == ours(*args) and b == ref(*args), name
        assert not (a != ours(*args)), name
        assert hash(a) == hash(b) == hash(ours(*args)), name
        assert a.__eq__(object()) is b.__eq__(object()) is NotImplemented, name
        assert a != b and b != a, name
    else:
        assert ours.__eq__ is ref.__eq__ is object.__eq__, name
        assert ours.__hash__ is ref.__hash__ is object.__hash__, name

    # calls that do not bind raise the same type (the messages differ:
    # dataclass names __init__, value_class the class)
    bad = [lambda cls: cls(*args, 0), lambda cls: cls(*args, no_such_field=0)]
    if names:
        bad += [lambda cls: cls(), lambda cls: cls(*args, **{names[0]: args[0]})]
    for call in bad:
        got, want = outcome(lambda: call(ours)), outcome(lambda: call(ref))
        assert got is not None and want is not None and got[0] is want[0] is TypeError, name

    for value in (a, b):
        for field in names:
            got = outcome(lambda: setattr(value, field, 1))
            assert got == (FrozenInstanceError, f"cannot assign to field {field!r}"), got
            got = outcome(lambda: delattr(value, field))
            assert got == (FrozenInstanceError, f"cannot delete field {field!r}"), got
        got = outcome(lambda: setattr(value, "not_a_field", 1))
        assert got is not None and got[0] is FrozenInstanceError, got


def main() -> None:
    value_class = load_value_class()
    for eq in (True, False):
        ours = classes(value_class(eq=eq))
        ref = classes(dataclass(frozen=True, eq=eq))
        for (ours_cls, args), ref_cls in zip(ours.items(), ref):
            check_pair(ours_cls, ref_cls, args, eq)
        # __post_init__ runs, and its error passes through unchanged
        checked = [cls for cls in (*ours, *ref) if cls.__name__ == "Checked"]
        assert len({outcome(lambda: cls(3.0, 1.0)) for cls in checked}) == 1
        assert outcome(lambda: checked[0](3.0, 1.0))[0] is ValueError
        assert checked[0](1.0, 3.0).width() == 2.0
    print(f"ok: value_class matches dataclass(frozen=True) on Python {sys.version.split()[0]}")


if __name__ == "__main__":
    main()
