"""qtf's value classes against the stdlib decorator they stand in for.

Each class made by ``qtf._value.value_class`` is compared with the class
``@dataclass(frozen=True)`` makes from the same source: the same fields,
defaults, ``__post_init__`` and other methods.  Signature, repr,
equality, hashing, the ``dataclasses`` helpers, argument errors and
frozenness must all agree.

``value_class_check.py`` makes the same comparison on classes of its
own with the standard library only; it runs here under this interpreter
and under each Python 3.10, 3.12 and 3.13 that it finds.  Those
interpreters also compile every source file, so that the syntax stays
within what ``requires-python >= 3.10`` admits.
"""

import copy
import glob
import inspect
import os
import shutil
import subprocess
import sys
from dataclasses import (
    FrozenInstanceError,
    asdict,
    dataclass,
    field,
    fields,
    is_dataclass,
    replace,
)
from pathlib import Path

import pytest

import qtf.constants
import qtf.montecarlo
import qtf.solvency
import qtf.thermo
import qtf.tracks
from qtf._value import value_class
from qtf.errors import DataError, DomainError
from qtf.montecarlo import AccrualConfig, Lognormal, SimConfig, Uniform, run_accrual
from qtf.solvency import ParticleSpec
from qtf.thermo import ThermoQuery, audit_against_paper, compute_budget
from qtf.tracks import (
    SolvencyReport,
    TrackDataset,
    parse_dataset,
    solvency_report,
)

# the classes that keep their own (or object's) __eq__ and __hash__
EQ_FALSE = (TrackDataset, SolvencyReport)


def _instances() -> list:
    dataset = parse_dataset("3.5\n1.0\n2.0\n", source_label="values")
    report = solvency_report(dataset)
    budget = compute_budget(ThermoQuery())
    accrual = AccrualConfig(10.0, 1.0, 2.0, 0.01, 20.0)
    return [
        ThermoQuery(),
        budget,
        audit_against_paper(budget)[0],
        ParticleSpec(6.644e-27, 8.01e-13),
        Lognormal(-5.0, 0.5),
        Uniform(1e-3, 2e-2),
        SimConfig(seed=7, n_tracks=10, distribution=Uniform(1e-3, 2e-2)),
        accrual,
        run_accrual(accrual),
        dataset,
        report.stats,
        report,
    ]


INSTANCES = _instances()
IDS = [type(obj).__name__ for obj in INSTANCES]

# what dataclass and value_class add to the class namespace
ADDED = {"__dict__", "__weakref__", "__signature__", "__match_args__", "__replace__",
         "__dataclass_fields__", "__dataclass_params__", "_value_names", "_value_defaults",
         "__init__", "__repr__", "__setattr__", "__delattr__"}


def reference(cls: type) -> type:
    """``cls`` as ``@dataclass(frozen=True)`` makes it from its source."""
    eq = cls not in EQ_FALSE
    added = ADDED | ({"__eq__", "__hash__"} if eq else set())
    namespace = {k: v for k, v in vars(cls).items() if k not in added}
    source = type(cls.__name__, (), {**namespace, "__qualname__": cls.__qualname__})
    return dataclass(frozen=True, eq=eq)(source)


def field_values(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@pytest.fixture(params=INSTANCES, ids=IDS)
def pair(request):
    """A value-class instance and the reference instance of equal fields."""
    obj = request.param
    return obj, reference(type(obj))(**field_values(obj))


def outcome(call) -> type | None:
    """The type of the exception ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return type(exc)
    return None


def test_every_value_class_is_covered():
    modules = (qtf.constants, qtf.thermo, qtf.solvency, qtf.montecarlo, qtf.tracks)
    classes = {
        value for module in modules for value in vars(module).values()
        if isinstance(value, type) and is_dataclass(value)
        and value.__module__ == module.__name__
    }
    assert classes == {type(obj) for obj in INSTANCES}
    assert len(INSTANCES) == 12


def test_signature(pair):
    obj, ref = pair
    assert inspect.signature(type(obj)) == inspect.signature(type(ref))
    assert str(inspect.signature(type(obj))) == str(inspect.signature(type(ref)))


def test_repr(pair):
    obj, ref = pair
    assert repr(obj) == repr(ref)


def test_positional_construction_equals_keyword(pair):
    obj, _ = pair
    made = type(obj)(*field_values(obj).values())
    assert repr(made) == repr(obj)


def test_dataclasses_helpers(pair):
    obj, ref = pair
    as_fields = [(f.name, f.type, f.default) for f in fields(obj)]
    assert as_fields == [(f.name, f.type, f.default) for f in fields(ref)]
    assert type(obj).__match_args__ == type(ref).__match_args__
    assert repr(asdict(obj)) == repr(asdict(ref))
    first = fields(obj)[0].name
    assert repr(replace(obj)) == repr(replace(ref))
    assert repr(replace(obj, **{first: getattr(obj, first)})) == repr(
        replace(ref, **{first: getattr(ref, first)})
    )


def test_equality_and_hash(pair):
    obj, ref = pair
    if type(obj) in EQ_FALSE:
        # both keep the class's own (or object's) methods
        assert type(obj).__eq__ is type(ref).__eq__
        assert type(obj).__hash__ is type(ref).__hash__
        return
    twin, ref_twin = type(obj)(**field_values(obj)), type(ref)(**field_values(ref))
    assert obj == twin and ref == ref_twin
    assert not (obj != twin or ref != ref_twin)
    assert hash(obj) == hash(ref) == hash(twin)
    # one field changed, past __post_init__
    other, ref_other = copy.copy(obj), copy.copy(ref)
    name = fields(obj)[-1].name
    for value in (other, ref_other):
        object.__setattr__(value, name, object())
    assert obj != other and ref != ref_other
    assert obj.__eq__(object()) is ref.__eq__(object()) is NotImplemented
    # a class with the same fields is not the same class
    assert obj != ref and ref != obj


def test_bad_calls_raise_the_same_type(pair):
    obj, ref = pair
    values = list(field_values(obj).values())
    first = fields(obj)[0].name
    calls = {
        "none": lambda cls: cls(),
        "first only": lambda cls: cls(values[0]),
        "extra positional": lambda cls: cls(*values, 0),
        "unknown keyword": lambda cls: cls(*values, no_such_field=0),
        "repeated": lambda cls: cls(*values, **{first: values[0]}),
    }
    for name, call in calls.items():
        got = outcome(lambda: call(type(obj)))
        assert got is outcome(lambda: call(type(ref))), name
        if name not in ("none", "first only"):
            assert got is TypeError, name


def test_frozen(pair):
    for value in pair:
        name = fields(value)[0].name
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 1)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        with pytest.raises(FrozenInstanceError):
            value.not_a_field = 1


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ThermoQuery(temperature=-1), DomainError),
        (lambda: ParticleSpec(0.0, 1.0), DomainError),
        (lambda: AccrualConfig(1.0, 1.0, 2.0, 0.1, 0.01), DomainError),
        (lambda: TrackDataset([1], [1e-3], "", 2, 0), DataError),
    ],
    ids=["ThermoQuery", "ParticleSpec", "AccrualConfig", "TrackDataset"],
)
def test_post_init_runs(call, error):
    with pytest.raises(error):
        call()


def test_post_init_sees_every_field_set():
    # TrackDataset's __post_init__ replaces the columns it was given
    ids = [1, 2]
    dataset = TrackDataset(ids, [1e-3, 2e-3], "", 2, 0)
    assert dataset.ids is not ids
    assert not dataset.ids.flags.writeable


def test_classes_without_equality_keep_their_own():
    dataset, report = INSTANCES[-3], INSTANCES[-1]
    # TrackDataset's own __eq__ compares the columns; it is not hashable
    assert dataset == TrackDataset(**field_values(dataset))
    assert TrackDataset.__hash__ is None
    # SolvencyReport's is object's
    assert report == report and report != copy.copy(report)
    assert hash(report) == object.__hash__(report)


@pytest.mark.parametrize("options", [{"default_factory": list}, {"repr": False},
                                     {"kw_only": True}, {"init": False, "default": 0}])
def test_fields_beyond_a_plain_default_are_refused(options):
    with pytest.raises(TypeError, match="plain fields"):
        @value_class
        class Odd:
            x: int = field(**options)


def test_a_method_of_its_own_is_refused():
    with pytest.raises(TypeError, match="defines __repr__"):
        @value_class
        class Odd:
            x: int

            def __repr__(self):
                return "odd"


VALUE_CLASS_CHECK = Path(__file__).with_name("value_class_check.py")


def _interpreter(version: str) -> str | None:
    """A ``python<version>`` that starts and reports that version: on
    PATH, or in pyenv's version directories, since a pyenv shim fails to
    start a version that is not selected."""
    pattern = os.path.expanduser(f"~/.pyenv/versions/{version}.*/bin/python3")
    for path in filter(None, [shutil.which(f"python{version}"), *sorted(glob.glob(pattern))]):
        try:
            proc = subprocess.run(
                [path, "-I", "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip() == version:
            return path
    return None


def _run_value_class_check(python: str) -> None:
    # -I ignores PYTHONDONTWRITEBYTECODE: -B keeps the loaded _value.py
    # from leaving bytecode in the source tree
    proc = subprocess.run(
        [python, "-I", "-B", str(VALUE_CLASS_CHECK)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok: value_class matches"), proc.stdout


def test_value_class_check_passes_here():
    _run_value_class_check(sys.executable)


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_value_class_check_passes_on_other_versions(version):
    python = _interpreter(version)
    if python is None:
        pytest.skip(f"no python{version} that starts, on PATH or in ~/.pyenv/versions")
    _run_value_class_check(python)


SOURCE_DIRS = [Path(__file__).resolve().parents[1] / d for d in ("src/qtf", "tests", "bench")]

# Compiles in memory, so no bytecode lands in the tree; -W error turns a
# SyntaxWarning (such as an invalid escape) into the error a later
# version makes of it.
COMPILE_SOURCES = """
import sys
from pathlib import Path
paths = sorted(p for root in sys.argv[1:] for p in Path(root).rglob("*.py"))
for path in paths:
    try:
        compile(path.read_bytes(), str(path), "exec", dont_inherit=True)
    except SyntaxError as exc:
        print(f"{path}:{exc.lineno}: {exc.msg}")
print(len(paths), "files")
"""


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_sources_compile_on_other_versions(version):
    python = _interpreter(version)
    if python is None:
        pytest.skip(f"no python{version} that starts, on PATH or in ~/.pyenv/versions")
    proc = subprocess.run(
        [python, "-I", "-W", "error", "-c", COMPILE_SOURCES, *map(str, SOURCE_DIRS)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    expected = sum(len(list(d.rglob("*.py"))) for d in SOURCE_DIRS)
    assert proc.stdout == f"{expected} files\n"
