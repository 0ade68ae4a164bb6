"""The exit-code contract as a property over generated inputs.

``qtf.cli.main`` runs in process on drawn ``simulate`` configs, radius
files and ``budget`` flags.  Whatever the input, a call exits 0, 1 or 2,
or 130 when it is interrupted; an error leaves stdout empty and writes one ``qtf: error:`` (exit 1) or
``qtf: data error:`` (exit 2) line, and a line that states a bound rule
(``X must be finite and > 0, got V``) never names a V that meets it,
and names as X an input the caller wrote: a flag of the call or a key of
its config, dotted when nested; a success writes nothing to stderr
and no ``Infinity`` or ``NaN`` into its JSON; and a second call gives
the same bytes.

Flag values are float literals, negative ones in every spelling
included, or values argparse cannot parse (``abc``, the empty string,
``1,5``, ``1`` newline ``5``, ``--``, or a ``-x`` that, as an argv
element of its own, argparse takes for an option), given as
``--flag=value`` or as ``--flag value``: a usage error is one
``qtf: error:`` line like any other exit-1 error.

The inputs stay small so the whole module runs in a few seconds: at most
300 tracks, and accrual and sweep configs of at most 2e5 steps that run.
"""

import contextlib
import io
import json
import math
import re
import sys
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qtf.cli
from qtf.cli import main

# Values the contract must survive in any config field, the mode
# included: the edges of the float range, integers past it, and every
# JSON type that is not a number.
FAULTS = [
    0,
    -0.0,
    5e-324,
    1e-320,
    1e308,
    sys.float_info.max,
    10**400,
    -(10**400),
    True,
    False,
    "2.0",
    None,
    math.nan,
    math.inf,
    "bogus",
    "sweep",
    [1.0],
    {},
]

CONTRACT = settings(
    derandomize=True,
    deadline=timedelta(seconds=5),
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)

DISTRIBUTIONS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("lognormal"), "mean_m": st.sampled_from([7.42e-3, 1.0]),
         "sd_m": st.sampled_from([5.05e-3, 1.0])}
    ),
    st.fixed_dictionaries(
        {"kind": st.just("lognormal"), "mu": st.sampled_from([-5.0, 0.0, 1.0]),
         "sigma": st.sampled_from([0.0, 0.5, 2.0])}
    ),
    st.fixed_dictionaries(
        {"kind": st.just("uniform"), "lo_m": st.sampled_from([1e-4, 1e-3]),
         "hi_m": st.sampled_from([2e-3, 1.0])}
    ),
)

TRACK_FIELDS = st.fixed_dictionaries(
    {
        "seed": st.sampled_from([0, 42, -7, 2**64]),
        "n_tracks": st.sampled_from([1, 5, 228, 228.0, 300]),
        "distribution": DISTRIBUTIONS,
    },
    optional={
        "particle": st.none()
        | st.fixed_dictionaries(
            {
                "mass_kg": st.sampled_from([6.64e-27, 1.0]),
                "kinetic_energy_j": st.sampled_from([8.01e-13, 1.0]),
            }
        ),
        "momentum_source": st.sampled_from(["paper", "derived"]),
        "floor_n": st.sampled_from([1e12, 0.0, 1.0, 1e30]),
    },
)

# Ordinary values give at most 500/0.01 = 5e4 steps a run.
ACCRUAL_FIELDS = {
    "initial_budget_j": st.sampled_from([0.0, 1.0, 10.0, 1e3]),
    "cost_rate_w": st.sampled_from([0.0, 1.0, 2.0, 1e6]),
    "time_step_s": st.sampled_from([0.01, 0.1, 1.0]),
    "max_time_s": st.sampled_from([0.1, 1.0, 20.0, 500.0]),
}
RATE = st.sampled_from([0.0, 0.5, 1.0, 2.0])

FIELDS = {
    "tracks": TRACK_FIELDS,
    "censor": TRACK_FIELDS,
    "accrual": st.fixed_dictionaries({**ACCRUAL_FIELDS, "budget_rate_w": RATE}),
    "sweep": st.fixed_dictionaries(
        {**ACCRUAL_FIELDS, "budget_rates_w": st.lists(RATE, max_size=4)}
    ),
}


def _paths(node, prefix=()):
    """The path of every value inside ``node``, a nested config."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from _paths(value, (*prefix, key))


def _steps_that_run(config: dict) -> float:
    """An upper bound on the accrual steps a config of this shape runs if
    it is valid; 0 when its time keys cannot be read as numbers."""
    try:
        step, horizon = float(config["time_step_s"]), float(config["max_time_s"])
    except (KeyError, TypeError, ValueError, OverflowError):
        return 0
    if not step > 0:
        return 0
    rates = config.get("budget_rates_w")
    runs = len(rates) if isinstance(rates, list) else 1
    return runs * horizon / step


@st.composite
def _configs(draw) -> bytes:
    """A valid config of one mode with up to two faults: a value swapped
    for one of ``FAULTS``, a key dropped, or a key added."""
    mode = draw(st.sampled_from(sorted(FIELDS)))
    config = {"mode": mode, **draw(FIELDS[mode])}
    for _ in range(draw(st.integers(0, 2))):
        *parents, key = draw(st.sampled_from(list(_paths(config))))
        node = config
        for parent in parents:
            node = node[parent]
        fault = draw(st.sampled_from(["value", "drop", "add"]))
        if fault == "value":
            node[key] = draw(st.sampled_from(FAULTS))
        elif fault == "drop":
            del node[key]
        elif isinstance(node, dict):
            extra = draw(st.sampled_from(["workers", "budget_rate_w", "budget_rates_w"]))
            node[extra] = 1
    # at most 2e5 steps that run; the step cap rejects more than 1e8 at once
    if 2e5 < _steps_that_run(config) <= 1.01e8:
        config["max_time_s"] = config["time_step_s"]
    return json.dumps(config).encode()


RAW_CONFIGS = st.sampled_from(
    [b"", b"[]", b"3", b"{", b"{}", b"\xff", b'"mode"', b'{"mode": "sweep", "mode": 1}',
     b"\xef\xbb\xbf{}", b"[" * 5000]
)

RADIUS_TOKENS = st.sampled_from(
    ["1.5", "7.42", "0", "-3", "abc", "nan", "inf", "-inf", "1e308", "5e-324", "1e-320",
     "", " 2.0 ", "radius_mm", "1,2", "\t3", "1e400", "0x10", "\ufeff1.0"]
)

FLAG_VALUES = st.sampled_from(
    ["0", "-0.0", "5e-324", "1e-320", "1e308", "1.7976931348623157e308", "inf",
     "-inf", "nan", "-nan", "1", "300", "1e3", "-3", "-1e3", "-2.5E-3", "0.5",
     "1e-30", "4.2e14",
     # usage errors: see the module docstring
     "abc", "", "1,5", "1\n5", " ", "0x10", "-x", "--"]
)


def _flag(flag: str, value: str, joined: bool) -> list[str]:
    return [f"{flag}={value}"] if joined else [flag, value]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name: str):
    raise AssertionError(f"report holds {name}")


BOUND_RULE = re.compile(r"must be (finite and )?(>=?) (\S+), got (\S+)$")


def _meets_stated_rule(error_line: str) -> bool:
    """Whether a "... X must be [finite and] OP B, got V" line names a
    value V that meets the rule it states."""
    rule = BOUND_RULE.search(error_line.rstrip("\n"))
    if rule is None:
        return False
    finite, op, bound, value = rule.groups()
    try:
        bound, value = float(bound), float(value)
    except ValueError:  # a bound named by another input, such as "> lo"
        return False
    if finite and not math.isfinite(value):
        return False
    return value >= bound if op == ">=" else value > bound


def _key_name(path: tuple) -> str:
    """A config path as an error names it: ``distribution.lo_m``,
    ``budget_rates_w[1]``."""
    name = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
    return name[1:]


def _names_in_call(argv: list[str]) -> set[str]:
    """The inputs a call names: its flags, and for ``simulate`` its
    ``config`` and every key in that config."""
    names = {arg.partition("=")[0] for arg in argv if arg.startswith("--")}
    if argv[0] == "simulate":
        names.add("config")
        try:
            config = json.loads(Path(argv[1]).read_bytes())
        except (ValueError, RecursionError):
            config = None
        if isinstance(config, dict):
            names.update(map(_key_name, _paths(config)))
    return names


SUBJECT = re.compile(r"qtf: (?:data )?error: (\S+) must be ")


def check_contract(argv: list[str], fmt: str) -> None:
    argv = [*argv, "--format", fmt]
    first = _call(argv)
    second = _call(argv)
    code, stdout, stderr = first
    assert second == first
    assert code in (0, 1, 2)
    if code:
        prefix = "qtf: error: " if code == 1 else "qtf: data error: "
        assert stdout == ""
        assert stderr.startswith(prefix)
        assert stderr.endswith("\n") and stderr.count("\n") == 1
        assert not _meets_stated_rule(stderr), stderr
        subject = SUBJECT.match(stderr)
        assert subject is None or subject[1] in _names_in_call(argv), stderr
        return
    assert stderr == ""
    if fmt != "json":
        header, _, _ = stdout.partition("\n")
        assert header.startswith("# manifest: ")
        stdout = header.removeprefix("# manifest: ")
    json.loads(stdout, parse_constant=_reject_constant)


FORMATS = st.sampled_from(["json", "csv", "text"])


@CONTRACT
@given(raw=_configs() | RAW_CONFIGS, fmt=FORMATS)
def test_simulate_keeps_the_exit_code_contract(workdir, raw, fmt):
    path = workdir / "config.json"
    path.write_bytes(raw)
    check_contract(["simulate", str(path)], fmt)


@CONTRACT
@given(
    bom=st.booleans(),
    tokens=st.lists(RADIUS_TOKENS, max_size=40),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    unit=st.sampled_from(["mm", "m"]),
    momentum=st.sampled_from(["paper", "derived"]),
    floor=st.one_of(st.none(), FLAG_VALUES),
    joined=st.booleans(),
    fmt=FORMATS,
)
def test_analyze_keeps_the_exit_code_contract(
    workdir, bom, tokens, newline, unit, momentum, floor, joined, fmt
):
    path = workdir / "radii.csv"
    path.write_bytes(("\ufeff" if bom else "").encode() + newline.join(tokens).encode())
    argv = ["analyze", str(path), "--unit", unit, "--momentum", momentum]
    if floor is not None:
        argv += _flag("--floor", floor, joined)
    check_contract(argv, fmt)


@CONTRACT
@given(
    flags=st.dictionaries(
        st.sampled_from(["--temperature", "--bits", "--modes", "--tau", "--fps"]),
        FLAG_VALUES,
    ),
    joined=st.booleans(),
    fmt=st.sampled_from(["json", "text"]),
)
def test_budget_keeps_the_exit_code_contract(flags, joined, fmt):
    argv = ["budget"]
    for flag, value in flags.items():
        argv += _flag(flag, value, joined)
    check_contract(argv, fmt)


def _interrupted(*parts):
    raise KeyboardInterrupt


@settings(CONTRACT, max_examples=50)
@given(raw=_configs() | RAW_CONFIGS, fmt=FORMATS)
def test_an_interrupted_run_exits_130_with_one_line(workdir, raw, fmt):
    # interrupted once the report is computed, before it is rendered: a
    # call that fails earlier keeps its error
    path = workdir / "config.json"
    path.write_bytes(raw)
    argv = ["simulate", str(path), "--format", fmt]
    plain = _call(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qtf.cli, "_render", _interrupted)
        try:
            interrupted = _call(argv)
        except KeyboardInterrupt:  # would end the whole pytest session
            pytest.fail("main let the interrupt through")
    if plain[0] == 0:
        assert interrupted == (130, "", "qtf: error: interrupted\n")
    else:
        assert interrupted == plain
