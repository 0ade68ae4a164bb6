"""The command line accepts exactly the documented grammar.

A flag is spelled in full: a prefix of one (``--temp``, ``--form``) is
an unrecognized argument.  A number flag reads its value, given as
``--flag=value`` or as ``--flag value``, in the one grammar of a number
written as text, which a radius row is read in too
(``qtf.errors.real_from_text``): what ``float()`` reads from ASCII
without an underscore.  So a negative value in any spelling of that
grammar (``-1e5``, ``-inf``, ``-nan``) reaches the domain check instead
of being taken for an option, and a spelling only ``float()`` reads
(``-1_000``, ``3_00``, ``١e12``) is an invalid value of its flag.
``--out`` takes a path, never the empty string.  A rejected call exits
1 with one ``qtf: error:`` line and nothing on stdout.

``qtf.cli._Parser`` sets a private argparse attribute to read negative
numbers, so CI runs this module on Python 3.10 and 3.12 as well.
"""

import json

import pytest

from qtf.cli import main
from qtf.tracks import fixture_path

FIXTURE = str(fixture_path())

# each float flag, the subcommand it belongs to, and the bound it states
FLOAT_FLAGS = [
    (["budget"], "--temperature", "> 0"),
    (["budget"], "--bits", ">= 0"),
    (["budget"], "--modes", ">= 0"),
    (["budget"], "--tau", "> 0"),
    (["budget"], "--fps", "> 0"),
    (["analyze", FIXTURE], "--floor", ">= 0"),
]

NEGATIVE_SPELLINGS = [
    "-5", "-.5", "-1e5", "-1E-05", "-1e+5", "-2.5e-3",
    "-inf", "-Infinity", "-nan",
]

# spellings float() reads that a radius row, and so a number flag, does
# not: digit-group underscores and non-ASCII digits ("-1_000" is still
# taken for a value, not an option, so the error names its flag)
REFUSED_SPELLINGS = ["-1_000", "1_0e11", "3_00", "\u0661e12", "\uff11"]


def _one_error_line(capsys, argv: list[str]) -> str:
    """The stderr of ``argv``, a call that must exit 1 with one
    ``qtf: error:`` line and nothing on stdout."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qtf: error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    return captured.err


@pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
@pytest.mark.parametrize("value", NEGATIVE_SPELLINGS)
@pytest.mark.parametrize(
    "command, flag, bound", FLOAT_FLAGS, ids=[flag for _, flag, _ in FLOAT_FLAGS]
)
def test_negative_value_reaches_the_domain_check(capsys, command, flag, bound, value, joined):
    given = [f"{flag}={value}"] if joined else [flag, value]
    err = _one_error_line(capsys, [*command, *given])
    assert err == f"qtf: error: {flag} must be finite and {bound}, got {float(value)!r}\n"


@pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
@pytest.mark.parametrize("value", REFUSED_SPELLINGS, ids=ascii)
@pytest.mark.parametrize(
    "command, flag, bound", FLOAT_FLAGS, ids=[flag for _, flag, _ in FLOAT_FLAGS]
)
def test_a_spelling_outside_the_grammar_is_an_invalid_value(
    capsys, command, flag, bound, value, joined
):
    float(value)  # each one float() reads
    given = [f"{flag}={value}"] if joined else [flag, value]
    err = _one_error_line(capsys, [*command, *given])
    assert err == f"qtf: error: argument {flag}: invalid float value: {value!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["budget", "--temp", "300"],
        ["budget", "--temp=300"],
        ["budget", "--t", "5"],
        ["constants", "--form", "text"],
        ["analyze", FIXTURE, "--flo", "1"],
        ["analyze", FIXTURE, "--mom", "derived"],
        ["simulate", "config.json", "--form", "text"],
        ["budget", "--o", "report.json"],
    ],
    ids=lambda argv: " ".join(argv[:1] + [a for a in argv if a.startswith("--")]),
)
def test_a_flag_prefix_is_a_usage_error(capsys, argv):
    err = _one_error_line(capsys, argv)
    prefix = next(a for a in argv if a.startswith("--"))
    assert err.startswith(f"qtf: error: unrecognized arguments: {prefix}")


def test_a_prefix_of_version_is_a_usage_error(capsys):
    err = _one_error_line(capsys, ["--vers"])
    assert err == "qtf: error: unrecognized arguments: --vers\n"


@pytest.mark.parametrize("argv", [["--bogus"], ["--bogus", "constants"], ["constants", "--bogus"]])
def test_an_unknown_flag_is_named_wherever_it_stands(capsys, argv):
    err = _one_error_line(capsys, argv)
    assert err == "qtf: error: unrecognized arguments: --bogus\n"


@pytest.mark.parametrize("value", ["-x", "-e5", "-1e", "--5"])
def test_a_non_number_after_a_flag_is_still_an_option(capsys, value):
    err = _one_error_line(capsys, ["budget", "--temperature", value])
    assert err == "qtf: error: argument --temperature: expected one argument\n"


@pytest.fixture
def accrual_config(tmp_path) -> str:
    path = tmp_path / "accrual.json"
    config = {"mode": "accrual", "initial_budget_j": 10.0, "budget_rate_w": 1.0,
              "cost_rate_w": 2.0, "time_step_s": 0.01, "max_time_s": 20.0}
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
@pytest.mark.parametrize("subcommand", ["constants", "analyze", "budget", "simulate"])
def test_an_empty_out_is_a_usage_error(capsys, accrual_config, subcommand, joined):
    positional = {"analyze": [FIXTURE], "simulate": [accrual_config]}.get(subcommand, [])
    out = ["--out="] if joined else ["--out", ""]
    err = _one_error_line(capsys, [subcommand, *positional, *out])
    assert err == "qtf: error: argument --out: expected a path, got an empty string\n"
