"""The README's library example runs against the package as it is, so a
public name that is deleted or renamed has to leave the README too, and
the error lines it quotes are the ones the CLI writes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import qtf.cli
from conftest import SRC

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(heading: str) -> str:
    """The README's ``## heading`` section."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def readme_code_block(heading: str, language: str) -> str:
    """The first ``language`` code block of the README's ``## heading``."""
    return re.search(rf"```{language}\n(.*?)```", readme_section(heading), re.S).group(1)


def test_library_surface_example_runs():
    code = readme_code_block("Library surface", "python")
    assert "from qtf." in code
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_every_input_the_cli_reads_is_documented():
    from qtf import cli

    simulate = readme_section("Simulation configs")
    tables = (cli._LOGNORMAL, cli._MOMENTS, cli._UNIFORM, cli._PARTICLE, cli._ACCRUAL)
    for key in (key for table in tables for key in table):
        assert f'"{key}"' in simulate or f"`{key}`" in simulate, key
    usage = readme_section("Command line")
    for flag in cli._BUDGET_FLAGS:
        assert f"[{flag} " in usage, flag


def test_quoted_budget_errors_are_what_the_cli_writes(capsys):
    usage = " ".join(readme_section("Command line").split())
    quoted = re.findall(r"such as `(--[a-z]+ [^`]+)`.*?exits? 1 with `(qtf: error: [^`]*)`", usage)
    assert [flag for flag, _ in quoted] == ["--temperature 1e308", "--fps 1e-320"]
    for flag, line in quoted:
        assert qtf.cli.main(["budget", *flag.split()]) == 1
        err = capsys.readouterr().err
        prefix, elided, _ = line.partition("...")
        assert err.startswith(prefix) if elided else err == line + "\n", flag
