"""The README's library example runs against the package as it is, so a
public name that is deleted or renamed has to leave the README too."""

import os
import re
import subprocess
import sys
from pathlib import Path

from conftest import SRC

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_code_block(heading: str, language: str) -> str:
    """The first ``language`` code block of the README's ``## heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_surface_example_runs():
    code = readme_code_block("Library surface", "python")
    assert "from qtf import" in code
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
