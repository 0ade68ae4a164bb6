from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# let a bare checkout run pytest without installing first
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# CPython's own SHA-256 module, which qtf.cli._digest uses before hashlib
HAS_BUILTIN_SHA256 = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))


def run_cli(
    *args: str,
    env_extra: dict[str, str] | None = None,
    cwd: str | Path | None = None,
    timeout: float | None = None,
    stdout=subprocess.PIPE,
) -> subprocess.CompletedProcess:
    """Run the CLI black-box in a subprocess, source tree on the path;
    past ``timeout`` seconds it is killed and ``TimeoutExpired`` raised.
    Its stdout goes to ``stdout`` (captured by default), its stderr is
    captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qtf", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )


@pytest.fixture(autouse=True)
def _run_exits_by_raising(monkeypatch):
    """``qtf.cli.run()`` ends its process once the report is written,
    with ``os._exit``: called in a test it would end pytest itself,
    with exit status 0.  Here it raises ``SystemExit(code)`` instead,
    and pytest's own atexit handlers are not run."""
    import qtf.cli

    def raise_exit(code: int):
        raise SystemExit(code)

    monkeypatch.setattr(qtf.cli, "_exit_process", raise_exit)


_ACCEPTANCE_RE = re.compile(r"test_acceptance\.py::test_c(\d+)")


def pytest_runtest_logreport(report):
    """Print one PASS/FAIL line per acceptance criterion."""
    if report.when != "call":
        return
    match = _ACCEPTANCE_RE.search(report.nodeid)
    if not match:
        return
    status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    name = report.nodeid.split("::")[-1]
    print(f"\n[criterion {int(match.group(1))}] {status} {name}", flush=True)
