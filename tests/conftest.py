from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# let a bare checkout run pytest without installing first
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# CPython's own SHA-256 module, which qtf.cli._digest uses before hashlib
HAS_BUILTIN_SHA256 = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))


# Closes the fds listed in argv[1], then runs python on the rest of argv.
CLOSING_LAUNCHER = (
    "import os, sys\n"
    "for fd in sys.argv[1].split(','):\n"
    "    os.close(int(fd))\n"
    "os.execv(sys.executable, [sys.executable, *sys.argv[2:]])\n"
)


def run_cli(
    *args: str,
    env_extra: dict[str, str] | None = None,
    cwd: str | Path | None = None,
    timeout: float | None = None,
    stdout=subprocess.PIPE,
    stderr=subprocess.PIPE,
    closed: tuple[int, ...] = (),
) -> subprocess.CompletedProcess:
    """Run the CLI black-box in a subprocess, source tree on the path;
    past ``timeout`` seconds it is killed and ``TimeoutExpired`` raised.
    Its stdout goes to ``stdout`` and its stderr to ``stderr`` (both
    captured by default); the fds in ``closed`` are closed before the
    interpreter starts, so that their ``sys`` streams are ``None``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    launcher = ["-c", CLOSING_LAUNCHER, ",".join(map(str, closed))] if closed else []
    return subprocess.run(
        [sys.executable, *launcher, "-m", "qtf", *args],
        stdout=stdout,
        stderr=stderr,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )


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
