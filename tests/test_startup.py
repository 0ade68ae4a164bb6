"""Import-time behaviour: numpy's OpenBLAS loads with one thread."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(code: str, **env_extra: str) -> dict:
    """Run ``code`` in a fresh interpreter with none of the BLAS thread
    variables set except ``env_extra``; it prints one JSON document."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


ENV_AFTER_IMPORT = """
import json, os
before = dict(os.environ)
import qtf
print(json.dumps({"before": before, "after": dict(os.environ)}))
"""


def test_import_leaves_no_blas_variable_behind():
    doc = run_python(ENV_AFTER_IMPORT)
    assert "OPENBLAS_NUM_THREADS" not in doc["after"]
    assert doc["after"] == doc["before"]


@pytest.mark.parametrize(
    "env",
    [{"OPENBLAS_NUM_THREADS": "3"}, {"OMP_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"}],
)
def test_callers_blas_variables_are_kept(env):
    doc = run_python(ENV_AFTER_IMPORT, **env)
    assert doc["after"] == doc["before"]
    for name, value in env.items():
        assert doc["after"][name] == value


def test_numpy_imported_first_leaves_environment_untouched():
    doc = run_python(
        "import json, os, numpy\n"
        "before = dict(os.environ)\n"
        "import qtf\n"
        "print(json.dumps({'before': before, 'after': dict(os.environ)}))\n"
    )
    assert doc["after"] == doc["before"]


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_import_starts_no_thread():
    doc = run_python(
        "import json, qtf\n"
        "status = open('/proc/self/status').read()\n"
        "print(json.dumps(int(status.split('Threads:')[1].split()[0])))\n"
    )
    assert doc == 1
