"""Import-time behaviour: numpy's OpenBLAS loads with one thread, public
names and subcommand layers load on first use, and the process entry
point freezes the import-time objects out of the collector."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtf
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


HEAVY_MODULES = ("qtf.tracks", "qtf.montecarlo", "qtf.solvency", "qtf.rng", "_hashlib")


@pytest.mark.parametrize("argv", [["budget"], ["constants"], ["--version"]])
def test_light_subcommands_load_no_heavy_layer(argv):
    loaded = run_python(
        "import contextlib, io, json, sys\n"
        "from qtf.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        main({argv!r})\n"
        "    except SystemExit:\n"
        "        pass\n"
        f"print(json.dumps([m for m in {HEAVY_MODULES!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_public_names_load_on_first_access():
    doc = run_python(
        "import json, sys, qtf\n"
        "before = sorted(m for m in sys.modules if m.startswith('qtf.'))\n"
        "qtf.compute_stats\n"
        "print(json.dumps({'before': before, 'after': 'qtf.tracks' in sys.modules}))\n"
    )
    assert doc == {"before": [], "after": True}


def test_every_public_name_resolves_to_its_defining_module():
    assert qtf.__all__[0] == "__version__"
    for name in qtf.__all__[1:]:
        value = getattr(qtf, name)
        assert value.__module__.startswith("qtf.")
        assert getattr(sys.modules[value.__module__], name) is value
        assert name in dir(qtf)
    with pytest.raises(AttributeError, match="no_such_name"):
        qtf.no_such_name


def test_import_loads_numpy_with_a_callers_blas_variable():
    assert run_python(
        "import json, sys, qtf; print(json.dumps('numpy' in sys.modules))",
        OPENBLAS_NUM_THREADS="2",
    )


def test_module_entry_point_freezes_the_collector():
    frozen = run_python(
        "import atexit, gc, json, os, runpy, sys\n"
        "atexit.register(lambda: print(json.dumps(gc.get_freeze_count())))\n"
        "sys.argv = ['qtf', 'constants', '--out', os.devnull]\n"
        "runpy.run_module('qtf', run_name='__main__')\n"
    )
    assert frozen > 0
