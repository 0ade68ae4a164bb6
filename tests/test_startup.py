"""Import-time behaviour: numpy's OpenBLAS loads with one thread, by the
only code in qtf that reads the environment, each public name imports
from its defining module, subcommand layers load on first use, and the
process entry point freezes the import-time objects out of the
collector."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np
import pytest

import qtf
from conftest import HAS_BUILTIN_SHA256, SRC
from qtf.tracks import fixture_path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(
    code: str, *flags: str, path: list[str] | None = None, **env_extra: str
) -> dict:
    """Run ``code`` in a fresh interpreter started with ``flags`` and with
    none of the BLAS thread variables set except ``env_extra``; it prints
    one JSON document.  ``path``, when given, is the whole PYTHONPATH;
    otherwise the source tree is put in front of the caller's."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if path is None:
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    else:
        env["PYTHONPATH"] = os.pathsep.join(path)
    env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def modules_loaded_by(argv: list[str], watched: tuple[str, ...], *, no_site=False):
    """The modules of ``watched`` that ``main(argv)`` loads in a fresh
    interpreter; the call must succeed.  With ``no_site`` the interpreter
    runs with ``-S``, so no ``.pth`` file preloads anything, and its path
    is only the source tree and numpy's directory."""
    flags, path = (), None
    if no_site:
        flags, path = ("-S",), [str(SRC), str(Path(np.__file__).parents[1])]
    doc = run_python(
        "import contextlib, io, json, sys\n"
        "from qtf.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        code = main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        f"loaded = [m for m in {watched!r} if m in sys.modules]\n"
        "print(json.dumps({'code': code, 'loaded': loaded}))\n",
        *flags,
        path=path,
    )
    assert doc["code"] == 0, argv
    return doc["loaded"]


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


# The names through which os reads the process environment
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path: Path) -> list[str]:
    """Each line of ``path`` that names an environment reader of ``os``,
    as an attribute or in a ``from os import``, as ``FILE:LINE``."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if ENVIRONMENT_READERS.intersection(a.name for a in node.names):
                lines.add(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_only_the_blas_guard_reads_the_environment():
    # a report follows from the command line and the input files alone;
    # qtf/__init__.py reads the BLAS thread variables to load numpy
    reads = [r for p in sorted((SRC / "qtf").glob("*.py")) for r in environment_reads(p)]
    assert {r.partition(":")[0] for r in reads} == {"__init__.py"}, reads


HEAVY_MODULES = ("qtf.tracks", "qtf.montecarlo", "qtf.solvency", "qtf.rng", "_hashlib")
TRACK_LAYERS = ("qtf.tracks", "qtf.solvency", "qtf.rng")


@pytest.mark.parametrize("argv", [["budget"], ["constants"], ["--version"]])
def test_light_subcommands_load_no_heavy_layer(argv):
    assert modules_loaded_by(argv, HEAVY_MODULES) == []


SIMULATE_CONFIGS = {
    "accrual": {
        "mode": "accrual",
        "initial_budget_j": 10.0,
        "budget_rate_w": 1.0,
        "cost_rate_w": 2.0,
        "time_step_s": 0.01,
        "max_time_s": 20.0,
    },
    "sweep": {
        "mode": "sweep",
        "initial_budget_j": 10.0,
        "cost_rate_w": 2.0,
        "time_step_s": 0.01,
        "max_time_s": 30.0,
        "budget_rates_w": [0.0, 0.5, 1.0],
    },
    "censor": {
        "mode": "censor",
        "seed": 42,
        "n_tracks": 228,
        "distribution": {"kind": "lognormal", "mean_m": 7.42e-3, "sd_m": 5.05e-3},
    },
}


def run_argv(tmp_path, mode: str, fmt: str) -> list[str]:
    """``analyze`` on the fixture, or ``simulate`` on the config of ``mode``."""
    if mode == "analyze":
        return ["analyze", str(fixture_path()), "--format", fmt]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SIMULATE_CONFIGS[mode]), encoding="utf-8")
    return ["simulate", str(path), "--format", fmt]


@pytest.mark.parametrize("mode", ["accrual", "sweep"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_accrual_and_sweep_load_no_track_layer(tmp_path, mode, fmt):
    argv = run_argv(tmp_path, mode, fmt)
    assert modules_loaded_by(argv, ("qtf.montecarlo", *TRACK_LAYERS)) == [
        "qtf.montecarlo"
    ]


@pytest.mark.parametrize(
    "mode, fmt", [("analyze", "json"), ("censor", "text")], ids=["analyze", "censor"]
)
def test_track_runs_load_no_masked_arrays(tmp_path, mode, fmt):
    # np.median imports numpy.ma to check for a masked argument;
    # compute_stats reads the median from its sorted copy instead
    assert modules_loaded_by(run_argv(tmp_path, mode, fmt), ("numpy.ma",)) == []


@pytest.mark.skipif(not HAS_BUILTIN_SHA256, reason="no built-in SHA-256 module")
@pytest.mark.parametrize("mode", ["analyze", "censor", "accrual", "sweep"])
def test_input_digest_loads_no_hashlib(tmp_path, mode):
    # hashlib loads OpenSSL's libcrypto; _digest uses CPython's own module
    argv = run_argv(tmp_path, mode, "json")
    assert modules_loaded_by(argv, ("hashlib", "_hashlib")) == []


@pytest.mark.parametrize(
    "argv",
    [["budget"], ["constants"], ["--version"], ["analyze", str(fixture_path())]],
    ids=["budget", "constants", "version", "analyze"],
)
def test_no_subcommand_loads_importlib_resources(argv):
    # qtf finds its data files next to its modules
    assert modules_loaded_by(argv, ("importlib.resources",), no_site=True) == []


def test_fixture_path_loads_no_importlib_resources():
    loaded = run_python(
        "import json, sys\n"
        "from qtf.tracks import fixture_path\n"
        "assert fixture_path().is_file()\n"
        "print(json.dumps('importlib.resources' in sys.modules))\n",
        "-S",
        path=[str(SRC), str(Path(np.__file__).parents[1])],
    )
    assert loaded is False


def test_import_loads_no_qtf_module():
    loaded = run_python(
        "import json, sys, qtf\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qtf.'))))\n"
    )
    assert loaded == []


# The defining module of each name that ``qtf`` itself once re-exported.
DEFINING_MODULES = {
    "constants": ("constants_snapshot", "sci"),
    "errors": ("DataError", "DomainError", "QtfError"),
    "montecarlo": (
        "AccrualConfig", "AccrualOutcome", "Lognormal", "SimConfig", "Uniform",
        "censor_at_floor", "generate_tracks", "ks_statistic",
        "lognormal_from_moments", "run_accrual", "sweep_prediction_1",
    ),
    "solvency": ("ParticleSpec", "action_index", "momentum_from_energy"),
    "thermo": (
        "DiscrepancyRecord", "EnergyBudget", "ThermoQuery", "audit_against_paper",
        "compute_budget",
    ),
    "tracks": (
        "SolvencyReport", "TrackDataset", "TrackStats", "compute_stats",
        "emit_summary", "parse_dataset", "solvency_report",
    ),
}


def test_every_public_name_resolves_to_its_defining_module():
    assert qtf.__all__ == ["__version__"]
    with pytest.raises(AttributeError, match="compute_stats"):
        qtf.compute_stats
    names = [(m, n) for m, names in DEFINING_MODULES.items() for n in names]
    assert len(names) == 31
    for module, name in names:
        value = getattr(importlib.import_module(f"qtf.{module}"), name)
        assert value.__module__ == f"qtf.{module}", name


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


def test_value_classes_compile_no_methods_of_their_own():
    # @dataclass(frozen=True) compiles six methods per class at import;
    # every dataclass in qtf is a value_class, sharing one set instead
    from qtf import _value

    for module in pkgutil.iter_modules(qtf.__path__):
        if module.name != "__main__":
            importlib.import_module(f"qtf.{module.name}")
    classes = [
        value
        for name, module in sys.modules.items() if name.startswith("qtf.")
        for value in vars(module).values()
        if isinstance(value, type) and is_dataclass(value)
        and value.__module__ == name
    ]
    assert len(classes) >= 12
    for cls in classes:
        assert cls.__init__ is _value._init, cls
        assert cls.__repr__ is _value._repr, cls
        assert cls.__setattr__ is _value._setattr, cls
