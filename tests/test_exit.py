"""The process exit of ``qtf.cli.run()``, in fresh interpreters.

``run()`` ends the process at its last write: it runs the atexit
handlers, flushes stdout and stderr, and calls ``os._exit`` with the
code of ``main()``.  Under a profiler or a tracer it exits normally.
"""

import json
import os
import subprocess
import sys

import pytest

import qtf.cli
from conftest import SRC, run_cli

# 200k tracks at the derived momentum, about 62% kept: a csv report of
# about 7 MB, many times any stdout buffer.
LARGE_CENSOR = {
    "mode": "censor",
    "seed": 7,
    "n_tracks": 200_000,
    "distribution": {"kind": "lognormal", "mean_m": 7.42e-3, "sd_m": 5.05e-3},
    "momentum_source": "derived",
    "floor_n": 5e12,
}


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` with the source tree on the path and stdout
    block-buffered, as it is on a pipe by default."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


def entry_point(argv: list[str], before: str = "", after: str = "") -> str:
    """Code that runs ``python -m qtf *argv`` through runpy, with
    ``before`` and ``after`` around it; ``after`` runs in a finally
    block, so only if the call returns or raises."""
    return (
        "import atexit, runpy, sys\n"
        f"{before}\n"
        f"sys.argv = ['qtf', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('qtf', run_name='__main__')\n"
        "finally:\n"
        f"    {after or 'pass'}\n"
    )


@pytest.fixture(scope="module")
def large_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("large") / "censor.json"
    path.write_text(json.dumps(LARGE_CENSOR), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def large_csv(large_config):
    """The csv report of ``large_config`` as ``main`` writes it in process."""
    out = os.path.join(os.path.dirname(large_config), "in-process.csv")
    assert qtf.cli.main(["simulate", large_config, "--format", "csv", "--out", out]) == 0
    with open(out, "rb") as file:
        return file.read()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["constants", "--format", "text"], 0),
        (["constants", "--format", "yaml"], 1),
        (["analyze", "/nonexistent/tracks.csv"], 2),
    ],
    ids=["ok", "usage-error", "data-error"],
)
def test_exit_code_is_the_code_of_main(argv, code):
    proc = run_cli(*argv)
    assert proc.returncode == code
    if code:
        [line] = proc.stderr.decode().splitlines()
        assert line.startswith("qtf: ")
        assert not proc.stdout
    else:
        assert proc.stdout.endswith(b"\n") and not proc.stderr


def test_large_report_to_a_pipe_is_complete(large_config, large_csv):
    proc = run_cli("simulate", large_config, "--format", "csv")
    assert proc.returncode == 0 and not proc.stderr
    assert len(large_csv) > 2**20
    assert proc.stdout == large_csv


def test_out_file_is_complete(tmp_path, large_config, large_csv):
    out = tmp_path / "report.csv"
    proc = run_cli("simulate", large_config, "--format", "csv", "--out", str(out))
    assert proc.returncode == 0 and not proc.stdout and not proc.stderr
    assert out.read_bytes() == large_csv


def test_large_report_to_a_full_device_is_one_error_line(large_config):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "wb") as stdout:
        proc = run_cli("simulate", large_config, "--format", "csv", stdout=stdout)
    assert proc.returncode == 1
    [line] = proc.stderr.decode().splitlines()
    assert line.startswith("qtf: error: cannot write standard output: [Errno ")


def test_process_ends_at_its_last_write_after_the_atexit_handlers():
    # the handlers run, and what they write is flushed; the frames
    # around run() never unwind
    code = entry_point(
        ["analyze", "/nonexistent/tracks.csv"],
        before=(
            "atexit.register(print, 'first handler')\n"
            "atexit.register(sys.stderr.write, 'second handler\\n')"
        ),
        after="print('unwound')",
    )
    proc = run_python("-c", code)
    assert proc.returncode == 2
    assert proc.stdout == b"first handler\n"
    lines = proc.stderr.decode().splitlines()
    assert lines[0].startswith("qtf: data error: cannot read ")
    assert lines[1:] == ["second handler"]


@pytest.mark.parametrize("hook", ["settrace", "setprofile"])
def test_traced_or_profiled_process_exits_normally(hook):
    code = entry_point(
        ["constants", "--out", os.devnull],
        before=f"sys.{hook}(lambda *args: None)",
        after=f"sys.{hook}(None); print('unwound', sys.exc_info()[1].code)",
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0
    assert proc.stdout == b"unwound 0\n"


def test_cprofile_writes_its_profile(tmp_path):
    profile = tmp_path / "qtf.prof"
    proc = run_python("-m", "cProfile", "-o", str(profile), "-m", "qtf", "constants")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["constants"]
    assert profile.stat().st_size > 0
