"""The process exit of ``qtf.cli.run()``, in fresh interpreters.

``run()`` exits through ``sys.exit`` with the code of ``main()``: the
caller's ``finally`` blocks and the atexit handlers run, and what they
write is flushed.  A run that runs out of memory ends in one error line
and exit 1, an interrupted run in one error line and exit 130.
"""

import json
import os
import signal
import subprocess
import sys
import time

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


def test_process_exits_with_the_code_of_main_through_finally_and_atexit():
    # SystemExit unwinds through the caller's finally block; the atexit
    # handlers run after it, last registered first, and their output is
    # flushed
    code = entry_point(
        ["analyze", "/nonexistent/tracks.csv"],
        before=(
            "atexit.register(print, 'first handler')\n"
            "atexit.register(sys.stderr.write, 'second handler\\n')"
        ),
        after="print('unwound', sys.exc_info()[1].code)",
    )
    proc = run_python("-c", code)
    assert proc.returncode == 2
    assert proc.stdout == b"unwound 2\nfirst handler\n"
    lines = proc.stderr.decode().splitlines()
    assert lines[0].startswith("qtf: data error: cannot read ")
    assert lines[1:] == ["second handler"]


def test_cprofile_writes_its_profile(tmp_path):
    profile = tmp_path / "qtf.prof"
    proc = run_python("-m", "cProfile", "-o", str(profile), "-m", "qtf", "constants")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["constants"]
    assert profile.stat().st_size > 0


# A child imports what a run loads, then limits its own address space to
# its size at that point plus ``headroom`` bytes and runs the call, so the
# limit follows each host's baseline and acts on that child alone.  With
# 8 MB a 2e5-row analyze runs out while parsing; with 2 MB the 2e5-track
# censor run draws its radii and runs out allocating their ids in
# generate_tracks, a shortage and not a size numpy refuses; with 16 MB it
# censors them and runs out building the csv rows or the json body.
OOM_CHILD = """
import resource, sys
import qtf.cli, qtf.montecarlo, qtf.tracks
with open("/proc/self/statm") as statm:
    size = int(statm.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + {headroom}, hard))
sys.argv = ["qtf", *{argv!r}]
qtf.cli.run()
"""


@pytest.fixture(scope="module")
def large_radii(tmp_path_factory):
    path = tmp_path_factory.mktemp("large") / "radii.csv"
    rows = (repr(1 + i * 7919 % 20_000 / 1000) for i in range(200_000))
    path.write_text("radius_mm\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "case, headroom_mb",
    [
        ("analyze-text", 8),
        ("censor-draw", 2),
        ("censor-csv", 16),
        ("censor-json-out", 16),
    ],
)
def test_out_of_memory_is_one_error_line(
    tmp_path, large_radii, large_config, case, headroom_mb
):
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS") or not os.path.exists("/proc/self/statm"):
        pytest.skip("needs resource.RLIMIT_AS and /proc/self/statm")
    out = tmp_path / "report.json"
    out.write_bytes(b"previous\n")
    argv = {
        "analyze-text": ["analyze", large_radii, "--format", "text"],
        "censor-draw": ["simulate", large_config, "--format", "text"],
        "censor-csv": ["simulate", large_config, "--format", "csv"],
        "censor-json-out": ["simulate", large_config, "--out", str(out)],
    }[case]
    proc = run_python("-c", OOM_CHILD.format(headroom=headroom_mb * 2**20, argv=argv))
    assert proc.returncode == 1
    [line] = proc.stderr.decode().splitlines()
    assert line == f"qtf: error: out of memory running {argv[0]}"
    assert proc.stdout == b""
    assert out.read_bytes() == b"previous\n"


# The README's memory model of a text report: peak RSS is the start-up
# size plus these bytes per generated track and per kept track, fitted at
# 2e5 and 1e6 tracks.  A tracks run keeps every track it draws.
TEXT_BYTES_PER_TRACK = {"tracks": (28, 0), "censor": (12, 15)}


@pytest.mark.parametrize(
    "mode, floor_n",
    [
        pytest.param("tracks", 5e12, id="tracks"),
        pytest.param("censor", 5e12, id="censor"),  # about 62% kept
        pytest.param("censor", 0.0, id="censor-all-kept"),
        pytest.param("censor", 3e13, id="censor-mostly-censored"),  # about 0.5% kept
    ],
)
def test_text_run_of_a_million_tracks_fits_its_memory_model(tmp_path, mode, floor_n):
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS") or not os.path.exists("/proc/self/statm"):
        pytest.skip("needs resource.RLIMIT_AS and /proc/self/statm")
    n_tracks = 1_000_000
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({**LARGE_CENSOR, "mode": mode, "n_tracks": n_tracks, "floor_n": floor_n})
    )
    argv = ["simulate", str(config), "--format", "text"]
    unlimited = run_cli(*argv).stdout
    # "tracks: N read, D dropped, K analyzed"
    kept = int(unlimited.splitlines()[1].split()[-2])
    per_generated, per_kept = TEXT_BYTES_PER_TRACK[mode]
    headroom = int(1.5 * (per_generated * n_tracks + per_kept * kept))
    capped = run_python("-c", OOM_CHILD.format(headroom=headroom, argv=argv))
    assert capped.returncode == 0 and not capped.stderr
    assert capped.stdout == unlimited


class _Unencodable(str):
    def encode(self, *args, **kwargs):
        raise MemoryError


def test_out_file_keeps_its_bytes_when_the_report_cannot_be_encoded(
    tmp_path, monkeypatch, capsys
):
    out = tmp_path / "report.json"
    out.write_bytes(b"previous\n")
    monkeypatch.setattr(qtf.cli, "_render", lambda *parts: _Unencodable("report\n"))
    assert qtf.cli.main(["constants", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qtf: error: out of memory running constants\n"
    assert out.read_bytes() == b"previous\n"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
def test_interrupt_before_the_report_is_written_is_one_error_line(
    tmp_path, monkeypatch, capsys, to_file
):
    out = tmp_path / "report.json"
    out.write_bytes(b"previous\n")

    def interrupted(query):
        raise KeyboardInterrupt

    monkeypatch.setattr(qtf.cli, "compute_budget", interrupted)
    argv = ["budget", *(["--out", str(out)] if to_file else [])]
    try:
        code = qtf.cli.main(argv)
    except KeyboardInterrupt:  # would end the whole pytest session
        pytest.fail("main let the interrupt through")
    assert code == 130
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qtf: error: interrupted\n"
    assert out.read_bytes() == b"previous\n"


# 9e7 steps that never collapse: some 8 s of stepping
LONG_ACCRUAL = {
    "mode": "accrual",
    "initial_budget_j": 1.0,
    "budget_rate_w": 1.0,
    "cost_rate_w": 0.5,
    "time_step_s": 1e-6,
    "max_time_s": 90.0,
}

# The child installs Python's own SIGINT handler, as Python does at the
# start of an interactive process: a child of a shell's "cmd &" inherits
# SIGINT ignored, and Python then leaves it ignored.  Once its imports
# are done it writes one byte to the fd ``ready``.
SIGINT_CHILD = """
import os, signal, sys
signal.signal(signal.SIGINT, signal.default_int_handler)
import qtf.cli, qtf.montecarlo
os.write({ready}, b"r")
os.close({ready})
sys.argv = ["qtf", *{argv!r}]
qtf.cli.run()
"""


def test_sigint_during_a_long_accrual_is_one_error_line(tmp_path):
    config = tmp_path / "accrual.json"
    config.write_text(json.dumps(LONG_ACCRUAL), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    ready, ready_w = os.pipe()
    code = SIGINT_CHILD.format(ready=ready_w, argv=["simulate", str(config)])
    child = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        pass_fds=(ready_w,),
    )
    os.close(ready_w)
    try:
        assert os.read(ready, 1) == b"r"
        time.sleep(0.5)  # into the accrual's steps
        assert child.poll() is None, "the accrual ended before the interrupt"
        child.send_signal(signal.SIGINT)
        stdout, stderr = child.communicate(timeout=60)
    finally:
        os.close(ready)
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert child.returncode == 130
    assert stderr == b"qtf: error: interrupted\n"
    assert stdout == b""
