"""The golden report hashes hold on a second dispatch platform.

Every simulated report depends on the C library's ``log``, ``exp`` and
``cos``, reached through numpy's per-element loops
(``qtf.rng.libm_apply``).  Two environment variables move that dispatch
for one process, so a second platform is emulated on this one:

* ``NPY_DISABLE_CPU_FEATURES`` moves numpy's float64 ``exp``, ``log``
  and ``cos`` loops off ``X86_V4`` (AVX-512);
* ``GLIBC_TUNABLES`` clears the AVX2 and FMA bits that glibc's libm
  selects its variants by.

The golden-hash tests of ``tests/test_cli.py`` and the corpus's calls
that draw no population (``analyze``, ``budget``, ``constants``,
accrual, sweep and the failing calls of ``tests/test_corpus.py``) run
again in a pytest subprocess under each setting and under both.  The
corpus's simulated populations stay out: their csv and json reports
differ under the ``GLIBC_TUNABLES`` setting, because glibc's non-FMA
``cos`` moves some draws by a few ulps.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import SRC

NUMPY_OFF_V4 = {"NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"}
GLIBC_NO_FMA = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"}
SETTINGS = {
    "numpy": NUMPY_OFF_V4,
    "glibc": GLIBC_NO_FMA,
    "numpy-and-glibc": {**NUMPY_OFF_V4, **GLIBC_NO_FMA},
}
GOLDEN_TESTS = [
    "tests/test_cli.py::test_simulate_report_bytes_are_golden",
    "tests/test_cli.py::test_report_bytes_are_golden",
    "tests/test_corpus.py::test_other_calls_are_golden",
]
# float64 exp, log and cos: the numpy target each runs on
PROBE = """
import json
from numpy.lib.introspect import opt_func_info
info = opt_func_info(func_name="^(exp|log|cos)$", signature="float64")
print(json.dumps({name: sigs["dd"]["current"] for name, sigs in info.items()}))
"""


def _run(argv: list[str], setting: dict[str, str]) -> subprocess.CompletedProcess:
    env = {**os.environ, **setting}
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env,
        cwd=SRC.parent, timeout=300,
    )


def _numpy_targets(setting: dict[str, str]) -> dict[str, str]:
    proc = _run(["-c", PROBE], setting)
    if "No module named 'numpy.lib.introspect'" in proc.stderr:
        pytest.skip("numpy.lib.introspect.opt_func_info needs numpy >= 2.0")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", SETTINGS)
def test_golden_hashes_hold_on_a_second_dispatch_platform(name):
    setting = SETTINGS[name]
    if "NPY_DISABLE_CPU_FEATURES" in setting:
        moved = _numpy_targets(setting)
        if moved == _numpy_targets({}):
            pytest.skip(f"this host cannot move numpy's exp, log and cos: {moved}")
        assert "X86_V4" not in moved.values(), moved
    proc = _run(["-m", "pytest", "-q", "-p", "no:cacheprovider", *GOLDEN_TESTS], setting)
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert " passed" in proc.stdout and "skipped" not in proc.stdout, proc.stdout[-3000:]
