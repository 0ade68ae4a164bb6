"""Collapse-solvency calculus, energy budgets, track statistics, and
seeded Monte Carlo harnesses.

Each public name is imported from the module that defines it, such as
``from qtf.tracks import parse_dataset``, so that a process loads only
the layers it uses: ``qtf budget`` never loads the track pipeline or the
Monte Carlo harness.
"""

from __future__ import annotations

__version__ = "0.1.0"
__all__ = ["__version__"]

import os
import sys

# qtf makes no BLAS or LAPACK call, yet OpenBLAS starts its worker
# threads when numpy loads them, and they spin on another core.  Load
# numpy with one thread unless the caller already chose a count through
# one of the variables OpenBLAS reads, then restore the environment so
# child processes inherit the caller's.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_ONE_BLAS_THREAD = "numpy" not in sys.modules and not any(
    v in os.environ for v in _BLAS_THREAD_VARS
)
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy  # noqa: F401
finally:
    if _ONE_BLAS_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]
